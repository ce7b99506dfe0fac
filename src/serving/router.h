#pragma once

#include <cstdint>
#include <vector>

#include "metrics/counters.h"
#include "metrics/incident.h"
#include "metrics/registry.h"
#include "serving/health_score.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "sim/time.h"

namespace olympian::serving {

struct RouterOptions {
  // Health-aware routing with cross-server failover. Off = static pin: every
  // request of a client goes to its home server no matter what (the
  // no-failover baseline the cluster bench compares against).
  bool failover = true;
  // Client retry budget for genuine failures (failover re-admissions are
  // free, mirroring the device-failover contract).
  int max_retries = 2;
  // Gray-failure detection: continuous health scoring from probe RTTs.
  // When enabled, the hysteresis thresholds (health_score.h's kDegradeBelow
  // and kRecoverAbove) own the healthy <-> degraded transitions (the legacy
  // one-error degrade and success-clears edges are skipped; down/recovering
  // semantics are unchanged) and Route() switches to score-weighted
  // selection. Off by default: zero behavior change.
  HealthScoreOptions score;
  // Brownout admission control: when the mean routable-server score drops
  // below `enter_below`, the router sheds the lowest remaining priority
  // class (one level per move, hysteresis + router.cc's kBrownoutMinDwell
  // between moves) and restores classes in reverse order once capacity is
  // back above `exit_above`. The top class is never shed. Requires scoring.
  struct BrownoutOptions {
    bool enabled = false;
    double enter_below = 0.60;
    double exit_above = 0.80;
  };
  BrownoutOptions brownout;
};

// How the router reaches servers. Implemented by the Cluster, which knows
// about partitions, crashes, and hangs; the Router only sees outcomes.
class RouterTransport {
 public:
  virtual ~RouterTransport() = default;
  // One heartbeat round-trip to `server`. Sets `ok` and returns after the
  // RTT (success) or the probe timeout (failure).
  virtual sim::Task Probe(std::size_t server, bool& ok) = 0;
  // Does the server currently have any device accepting traffic? (The
  // router-side fast path mirroring requests_rejected_no_device.)
  virtual bool HasUsableDevice(std::size_t server) const = 0;
};

// Front-end request router: sticky-then-least-loaded placement over N
// servers with a probe-driven health view, one HealthFsm target per server.
// The router cannot see inside a server, so its states come from probe
// heartbeats and per-request outcomes rather than device signals: kDegraded
// after an error below the down threshold (under scoring, while the score
// is latched low), kDown once consecutive errors reach the threshold, and
// kRecovering while a down server strings probe successes together, not yet
// routed. An outage runs from the down mark to readmission, so router-side
// MTTR includes detection latency. Single-writer state on the deterministic
// event loop — no locking, fully reproducible.
class Router : public HealthFsm {
 public:
  static constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);

  Router(sim::Environment& env, RouterTransport& transport,
         std::size_t num_servers, RouterOptions options,
         metrics::RouterCounters& counters, metrics::IncidentLog& incidents,
         metrics::MetricRegistry* registry = nullptr);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Spawn the per-server probe loops.
  void Start();
  // Stop the probe loops so the shared event queue can drain.
  void Stop();

  // Pick a server for one request whose home is `home`, by StickySelect
  // (serving/health_score.h; the selector the device Placer uses, scored
  // when scoring is enabled): sticky home while routable, else least-loaded
  // among routable servers. With failover off, always the home. kNoServer
  // when nothing is routable.
  std::size_t Route(std::size_t home);

  // Outstanding accounting + health feedback from the request path.
  void OnRequestStart(std::size_t server);
  void OnRequestEnd(std::size_t server);
  void OnRequestSuccess(std::size_t server);
  void OnRequestError(std::size_t server);

  bool Routable(std::size_t server) const;
  std::uint64_t outstanding(std::size_t server) const;
  std::size_t num_servers() const { return servers_.size(); }
  // Continuous health score of `server` (1.0 when scoring is disabled).
  double score(std::size_t server) const;

  // --- gray-failure detection & response --------------------------------

  // Called by the fault applier when a gray fault opens on `server`; the
  // virtual time from here to the next healthy->degraded/down edge is the
  // detection latency. No-op when scoring is disabled.
  void NoteFaultOnset(std::size_t server);
  const std::vector<sim::Duration>& detection_latencies() const {
    return detection_latencies_;
  }

  // Brownout admission control. `priorities` is the set of client priority
  // classes in the run; shedding drops the *lowest* class first, restores
  // in reverse order. Higher priority value = more important.
  void SetPriorityClasses(std::vector<int> priorities);
  // Should a request of `priority` be rejected at admission right now?
  bool BrownoutSheds(int priority) const;
  int brownout_level() const { return brownout_level_; }

 private:
  struct ServerState {
    int errors = 0;     // consecutive
    int successes = 0;  // consecutive probe successes while recovering
    std::uint64_t outstanding = 0;
    // Gray-failure score, fed by probes when scoring is enabled, and its
    // hysteresis latch: set when the score falls below kDegradeBelow,
    // cleared when it climbs back to kRecoverAbove. Both reset at
    // readmission, so the error EWMA built up through an outage (and a
    // possibly different post-recovery normal) cannot re-degrade the
    // readmitted server.
    HealthScore score;
    bool score_degraded = false;
  };

  bool scoring() const { return options_.score.enabled; }
  sim::Task ProbeLoop(std::size_t server);
  void OnResult(std::size_t server, bool ok);
  void Transition(std::size_t server, Health to);
  void UpdateScoreHealth(std::size_t server);
  void UpdateBrownout();

  sim::Environment& env_;
  RouterTransport& transport_;
  RouterOptions options_;
  metrics::RouterCounters& counters_;
  // Incident-timeline feed: health edges become detection/recovery marks,
  // brownout level increases become global mitigations.
  metrics::IncidentLog& incidents_;
  metrics::MetricRegistry* registry_;
  std::vector<ServerState> servers_;
  // Gray-failure state (all empty/zero when scoring is disabled).
  std::vector<sim::TimePoint> fault_onset_;   // valid iff onset_armed_[s]
  std::vector<bool> onset_armed_;
  std::vector<sim::Duration> detection_latencies_;
  std::vector<int> priority_classes_;         // ascending, unique
  int brownout_level_ = 0;  // classes currently shed (0 = none)
  sim::TimePoint last_brownout_move_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace olympian::serving
