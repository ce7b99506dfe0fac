#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"

namespace olympian::metrics {

class Tracer;

// Incident timelines: correlates injected fault windows with the serving
// layer's detection, mitigation, and recovery edges into one exported
// record per incident.
//
// The log is fed by whoever owns the signals — the cluster's fault
// trampoline calls Inject when a server fault fires, the router reports
// health transitions / routing shifts / brownout moves, the dispatch path
// reports request outcomes — and Finalize stitches them into the state
// machine
//
//   injected --> detected --> mitigated --> recovered
//
// where `detected` is the first away-from-healthy transition of the
// injected server at or after the injection, `mitigated` is the first
// traffic-shifting action after detection (cross-server failover away from
// the victim, or a brownout level increase), and `recovered` is the first
// back-to-healthy transition after detection. Later stages may be absent
// (-1 in the export): a tolerated gray fault never detects, a fault
// recovered by pure re-routing never sees brownout, and a crash at the end
// of a run never recovers.
//
// All feeding calls happen on the hub side of the sharded engine in virtual
// time order, so the log — like every other export — is byte-identical at
// any shard count. Requests are attributed to an incident while the
// incident is *open*: from injection until recovery, but at least for the
// injected fault window.
class IncidentLog {
 public:
  struct Incident {
    int server = -1;
    std::string kind;  // "server-crash", "partition", "capacity-loss", ...
    std::int64_t injected_ns = 0;
    std::int64_t window_ns = 0;  // injected fault window (0 = point fault)
    std::int64_t detected_ns = -1;
    std::int64_t mitigated_ns = -1;
    std::int64_t recovered_ns = -1;
    std::string mitigation;  // "failover" | "brownout" | "" when none
    std::uint64_t requests_impacted = 0;
    std::uint64_t failures_impacted = 0;
    // Overall run goodput minus goodput across the impact window; positive
    // means the incident hurt (computed by Finalize).
    double goodput_dip = 0.0;
  };

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  // --- feeding (no-ops until Enable) -----------------------------------

  // An injected fault fired against `server`.
  void Inject(int server, std::string kind, sim::TimePoint at,
              sim::Duration window);
  // A health-view transition for `server` (any granularity of "healthy":
  // the router reports routable vs not).
  void HealthChange(int server, bool was_healthy, bool now_healthy,
                    sim::TimePoint at);
  // A traffic-shifting mitigation. `server` is the victim being shifted
  // away from, or -1 for a global action (brownout), which attaches to
  // every open, detected, unmitigated incident.
  void Mitigation(int server, const char* what, sim::TimePoint at);
  // One finished request that targeted `server`.
  void RequestOutcome(int server, sim::TimePoint at, bool ok);

  // --- reporting --------------------------------------------------------

  // Computes goodput dips against the whole-run rate. Idempotent.
  void Finalize();

  const std::vector<Incident>& incidents() const { return incidents_; }
  std::uint64_t total_requests() const { return total_requests_; }

  // JSON export: {"incidents":[{...}], "total_requests": N,
  // "total_failures": N}. Times are integer nanoseconds (-1 = never), so
  // the export is byte-stable.
  void WriteJson(std::ostream& os) const;

  // Adds one span per incident (injection to recovery or window end) plus
  // detected/mitigated/recovered instants on Tracer track -4, so Perfetto
  // shows incidents on the same timeline as flow chains and counters.
  void Annotate(Tracer& tracer) const;

 private:
  // True while requests at `at` should be attributed to `inc`.
  static bool Open(const Incident& inc, sim::TimePoint at);

  bool enabled_ = false;
  bool finalized_ = false;
  std::vector<Incident> incidents_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t total_failures_ = 0;
};

}  // namespace olympian::metrics
