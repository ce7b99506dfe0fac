#include "serving/router.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::serving {
namespace {
// Heartbeat cadence per server: with cluster.cc's 10 ms probe timeout, a
// server that stops answering is down after about 3 x (20 + 10) = 90 ms.
constexpr sim::Duration kProbeInterval = sim::Duration::Millis(20);
// Consecutive errors (probe or request) before a server is marked down;
// fewer only degrade it, so one lost probe fails no client over.
constexpr int kDownAfterErrors = 3;
// Consecutive probe successes a down server needs before it is routed
// again: the first only shows the process answers (kRecovering).
constexpr int kRecoverySuccesses = 2;
// Minimum virtual time between brownout shed-level moves (anti-flap dwell).
constexpr sim::Duration kBrownoutMinDwell = sim::Duration::Millis(50);
}  // namespace

Router::Router(sim::Environment& env, RouterTransport& transport,
               std::size_t num_servers, RouterOptions options,
               metrics::RouterCounters& counters,
               metrics::IncidentLog& incidents,
               metrics::MetricRegistry* registry)
    : HealthFsm(num_servers, options.score.enabled),
      env_(env),
      transport_(transport),
      options_(options),
      counters_(counters),
      incidents_(incidents),
      registry_(registry) {
  if (num_servers < 1) throw std::invalid_argument("Router needs >= 1 server");
  if (options_.brownout.enabled) {
    if (!options_.score.enabled) {
      throw std::invalid_argument("brownout requires health scoring");
    }
    if (!(options_.brownout.enter_below > 0.0) ||
        options_.brownout.enter_below >= options_.brownout.exit_above ||
        options_.brownout.exit_above > 1.0) {
      throw std::invalid_argument(
          "brownout needs 0 < enter_below < exit_above <= 1");
    }
  }
  servers_.resize(num_servers);
  if (options_.score.enabled) {
    fault_onset_.resize(num_servers);
    onset_armed_.assign(num_servers, false);
  }
}

void Router::Start() {
  if (started_) throw std::logic_error("Router::Start called twice");
  started_ = true;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    env_.Spawn(ProbeLoop(s), "router/probe-server" + std::to_string(s));
  }
}

void Router::Stop() { stopped_ = true; }

std::size_t Router::Route(std::size_t home) {
  if (!options_.failover) return home;  // static pin baseline
  // Every routable server holds the tenant or instantiates it on arrival,
  // so all candidates are "ready" and the home is never excluded.
  return StickySelect(servers_.size(), home, kNoServer, scoring(),
                      [&](std::size_t s) {
                        return RouteCandidate{
                            .usable = Routable(s),
                            .healthy = health(s) == Health::kHealthy,
                            .outstanding = servers_[s].outstanding,
                            .score = score(s)};
                      });
}

void Router::OnRequestStart(std::size_t server) {
  ++servers_.at(server).outstanding;
  ++counters_.requests_routed;
}

void Router::OnRequestEnd(std::size_t server) {
  --servers_.at(server).outstanding;
}

void Router::OnRequestSuccess(std::size_t server) {
  // A served request proves liveness but says nothing about warm-up, so it
  // clears the error streak without advancing the recovering hand-shake.
  // With scoring on, the hysteresis thresholds own the degraded->healthy
  // edge — one fast request must not clear a measured slowdown.
  servers_.at(server).errors = 0;
  if (!scoring() && health(server) == Health::kDegraded) {
    Transition(server, Health::kHealthy);
  }
}

void Router::OnRequestError(std::size_t server) { OnResult(server, false); }

bool Router::Routable(std::size_t server) const {
  return Usable(server) && transport_.HasUsableDevice(server);
}

std::uint64_t Router::outstanding(std::size_t server) const {
  return servers_.at(server).outstanding;
}

sim::Task Router::ProbeLoop(std::size_t server) {
  // This server's probe-RTT series, looked up at its first successful probe
  // (a server that never answers exports no series) and reused after.
  metrics::MetricRegistry::TimeSeries* rtt_series = nullptr;
  for (;;) {
    co_await env_.Delay(kProbeInterval);
    if (stopped_) co_return;
    ++counters_.probes_sent;
    bool ok = false;
    const sim::TimePoint sent = env_.Now();
    co_await transport_.Probe(server, ok);
    if (stopped_) co_return;
    const sim::Duration rtt = env_.Now() - sent;
    if (!ok) ++counters_.probe_failures;
    if (registry_ != nullptr && ok) {
      // The gray-degradation signal as the router saw it, per server.
      if (rtt_series == nullptr) {
        rtt_series = &registry_->GetSeries("olympian_router_probe_rtt_ms",
                                           {{"server", std::to_string(server)}});
      }
      rtt_series->Sample(env_.Now(), rtt.millis());
    }
    if (scoring()) Probe(server, ok, rtt);
    OnResult(server, ok);
    if (scoring()) {
      UpdateScoreHealth(server);
      UpdateBrownout();
    }
  }
}

void Router::OnResult(std::size_t server, bool ok) {
  ServerState& st = servers_.at(server);
  if (ok) {
    st.errors = 0;
    switch (health(server)) {
      case Health::kHealthy:
        break;
      case Health::kDegraded:
        // Under scoring the hysteresis owns this edge: one fast probe must
        // not clear a measured slowdown (UpdateScoreHealth recovers it).
        if (!scoring()) Transition(server, Health::kHealthy);
        break;
      case Health::kDown:
        st.successes = 1;
        Transition(server, Health::kRecovering);
        break;
      case Health::kRecovering:
        // Not routed until the warm-up hand-shake completes: the server must
        // answer kRecoverySuccesses consecutive probes before traffic.
        if (++st.successes >= kRecoverySuccesses) {
          EndOutage(server, env_.Now());
          ++counters_.server_readmissions;
          Transition(server, Health::kHealthy);
        }
        break;
    }
    return;
  }
  st.successes = 0;
  ++st.errors;
  switch (health(server)) {
    case Health::kDown:
      break;
    case Health::kRecovering:
      // Relapse: same outage episode, so down_since is preserved and the
      // eventual MTTR covers the whole incident.
      Transition(server, Health::kDown);
      break;
    case Health::kHealthy:
    case Health::kDegraded:
      if (st.errors >= kDownAfterErrors) {
        MarkDown(server, env_.Now());
        ++counters_.server_down_events;
        Transition(server, Health::kDown);
      } else if (!scoring() && health(server) == Health::kHealthy) {
        // With scoring on, a single error only feeds the error EWMA; the
        // hysteresis check owns the healthy->degraded edge.
        Transition(server, Health::kDegraded);
      }
      break;
  }
}

void Router::Transition(std::size_t server, Health to) {
  const Health from = health(server);
  const sim::TimePoint now = env_.Now();
  if (!Move(server, to, now)) return;
  // Detection latency: an armed gray-fault onset is consumed by the first
  // away-from-healthy edge; going back to healthy discards a stale onset
  // (the window closed before the router ever noticed).
  if (scoring() && !onset_armed_.empty() && onset_armed_[server]) {
    if (to == Health::kDegraded || to == Health::kDown) {
      const sim::Duration lat = now - fault_onset_[server];
      detection_latencies_.push_back(lat);
      onset_armed_[server] = false;
      if (registry_ != nullptr) {
        registry_->GetHistogram("olympian_router_detection_latency_ms")
            .Observe(lat.millis());
      }
    } else if (to == Health::kHealthy) {
      onset_armed_[server] = false;
    }
  }
  // The incident log's notion of "healthy" is the router's top state; any
  // away-edge is a detection, the return edge is the recovery.
  incidents_.HealthChange(static_cast<int>(server), from == Health::kHealthy,
                          to == Health::kHealthy, now);
  ++counters_.server_transitions;
  if (registry_ != nullptr) {
    registry_
        ->GetSeries("olympian_server_health",
                    {{"server", std::to_string(server)}})
        .Sample(now, static_cast<double>(static_cast<int>(to)));
  }
}

void Router::NoteFaultOnset(std::size_t server) {
  if (!scoring()) return;
  // Only arm from the healthy state: a fault landing on an already
  // degraded/down server has no healthy->degraded edge to measure.
  if (health(server) != Health::kHealthy) return;
  if (onset_armed_[server]) return;  // overlapping windows: first onset wins
  onset_armed_[server] = true;
  fault_onset_[server] = env_.Now();
}

void Router::SetPriorityClasses(std::vector<int> priorities) {
  std::sort(priorities.begin(), priorities.end());
  priorities.erase(std::unique(priorities.begin(), priorities.end()),
                   priorities.end());
  priority_classes_ = std::move(priorities);
}

bool Router::BrownoutSheds(int priority) const {
  if (brownout_level_ <= 0) return false;
  // Classes are sorted ascending; the lowest `brownout_level_` of them are
  // shed. A priority below every known class sheds with the lowest one.
  std::size_t rank = 0;
  while (rank < priority_classes_.size() &&
         priority_classes_[rank] < priority) {
    ++rank;
  }
  return rank < static_cast<std::size_t>(brownout_level_);
}

void Router::UpdateScoreHealth(std::size_t server) {
  const Step step = Hysteresis(server);
  if (step == Step::kDegrade && health(server) == Health::kHealthy) {
    ++counters_.score_degrade_events;
    Transition(server, Health::kDegraded);
  } else if (step == Step::kRecover && health(server) == Health::kDegraded) {
    ++counters_.score_recover_events;
    Transition(server, Health::kHealthy);
  }
}

void Router::UpdateBrownout() {
  if (!options_.brownout.enabled || priority_classes_.empty()) return;
  const sim::TimePoint now = env_.Now();
  if (brownout_level_ != 0 || last_brownout_move_ > sim::TimePoint()) {
    if (now - last_brownout_move_ < kBrownoutMinDwell) return;
  }
  // Aggregate capacity: mean score over routable servers, with unroutable
  // servers contributing zero — a down server is lost capacity too.
  double total = 0.0;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (Routable(s)) total += score(s);
  }
  const double cap = total / static_cast<double>(servers_.size());
  // The highest class is never shed: brownout degrades, it never blacks out.
  const int max_level = static_cast<int>(priority_classes_.size()) - 1;
  const int before = brownout_level_;
  if (cap < options_.brownout.enter_below && brownout_level_ < max_level) {
    if (brownout_level_ == 0) ++counters_.brownout_entries;
    ++brownout_level_;
    last_brownout_move_ = now;
  } else if (cap >= options_.brownout.exit_above && brownout_level_ > 0) {
    --brownout_level_;
    if (brownout_level_ == 0) ++counters_.brownout_exits;
    last_brownout_move_ = now;
  }
  if (brownout_level_ != before && registry_ != nullptr) {
    registry_->GetSeries("olympian_brownout_level", {})
        .Sample(now, static_cast<double>(brownout_level_));
  }
  if (brownout_level_ > before) {
    // Shedding a class is a global load-shifting action: it mitigates every
    // open, detected incident that nothing else has addressed yet.
    incidents_.Mitigation(-1, "brownout", now);
  }
}

}  // namespace olympian::serving
