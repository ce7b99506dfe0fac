#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace olympian::serving {

// Successful probe RTTs averaged into the learned baseline before the RTT
// term starts contributing (score is err-term-only until then).
inline constexpr int kBaselineProbes = 3;
static_assert(kBaselineProbes >= 1);
// EWMA smoothing factors (weight of the newest sample) of the error and RTT
// terms: a sustained change outweighs the history after two probes.
inline constexpr double kErrorAlpha = 0.3;
static_assert(kErrorAlpha > 0.0 && kErrorAlpha <= 1.0);
inline constexpr double kRttAlpha = 0.3;
static_assert(kRttAlpha > 0.0 && kRttAlpha <= 1.0);
// Blend between the RTT term and the error-rate term.
inline constexpr double kRttWeight = 0.7;
static_assert(kRttWeight >= 0.0 && kRttWeight <= 1.0);
// Hysteresis thresholds driving healthy <-> degraded transitions: degrade
// when the score falls below kDegradeBelow, recover when it climbs back to
// kRecoverAbove. The gap between them is what prevents flapping at the
// boundary.
inline constexpr double kDegradeBelow = 0.70;
inline constexpr double kRecoverAbove = 0.85;
static_assert(0.0 < kDegradeBelow && kDegradeBelow < kRecoverAbove &&
              kRecoverAbove < 1.0);

// The cluster Router's continuous gray-failure health score. Off by
// default: with `enabled == false` no score is fed and only the router's
// binary probe and request signals move its health state machine.
struct HealthScoreOptions {
  bool enabled = false;
};

// Continuous health score in [0, 1] for one probed server, fed by the
// router's probe outcomes and round-trip times:
//
//   score = kRttWeight  * min(1, baseline / ewma_rtt)
//         + (1 - kRttWeight) * (1 - err_ewma)
//
// where `baseline` is the mean of the first kBaselineProbes successful
// RTTs (a learned notion of "normal" for this server), `ewma_rtt` smooths
// successful RTTs, and `err_ewma` smooths the 0/1 failure indicator of
// every outcome. A fractional-capacity fault or jitter window inflates
// measured RTT and drives the RTT term down; probe timeouts drive the
// error term down. 1.0 = nominal, 0.0 = unresponsive.
//
// Pure accumulator: no virtual-clock access, no RNG, no events — scoring a
// trajectory adds zero scheduler activity, which is what lets the scored
// and unscored cluster runs share one event stream.
class HealthScore {
 public:
  // Record one probe outcome; `rtt` is meaningful only when `ok`.
  void OnProbe(bool ok, sim::Duration rtt) {
    err_ewma_ =
        kErrorAlpha * (ok ? 0.0 : 1.0) + (1.0 - kErrorAlpha) * err_ewma_;
    if (!ok) return;
    const double r = static_cast<double>(rtt.nanos());
    if (baseline_count_ < kBaselineProbes) {
      baseline_sum_ += r;
      ++baseline_count_;
      ewma_rtt_ = r;  // seed the EWMA while the baseline is learning
      if (baseline_count_ == kBaselineProbes) {
        baseline_ = baseline_sum_ / static_cast<double>(baseline_count_);
      }
      return;
    }
    ewma_rtt_ = kRttAlpha * r + (1.0 - kRttAlpha) * ewma_rtt_;
  }

  // Forget everything (target went down / was readmitted): the baseline
  // re-learns, so a post-recovery "normal" can differ from the old one.
  void Reset() {
    baseline_ = 0.0;
    baseline_sum_ = 0.0;
    baseline_count_ = 0;
    ewma_rtt_ = 0.0;
    err_ewma_ = 0.0;
  }

  double score() const {
    const double err_term = 1.0 - err_ewma_;
    if (baseline_ <= 0.0 || ewma_rtt_ <= 0.0) {
      // RTT term not learned yet: treat it as nominal.
      return kRttWeight + (1.0 - kRttWeight) * err_term;
    }
    const double rtt_term = std::min(1.0, baseline_ / ewma_rtt_);
    return kRttWeight * rtt_term + (1.0 - kRttWeight) * err_term;
  }

  // Measured slowdown vs. the learned baseline (1.0 until learned).
  double slowdown() const {
    return baseline_ > 0.0 && ewma_rtt_ > 0.0 ? ewma_rtt_ / baseline_ : 1.0;
  }

  bool baseline_learned() const { return baseline_ > 0.0; }

 private:
  double baseline_ = 0.0;      // mean of the first N successful RTTs (ns)
  double baseline_sum_ = 0.0;
  int baseline_count_ = 0;
  double ewma_rtt_ = 0.0;      // EWMA of successful RTTs (ns)
  double err_ewma_ = 0.0;      // EWMA of the 0/1 failure indicator
};

// Health of one target (a device or a server) as placement and routing see
// it. What moves a target between states is up to its owner.
enum class Health : std::uint8_t {
  kHealthy = 0,  // serving normally
  kDegraded,     // serving, but impaired
  kDown,         // not serving
  kRecovering,   // back up, warming before readmission; takes no traffic
};

const char* ToString(Health h);

// One observed health edge, in transition order across all targets.
struct HealthEdge {
  std::size_t target = 0;
  Health from = Health::kHealthy;
  Health to = Health::kHealthy;
  sim::TimePoint at;
};

// One completed outage: from the first down mark to readmission. A relapse
// before readmission stays in the same episode.
struct Outage {
  std::size_t target = 0;
  sim::TimePoint down;
  sim::TimePoint readmitted;

  sim::Duration mttr() const { return readmitted - down; }
  bool operator==(const Outage&) const = default;
};

// The four-state health machine under the device HealthMonitor and the
// cluster Router. It holds each target's state, its HealthScore and the
// score's hysteresis latch, the edge log, and the completed outages. The
// owners decide what moves a target (device signals and the recovery
// pipeline; probe and request streaks) and what each edge feeds. Only a
// `scoring` owner (the Router, when its score is enabled) feeds the score.
class HealthFsm {
 public:
  HealthFsm(std::size_t targets, bool scoring);

  Health health(std::size_t i) const { return targets_.at(i).health; }
  // Routable: healthy or degraded (down/recovering targets take no traffic).
  bool Usable(std::size_t i) const;
  bool scoring() const { return scoring_; }
  // Continuous health score of target i (1.0 when scoring is disabled).
  double score(std::size_t i) const;
  const std::vector<HealthEdge>& transitions() const { return transitions_; }
  // In readmission order.
  const std::vector<Outage>& outages() const { return outages_; }
  // Mean time to repair of target i over its completed outages; zero when
  // it has none.
  sim::Duration Mttr(std::size_t i) const;

 protected:
  enum class Step { kNone, kDegrade, kRecover };

  // Logs the edge health(i) -> `to`; false when i is already in `to`.
  bool Move(std::size_t i, Health to, sim::TimePoint now);
  // Opens an outage episode of target i at `now`.
  void MarkDown(std::size_t i, sim::TimePoint now) {
    targets_[i].down_since = now;
  }
  sim::TimePoint down_since(std::size_t i) const {
    return targets_[i].down_since;
  }
  // Closes target i's outage episode at readmission: records the Outage,
  // then forgets the score and clears the latch, so the error EWMA built
  // up through the outage (and a possibly different post-recovery normal)
  // cannot re-degrade the readmitted target.
  void EndOutage(std::size_t i, sim::TimePoint now);
  void Probe(std::size_t i, bool ok, sim::Duration rtt) {
    targets_[i].score.OnProbe(ok, rtt);
  }
  // Steps target i's hysteresis latch on its current score: kDegrade when
  // the score falls below kDegradeBelow, kRecover when it climbs back to
  // kRecoverAbove. The owner decides which edge, if any, the step causes.
  Step Hysteresis(std::size_t i);

 private:
  struct Target {
    Health health = Health::kHealthy;
    sim::TimePoint down_since;
    HealthScore score;
    // The latch: set from a kDegrade step until the next kRecover step or
    // EndOutage.
    bool score_degraded = false;
  };

  bool scoring_;
  std::vector<Target> targets_;
  std::vector<HealthEdge> transitions_;
  std::vector<Outage> outages_;
};

// One routing target (a device or a server) as StickySelect sees it.
struct RouteCandidate {
  bool usable = false;   // may take traffic at all
  bool healthy = false;  // top health state (not degraded)
  bool ready = true;     // already holds the replica (nothing to load)
  std::uint64_t outstanding = 0;
  double score = 1.0;  // continuous health score (scored mode)
};

// The sticky selector shared by the device Placer and the cluster Router.
// `home` wins while usable and, in scored mode, healthy: the hysteresis
// state, not the raw score, so routing inherits the anti-flap margin.
// Otherwise binary mode ranks healthy over degraded, then ready replicas,
// then fewer outstanding, then the lowest index; scored mode (the Router's,
// whose candidates are all ready) takes the maximum of
// score / (1 + outstanding), strict > so ties keep the lowest index.
// `view(i)` describes candidate i of `n`; `exclude` is never
// picked. Returns size_t(-1) (Placer::kNoDevice, Router::kNoServer) when
// no candidate is usable.
template <typename View>
std::size_t StickySelect(std::size_t n, std::size_t home, std::size_t exclude,
                         bool scored, const View& view) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  if (home != exclude && home < n) {
    const RouteCandidate h = view(home);
    if (h.usable && (!scored || h.healthy)) return home;
  }
  std::size_t best = kNone;
  RouteCandidate b;
  double best_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    const RouteCandidate c = view(i);
    if (!c.usable) continue;
    const double weight =
        c.score / (1.0 + static_cast<double>(c.outstanding));
    bool better = true;  // the first usable candidate wins outright
    if (best != kNone) {
      if (scored) {
        better = weight > best_weight;
      } else if (c.healthy != b.healthy) {
        better = c.healthy;
      } else if (c.ready != b.ready) {
        better = c.ready;
      } else {
        better = c.outstanding < b.outstanding;
      }
    }
    if (better) {
      best = i;
      b = c;
      best_weight = weight;
    }
  }
  return best;
}

}  // namespace olympian::serving
