#include "serving/health_score.h"

#include <stdexcept>

namespace olympian::serving {

void Validate(const HealthScoreOptions& options) {
  if (!options.enabled) return;
  if (!(options.degrade_below > 0.0) || options.degrade_below >= 1.0 ||
      !(options.recover_above > 0.0) || options.recover_above >= 1.0) {
    throw std::invalid_argument("health score thresholds must be in (0, 1)");
  }
  if (options.degrade_below >= options.recover_above) {
    throw std::invalid_argument(
        "degrade_below must sit strictly below recover_above (hysteresis)");
  }
}

const char* ToString(Health h) {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kDegraded:
      return "degraded";
    case Health::kDown:
      return "down";
    case Health::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthFsm::HealthFsm(std::size_t targets, const HealthScoreOptions& score)
    : score_options_(score) {
  Validate(score);
  targets_.resize(targets);
}

bool HealthFsm::Usable(std::size_t i) const {
  const Health h = targets_.at(i).health;
  return h == Health::kHealthy || h == Health::kDegraded;
}

double HealthFsm::score(std::size_t i) const {
  return scoring() ? targets_.at(i).score.score() : 1.0;
}

sim::Duration HealthFsm::Mttr(std::size_t i) const {
  sim::Duration total;
  std::int64_t completed = 0;
  for (const Outage& o : outages_) {
    if (o.target != i) continue;
    total += o.mttr();
    ++completed;
  }
  return completed == 0 ? sim::Duration::Zero() : total / completed;
}

bool HealthFsm::Move(std::size_t i, Health to, sim::TimePoint now) {
  Target& t = targets_[i];
  if (t.health == to) return false;
  transitions_.push_back(
      HealthEdge{.target = i, .from = t.health, .to = to, .at = now});
  t.health = to;
  return true;
}

void HealthFsm::EndOutage(std::size_t i, sim::TimePoint now) {
  Target& t = targets_[i];
  outages_.push_back(
      Outage{.target = i, .down = t.down_since, .readmitted = now});
  t.score.Reset();
  t.score_degraded = false;
}

HealthFsm::Step HealthFsm::Hysteresis(std::size_t i) {
  Target& t = targets_[i];
  const double sc = t.score.score();
  if (!t.score_degraded && sc < score_options_.degrade_below) {
    t.score_degraded = true;
    return Step::kDegrade;
  }
  if (t.score_degraded && sc >= score_options_.recover_above) {
    t.score_degraded = false;
    return Step::kRecover;
  }
  return Step::kNone;
}

}  // namespace olympian::serving
