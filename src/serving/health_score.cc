#include "serving/health_score.h"

namespace olympian::serving {

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

HealthFsm::HealthFsm(std::size_t targets) : targets_(targets) {}

bool HealthFsm::Usable(std::size_t i) const {
  const Health h = targets_.at(i).health;
  return h == Health::kHealthy || h == Health::kDegraded;
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
  outages_.push_back(
      Outage{.target = i, .down = targets_[i].down_since, .readmitted = now});
}

}  // namespace olympian::serving
