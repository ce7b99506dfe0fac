#include "serving/placer.h"

#include <stdexcept>

namespace olympian::serving {

Placer::Placer(sim::Environment& env, const HealthMonitor& health,
               std::size_t num_gpus)
    : env_(env), health_(health), outstanding_(num_gpus, 0) {
  if (num_gpus == 0) throw std::invalid_argument("Placer needs >= 1 gpu");
  if (health.num_devices() != num_gpus) {
    throw std::invalid_argument("Placer/HealthMonitor device count mismatch");
  }
}

std::size_t Placer::Route(const std::string& model,
                          std::size_t primary) const {
  return StickySelect(
      outstanding_.size(), primary, /*scored=*/false,
      [&](std::size_t i) {
        return RouteCandidate{
            .usable = health_.Usable(i),
            .healthy = health_.health(i) == Health::kHealthy,
            .ready = replica_state(i, model) == ReplicaState::kReady,
            .outstanding = outstanding_[i]};
      });
}

Placer::Replica& Placer::Slot(std::size_t gpu, const std::string& model) {
  return replicas_[{gpu, model}];
}

const Placer::Replica* Placer::FindSlot(std::size_t gpu,
                                        const std::string& model) const {
  const auto it = replicas_.find({gpu, model});
  return it == replicas_.end() ? nullptr : &it->second;
}

Placer::ReplicaState Placer::replica_state(std::size_t gpu,
                                           const std::string& model) const {
  const Replica* r = FindSlot(gpu, model);
  return r == nullptr ? ReplicaState::kAbsent : r->state;
}

void Placer::MarkReady(std::size_t gpu, const std::string& model) {
  Slot(gpu, model).state = ReplicaState::kReady;
}

bool Placer::BeginLoad(std::size_t gpu, const std::string& model) {
  Replica& r = Slot(gpu, model);
  if (r.state != ReplicaState::kAbsent) return false;
  r.state = ReplicaState::kLoading;
  return true;
}

void Placer::FinishLoad(std::size_t gpu, const std::string& model) {
  Replica& r = Slot(gpu, model);
  if (r.state != ReplicaState::kLoading) {
    throw std::logic_error("FinishLoad without BeginLoad");
  }
  r.state = ReplicaState::kReady;
  ++replicas_loaded_;
  if (r.cv) r.cv->NotifyAll();
}

void Placer::AbortLoad(std::size_t gpu, const std::string& model) {
  Replica& r = Slot(gpu, model);
  if (r.state != ReplicaState::kLoading) {
    throw std::logic_error("AbortLoad without BeginLoad");
  }
  r.state = ReplicaState::kAbsent;
  if (r.cv) r.cv->NotifyAll();
}

sim::Task Placer::AwaitReady(std::size_t gpu, const std::string& model) {
  Replica& r = Slot(gpu, model);
  while (r.state == ReplicaState::kLoading) {
    if (!r.cv) r.cv = std::make_unique<sim::CondVar>(env_);
    co_await r.cv->Wait();
  }
}

}  // namespace olympian::serving
