#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serving/health.h"
#include "sim/environment.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace olympian::serving {

// Health-aware per-request router, replacing the setup-time round-robin pin.
//
// Each client keeps a *primary* device (its round-robin home, where its
// replica was instantiated for free at setup). Route prefers the primary
// while it is usable — sticky placement keeps the no-fault path identical
// to the legacy behaviour and avoids paying replica instantiation for
// nothing — and otherwise picks the least-loaded usable device. The policy
// is StickySelect (serving/health_score.h), shared with the cluster Router.
//
// The replica registry coordinates lazy model instantiation on failover
// targets: the first request routed to a device without the model marks it
// kLoading and pays reload + warm-up on the virtual clock; concurrent
// requests await the load instead of double-paying.
class Placer {
 public:
  static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

  enum class ReplicaState : std::uint8_t { kAbsent = 0, kLoading, kReady };

  Placer(sim::Environment& env, const HealthMonitor& health,
         std::size_t num_gpus);

  Placer(const Placer&) = delete;
  Placer& operator=(const Placer&) = delete;

  // Pick a device for one request of `model` whose home is `primary`, by
  // StickySelect in binary mode (a device holding the replica is "ready").
  // `exclude` (optional) removes one device from consideration — used by
  // hedged requests, which must land somewhere other than the primary
  // attempt. Returns kNoDevice when no usable device remains (every device
  // down: the caller rejects promptly instead of stalling).
  std::size_t Route(const std::string& model, std::size_t primary,
                    std::size_t exclude = kNoDevice) const;

  // Outstanding-request accounting (drives the least-loaded ordering).
  void OnRequestStart(std::size_t gpu) { ++outstanding_.at(gpu); }
  void OnRequestEnd(std::size_t gpu) { --outstanding_.at(gpu); }
  std::uint64_t outstanding(std::size_t gpu) const {
    return outstanding_.at(gpu);
  }

  // --- replica registry --------------------------------------------------
  ReplicaState replica_state(std::size_t gpu, const std::string& model) const;
  // Declare a replica present without loading (primaries at setup).
  void MarkReady(std::size_t gpu, const std::string& model);
  // kAbsent -> kLoading; returns true when the caller owns the load (and
  // must call FinishLoad after charging the cost), false when the replica
  // is already loading or ready.
  bool BeginLoad(std::size_t gpu, const std::string& model);
  // kLoading -> kReady; wakes every AwaitReady waiter.
  void FinishLoad(std::size_t gpu, const std::string& model);
  // kLoading -> kAbsent (the load failed); wakes waiters so one of them
  // can take over the load on its next attempt.
  void AbortLoad(std::size_t gpu, const std::string& model);
  // Suspend while the replica is kLoading. Returns once it settles (kReady,
  // or kAbsent after an aborted load) — callers re-check the state.
  sim::Task AwaitReady(std::size_t gpu, const std::string& model);

  std::uint64_t replicas_loaded() const { return replicas_loaded_; }

 private:
  struct Replica {
    ReplicaState state = ReplicaState::kAbsent;
    std::unique_ptr<sim::CondVar> cv;  // created on first waiter
  };

  Replica& Slot(std::size_t gpu, const std::string& model);
  const Replica* FindSlot(std::size_t gpu, const std::string& model) const;

  sim::Environment& env_;
  const HealthMonitor& health_;
  std::vector<std::uint64_t> outstanding_;
  // Ordered map: deterministic iteration, cheap heterogeneous-ish keying.
  std::map<std::pair<std::size_t, std::string>, Replica> replicas_;
  std::uint64_t replicas_loaded_ = 0;
};

}  // namespace olympian::serving
