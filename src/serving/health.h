#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "metrics/counters.h"
#include "metrics/trace.h"
#include "serving/health_score.h"
#include "sim/environment.h"
#include "sim/task.h"

namespace olympian::serving {

// Callbacks the monitor raises towards the serving layer. `OnDeviceDown`
// fires synchronously inside the device signal that killed it — before any
// failed kernel's waiter resumes — so the observer can cancel in-flight
// runs with a failover reason that wins the sticky cancel-token race.
class HealthObserver {
 public:
  virtual ~HealthObserver() = default;
  virtual void OnDeviceDown(std::size_t gpu) = 0;
  // Recovery finished; the device is healthy and may take traffic again.
  virtual void OnDeviceReadmitted(std::size_t gpu) = 0;
  // Virtual time to reload the parameters resident on `gpu` (charged during
  // the recovery pipeline, after driver re-init).
  virtual sim::Duration ParamsReloadCost(std::size_t gpu) const = 0;
};

struct HealthMonitorOptions {
  // A hang outliving this budget escalates kDegraded -> kDown, triggering
  // failover even though the driver will eventually un-wedge. Zero keeps
  // hung devices merely degraded.
  sim::Duration hang_down_after = sim::Duration::Millis(10);
};

// Per-device health on the virtual clock, one HealthFsm target per device.
//
// Wired to each gpusim::Gpu as its GpuHealthListener: hang/reset/alloc
// signals drive transitions push-style, a per-device heartbeat loop counts
// failed probe kernels, and after an outage a recovery pipeline (driver
// re-init delay -> parameter reload -> warm-up probes -> fault::kWarmup)
// gates readmission; health.cc holds its constants. A device is kDegraded
// while a hang or alloc-fault window is open, kDown in a reset outage or
// after a hang outlived the escalation budget, and kRecovering from the end
// of driver re-init until readmission.
// Every edge also lands in the serving counters and on the tracer's health
// track, so failover behaviour is observable and testable.
class HealthMonitor : public HealthFsm {
 public:
  HealthMonitor(sim::Environment& env, std::vector<gpusim::Gpu*> gpus,
                HealthMonitorOptions options, HealthObserver& observer,
                metrics::ServingCounters& counters,
                metrics::Tracer* tracer = nullptr);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Attach listeners and spawn the probe loops. Call once, before traffic.
  void Start();
  // Stop probing (pending recovery pipelines still run to completion, and
  // listeners stay attached). Called when the workload finishes so the
  // event queue can drain.
  void Stop();

  std::size_t num_devices() const { return devices_.size(); }

 private:
  // Fans one device's GpuHealthListener callbacks into the monitor.
  struct Listener final : gpusim::GpuHealthListener {
    HealthMonitor* monitor = nullptr;
    std::size_t index = 0;
    void OnHangBegin(sim::TimePoint until) override {
      monitor->HandleHangBegin(index, until);
    }
    void OnHangEnd() override { monitor->HandleHangEnd(index); }
    void OnResetBegin(sim::Duration outage) override {
      monitor->HandleResetBegin(index, outage);
    }
    void OnResetComplete() override { monitor->HandleResetComplete(index); }
    void OnAllocFaultWindow(sim::TimePoint until) override {
      monitor->HandleAllocFaultWindow(index, until);
    }
  };

  struct Device {
    gpusim::Gpu* gpu = nullptr;
    gpusim::StreamId probe_stream = -1;
    // Bumped on every down / readmission edge; stale timers and recovery
    // pipelines from an earlier episode check it and bail.
    std::uint64_t generation = 0;
    // Bumped when a hang ends (or the device goes down); disarms the
    // pending degraded -> down escalation timer of that hang.
    std::uint64_t hang_epoch = 0;
    // True when the current kDown came from hang escalation (no reset): the
    // recovery pipeline then skips driver re-init and parameter reload.
    bool down_from_hang = false;
    Listener listener;
  };

  void Transition(std::size_t gpu, Health to);
  void GoDown(std::size_t gpu, bool from_hang);
  void Readmit(std::size_t gpu);
  sim::Task RecoveryProc(std::size_t gpu, std::uint64_t generation,
                         bool full_reinit);
  sim::Task ProbeLoop(std::size_t gpu);

  void HandleHangBegin(std::size_t gpu, sim::TimePoint until);
  void HandleHangEnd(std::size_t gpu);
  void HandleResetBegin(std::size_t gpu, sim::Duration outage);
  void HandleResetComplete(std::size_t gpu);
  void HandleAllocFaultWindow(std::size_t gpu, sim::TimePoint until);

  // args pack (gpu << 32) | generation-low-bits; see Pack/Unpack in the .cc.
  static void HangEscalateTrampoline(void* ctx, std::uint64_t arg);
  static void AllocClearTrampoline(void* ctx, std::uint64_t arg);

  sim::Environment& env_;
  HealthMonitorOptions options_;
  HealthObserver& observer_;
  metrics::ServingCounters& counters_;
  metrics::Tracer* tracer_;
  std::vector<std::unique_ptr<Device>> devices_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace olympian::serving
