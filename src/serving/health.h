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

// Placement-facing classification of one device.
enum class DeviceHealth : std::uint8_t {
  kHealthy = 0,  // serving normally
  kDegraded,     // serving, but impaired (hang in progress, alloc faults)
  kDown,         // not serving: reset outage, or a hang that outlived the
                 // escalation budget and was failed over
  kRecovering,   // driver back up; reloading / warming before readmission
};

const char* ToString(DeviceHealth h);

// One observed health-state edge, in transition order across all devices.
// The failover test asserts on this log (down observed, readmission
// observed); it is also mirrored to the tracer's health track.
struct HealthTransition {
  std::size_t gpu = 0;
  DeviceHealth from = DeviceHealth::kHealthy;
  DeviceHealth to = DeviceHealth::kHealthy;
  sim::TimePoint at;
};

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
  // Heartbeat cadence per device; zero disables the probe loop (the
  // listener signals alone still classify, but warm-up probes and liveness
  // checks stop).
  sim::Duration probe_interval = sim::Duration::Millis(5);
  // A hang outliving this budget escalates kDegraded -> kDown, triggering
  // failover even though the driver will eventually un-wedge. Zero keeps
  // hung devices merely degraded.
  sim::Duration hang_down_after = sim::Duration::Millis(10);
  // Gray-failure detection: continuous per-device health scoring from probe
  // kernel RTTs. A fractional-capacity fault has no listener signal — it
  // stretches kernels silently — so it can only be noticed by measuring the
  // heartbeat. When enabled, hysteresis thresholds add a score-driven
  // healthy <-> degraded path alongside the push-style listener edges
  // (which stay authoritative for hangs/alloc faults); while the score
  // holds a device degraded, the listener clear edges are deferred until
  // the score recovers. Off by default: zero behavior change.
  HealthScoreOptions score;
};

// Per-device health state machine on the virtual clock.
//
// Wired to each gpusim::Gpu as its GpuHealthListener: hang/reset/alloc
// signals drive transitions push-style, a per-device heartbeat loop probes
// liveness pull-style, and after an outage a recovery pipeline (driver
// re-init delay -> parameter reload -> warm-up probes -> fault::kWarmup)
// gates readmission; health.cc holds its constants.
// All state changes land in a transition log, the serving counters, and the
// tracer's health track, so failover behaviour is observable and testable.
class HealthMonitor {
 public:
  struct DeviceStats {
    std::uint64_t down_events = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t probe_failures = 0;
    sim::Duration time_down;      // kDown + kRecovering, completed episodes
    sim::Duration time_degraded;  // completed kDegraded episodes
    sim::Duration mttr_total;     // sum of down -> readmitted intervals
    // One entry per completed recovery (down -> readmitted), in episode
    // order: the per-incident repair times behind mttr_total, so consumers
    // can build a distribution (histogram / p95) instead of one average.
    std::vector<sim::Duration> mttr_incidents;
  };

  HealthMonitor(sim::Environment& env, std::vector<gpusim::Gpu*> gpus,
                HealthMonitorOptions options, HealthObserver& observer,
                metrics::ServingCounters* counters = nullptr,
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
  DeviceHealth health(std::size_t gpu) const;
  // Routable: healthy or degraded (down/recovering devices take no traffic).
  bool Usable(std::size_t gpu) const;
  const DeviceStats& stats(std::size_t gpu) const;
  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }
  // Mean time to repair: down -> readmitted, averaged over completed
  // recoveries of `gpu`. Zero when the device never went down.
  sim::Duration Mttr(std::size_t gpu) const;

  // Gray-failure scoring (all trivial when scoring is disabled).
  bool scoring() const { return options_.score.enabled; }
  // Continuous health score of `gpu` (1.0 when scoring is disabled).
  double score(std::size_t gpu) const;
  // Measured probe slowdown vs. the learned baseline (1.0 = nominal).
  double slowdown(std::size_t gpu) const;

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
    DeviceHealth health = DeviceHealth::kHealthy;
    sim::TimePoint state_since;
    sim::TimePoint down_since;
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
    // Probe-RTT health score (only consulted when scoring is enabled).
    // `score_degraded` is the hysteresis latch: true from the degrade edge
    // until the score climbs back above recover_above; while set, listener
    // clear edges may not transition the device back to healthy.
    HealthScore score;
    bool score_degraded = false;
    DeviceStats stats;
    Listener listener;
  };

  void Transition(std::size_t gpu, DeviceHealth to);
  void UpdateScoreHealth(std::size_t gpu);
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
  metrics::ServingCounters* counters_;
  metrics::Tracer* tracer_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<HealthTransition> transitions_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace olympian::serving
