#include "serving/health.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "fault/fault.h"

namespace olympian::serving {

namespace {

// Timer args carry (device, generation): the generation low bits are enough
// to disambiguate episodes (a device does not go down 2^32 times per run).
std::uint64_t Pack(std::size_t gpu, std::uint64_t generation) {
  return (static_cast<std::uint64_t>(gpu) << 32) | (generation & 0xffffffffu);
}
std::size_t UnpackGpu(std::uint64_t arg) {
  return static_cast<std::size_t>(arg >> 32);
}
std::uint64_t UnpackGeneration(std::uint64_t arg) { return arg & 0xffffffffu; }

// Recovery pipeline after a reset outage: driver re-init, then (after the
// observer's parameter reload) heartbeat probes that must complete before
// the fault::kWarmup pause and readmission.
constexpr sim::Duration kDriverReinit = sim::Duration::Millis(20);
constexpr int kWarmupProbes = 2;
// Shape of the heartbeat kernel: one block, microseconds of work.
constexpr std::int64_t kProbeBlocks = 1;
constexpr sim::Duration kProbeWork = sim::Duration::Micros(20);
// Heartbeat cadence per device: one kProbeWork kernel per 5 ms keeps
// probing to about 0.4% of the device.
constexpr sim::Duration kProbeInterval = sim::Duration::Millis(5);

}  // namespace

HealthMonitor::HealthMonitor(sim::Environment& env,
                             std::vector<gpusim::Gpu*> gpus,
                             HealthMonitorOptions options,
                             HealthObserver& observer,
                             metrics::ServingCounters& counters,
                             metrics::Tracer* tracer)
    : HealthFsm(gpus.size(), /*scoring=*/false),
      env_(env),
      options_(options),
      observer_(observer),
      counters_(counters),
      tracer_(tracer) {
  if (gpus.empty()) throw std::invalid_argument("HealthMonitor needs >= 1 gpu");
  devices_.reserve(gpus.size());
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    auto d = std::make_unique<Device>();
    d->gpu = gpus[i];
    d->listener.monitor = this;
    d->listener.index = i;
    devices_.push_back(std::move(d));
  }
}

HealthMonitor::~HealthMonitor() {
  if (!started_) return;
  for (auto& d : devices_) d->gpu->SetHealthListener(nullptr);
}

void HealthMonitor::Start() {
  if (started_) throw std::logic_error("HealthMonitor::Start called twice");
  started_ = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    Device& d = *devices_[i];
    d.probe_stream = d.gpu->CreateStream();
    d.gpu->SetHealthListener(&d.listener);
    env_.Spawn(ProbeLoop(i), "health/probe-gpu" + std::to_string(i));
  }
}

void HealthMonitor::Stop() { stopped_ = true; }

void HealthMonitor::Transition(std::size_t gpu, Health to) {
  const sim::TimePoint now = env_.Now();
  if (!Move(gpu, to, now)) return;
  ++counters_.health_transitions;
  if (tracer_ != nullptr && !tracer_->full()) {
    tracer_->AddInstant(
        "health",
        tracer_->Intern("gpu" + std::to_string(gpu) + ": " + ToString(to)),
        metrics::Tracer::kHealthTrack, now);
  }
}

void HealthMonitor::GoDown(std::size_t gpu, bool from_hang) {
  Device& d = *devices_[gpu];
  if (!Usable(gpu)) {
    // Failed again before readmission: same outage episode, but a reset
    // forces the full recovery pipeline even if the episode began as a hang.
    ++d.generation;
    d.down_from_hang = d.down_from_hang && from_hang;
    Transition(gpu, Health::kDown);
    return;
  }
  ++d.generation;
  ++d.hang_epoch;
  d.down_from_hang = from_hang;
  MarkDown(gpu, env_.Now());
  ++counters_.device_down_events;
  Transition(gpu, Health::kDown);
  // After the bookkeeping, so the observer sees a consistent kDown state
  // while it cancels the device's in-flight runs.
  observer_.OnDeviceDown(gpu);
}

void HealthMonitor::Readmit(std::size_t gpu) {
  const sim::TimePoint now = env_.Now();
  EndOutage(gpu, now);
  // Invalidate leftover escalation timers from the episode.
  ++devices_[gpu]->generation;
  ++counters_.device_readmissions;
  if (tracer_ != nullptr && !tracer_->full()) {
    tracer_->AddSpan("health",
                     tracer_->Intern("gpu" + std::to_string(gpu) + " outage"),
                     metrics::Tracer::kHealthTrack, down_since(gpu), now);
  }
  Transition(gpu, Health::kHealthy);
  observer_.OnDeviceReadmitted(gpu);
}

sim::Task HealthMonitor::RecoveryProc(std::size_t gpu,
                                      std::uint64_t generation,
                                      bool full_reinit) {
  Device& d = *devices_[gpu];
  if (full_reinit) {
    co_await env_.Delay(kDriverReinit);
    if (d.generation != generation) co_return;  // failed again meanwhile
    const sim::Duration reload = observer_.ParamsReloadCost(gpu);
    if (reload > sim::Duration::Zero()) {
      co_await env_.Delay(reload);
      if (d.generation != generation) co_return;
    }
  }
  Transition(gpu, Health::kRecovering);
  for (int p = 0; p < kWarmupProbes; ++p) {
    bool ok = true;
    try {
      co_await d.gpu->Submit(
          d.probe_stream,
          gpusim::KernelDesc{.job = gpusim::kNoJob,
                             .node_id = -1,
                             .thread_blocks = kProbeBlocks,
                             .block_work = kProbeWork});
    } catch (const gpusim::KernelFailed&) {
      ok = false;
    }
    if (d.generation != generation) co_return;
    if (!ok) ++counters_.probe_failures;
  }
  co_await env_.Delay(fault::kWarmup);
  if (d.generation != generation) co_return;
  Readmit(gpu);
}

sim::Task HealthMonitor::ProbeLoop(std::size_t gpu) {
  Device& d = *devices_[gpu];
  for (;;) {
    co_await env_.Delay(kProbeInterval);
    if (stopped_) co_return;
    // Inside an outage submissions fail fast and tell us nothing the
    // listener has not already said; skip the beat.
    if (d.gpu->down()) continue;
    bool ok = true;
    try {
      co_await d.gpu->Submit(
          d.probe_stream,
          gpusim::KernelDesc{.job = gpusim::kNoJob,
                             .node_id = -1,
                             .thread_blocks = kProbeBlocks,
                             .block_work = kProbeWork});
    } catch (const gpusim::KernelFailed&) {
      ok = false;
    }
    if (stopped_) co_return;
    if (!ok) ++counters_.probe_failures;
  }
}

void HealthMonitor::HandleHangBegin(std::size_t gpu, sim::TimePoint until) {
  (void)until;
  if (health(gpu) == Health::kHealthy) Transition(gpu, Health::kDegraded);
  if (health(gpu) == Health::kDegraded &&
      options_.hang_down_after > sim::Duration::Zero()) {
    env_.ScheduleCallbackAt(env_.Now() + options_.hang_down_after,
                            &HealthMonitor::HangEscalateTrampoline, this,
                            Pack(gpu, devices_[gpu]->hang_epoch));
  }
}

void HealthMonitor::HandleHangEnd(std::size_t gpu) {
  Device& d = *devices_[gpu];
  ++d.hang_epoch;  // disarm any pending escalation for the ended hang
  if (health(gpu) == Health::kDegraded) {
    if (!d.gpu->alloc_fault_active()) Transition(gpu, Health::kHealthy);
    return;
  }
  if (health(gpu) == Health::kDown && d.down_from_hang) {
    // The wedged channel finally cleared: the driver was never reset, so
    // recovery skips re-init and reload and goes straight to warm-up.
    env_.Spawn(RecoveryProc(gpu, d.generation, /*full_reinit=*/false),
               "health/recover-gpu" + std::to_string(gpu));
  }
}

void HealthMonitor::HandleResetBegin(std::size_t gpu, sim::Duration outage) {
  (void)outage;
  GoDown(gpu, /*from_hang=*/false);
}

void HealthMonitor::HandleResetComplete(std::size_t gpu) {
  if (health(gpu) != Health::kDown) return;
  env_.Spawn(RecoveryProc(gpu, devices_[gpu]->generation, /*full_reinit=*/true),
             "health/recover-gpu" + std::to_string(gpu));
}

void HealthMonitor::HandleAllocFaultWindow(std::size_t gpu,
                                           sim::TimePoint until) {
  if (health(gpu) == Health::kHealthy) Transition(gpu, Health::kDegraded);
  if (health(gpu) == Health::kDegraded) {
    env_.ScheduleCallbackAt(until, &HealthMonitor::AllocClearTrampoline, this,
                            Pack(gpu, 0));
  }
}

void HealthMonitor::HangEscalateTrampoline(void* ctx, std::uint64_t arg) {
  auto* self = static_cast<HealthMonitor*>(ctx);
  const std::size_t gpu = UnpackGpu(arg);
  Device& d = *self->devices_[gpu];
  if ((d.hang_epoch & 0xffffffffu) != UnpackGeneration(arg)) return;
  if (self->health(gpu) != Health::kDegraded) return;
  if (!d.gpu->hung()) return;  // cleared at this exact instant
  self->GoDown(gpu, /*from_hang=*/true);
}

void HealthMonitor::AllocClearTrampoline(void* ctx, std::uint64_t arg) {
  // No epoch needed: a stale timer observes the window still open (it was
  // extended) or the device in some other state, and is a no-op either way.
  auto* self = static_cast<HealthMonitor*>(ctx);
  const std::size_t gpu = UnpackGpu(arg);
  const gpusim::Gpu& g = *self->devices_[gpu]->gpu;
  if (self->health(gpu) != Health::kDegraded) return;
  if (g.hung() || g.alloc_fault_active()) return;  // still impaired
  self->Transition(gpu, Health::kHealthy);
}

}  // namespace olympian::serving
