#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace olympian::fault {
namespace {
// Host-to-device bandwidth that prices parameter loads, GB/s.
constexpr double kPcieGbps = 12.0;
static_assert(kPcieGbps > 0.0);
}  // namespace

sim::Duration ParamsTransferTime(double params_mb) {
  if (params_mb <= 0.0) return sim::Duration::Zero();
  return sim::Duration::Seconds(params_mb / 1024.0 / kPcieGbps);
}

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKernelFailure:
      return "kernel-failure";
    case FaultKind::kDeviceHang:
      return "device-hang";
    case FaultKind::kDeviceReset:
      return "device-reset";
    case FaultKind::kAllocFault:
      return "alloc-fault";
    case FaultKind::kCapacityFault:
      return "capacity-fault";
  }
  return "unknown";
}

FaultPlan& FaultPlan::KernelFailure(sim::TimePoint at, gpusim::StreamId stream,
                                    std::size_t gpu_index) {
  events_.push_back(FaultEvent{.kind = FaultKind::kKernelFailure,
                               .at = at,
                               .gpu_index = gpu_index,
                               .stream = stream});
  return *this;
}

FaultPlan& FaultPlan::DeviceHang(sim::TimePoint at, sim::Duration duration,
                                 std::size_t gpu_index) {
  events_.push_back(FaultEvent{.kind = FaultKind::kDeviceHang,
                               .at = at,
                               .gpu_index = gpu_index,
                               .duration = duration});
  return *this;
}

FaultPlan& FaultPlan::DeviceReset(sim::TimePoint at, std::size_t gpu_index) {
  events_.push_back(
      FaultEvent{.kind = FaultKind::kDeviceReset, .at = at, .gpu_index = gpu_index});
  return *this;
}

FaultPlan& FaultPlan::DeviceReset(sim::TimePoint at, sim::Duration outage,
                                  std::size_t gpu_index) {
  events_.push_back(FaultEvent{.kind = FaultKind::kDeviceReset,
                               .at = at,
                               .gpu_index = gpu_index,
                               .duration = outage});
  return *this;
}

FaultPlan& FaultPlan::AllocFault(sim::TimePoint at, sim::Duration duration,
                                 std::size_t gpu_index) {
  events_.push_back(FaultEvent{.kind = FaultKind::kAllocFault,
                               .at = at,
                               .gpu_index = gpu_index,
                               .duration = duration});
  return *this;
}

FaultPlan& FaultPlan::CapacityFault(sim::TimePoint at, sim::Duration duration,
                                    double capacity, std::size_t gpu_index) {
  if (!(capacity > 0.0) || capacity > 1.0) {
    throw std::invalid_argument("capacity multiplier must be in (0, 1]");
  }
  events_.push_back(FaultEvent{.kind = FaultKind::kCapacityFault,
                               .at = at,
                               .gpu_index = gpu_index,
                               .duration = duration,
                               .capacity = capacity});
  return *this;
}

namespace {

// Draw `expected` Poisson arrivals (in expectation) uniformly over the
// horizon. Uniform placement of a Poisson-distributed count is an exact
// construction of a homogeneous Poisson process.
template <typename AddFn>
void DrawArrivals(sim::Rng& rng, double expected, sim::Duration horizon,
                  AddFn add) {
  if (expected <= 0.0) return;
  // Knuth's Poisson sampler; expected counts here are small (single digits).
  const double limit = std::exp(-expected);
  int count = 0;
  double p = 1.0;
  for (;;) {
    p *= rng.NextDouble();
    if (p <= limit) break;
    ++count;
  }
  for (int i = 0; i < count; ++i) {
    add(sim::TimePoint() + horizon * rng.NextDouble());
  }
}

}  // namespace

FaultPlan FaultPlan::Random(const RandomOptions& options, std::uint64_t seed) {
  if (options.num_gpus < 1 || options.streams_per_gpu < 1) {
    throw std::invalid_argument("Random fault plan needs >= 1 gpu and stream");
  }
  sim::Rng rng(seed);
  FaultPlan plan;
  DrawArrivals(rng, options.expected_kernel_failures, options.horizon,
               [&](sim::TimePoint at) {
                 const auto gpu = static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(options.num_gpus) - 1));
                 const auto stream =
                     rng.UniformInt(0, options.streams_per_gpu - 1);
                 plan.KernelFailure(at, stream, gpu);
               });
  DrawArrivals(rng, options.expected_hangs, options.horizon,
               [&](sim::TimePoint at) {
                 const auto gpu = static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(options.num_gpus) - 1));
                 plan.DeviceHang(
                     at, options.mean_hang * (-std::log(1.0 - rng.NextDouble())),
                     gpu);
               });
  DrawArrivals(rng, options.expected_resets, options.horizon,
               [&](sim::TimePoint at) {
                 const auto gpu = static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(options.num_gpus) - 1));
                 if (options.mean_reset_outage > sim::Duration::Zero()) {
                   plan.DeviceReset(at,
                                    options.mean_reset_outage *
                                        (-std::log(1.0 - rng.NextDouble())),
                                    gpu);
                 } else {
                   plan.DeviceReset(at, gpu);
                 }
               });
  DrawArrivals(rng, options.expected_alloc_faults, options.horizon,
               [&](sim::TimePoint at) {
                 const auto gpu = static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(options.num_gpus) - 1));
                 plan.AllocFault(at,
                                 options.mean_alloc_window *
                                     (-std::log(1.0 - rng.NextDouble())),
                                 gpu);
               });
  DrawArrivals(rng, options.expected_capacity_faults, options.horizon,
               [&](sim::TimePoint at) {
                 const auto gpu = static_cast<std::size_t>(rng.UniformInt(
                     0, static_cast<std::int64_t>(options.num_gpus) - 1));
                 const double cap =
                     options.capacity_low +
                     (options.capacity_high - options.capacity_low) *
                         rng.NextDouble();
                 plan.CapacityFault(at,
                                    options.mean_capacity_window *
                                        (-std::log(1.0 - rng.NextDouble())),
                                    cap, gpu);
               });
  // Deterministic application order regardless of draw order.
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

const char* ToString(ServerFaultKind kind) {
  switch (kind) {
    case ServerFaultKind::kCrash:
      return "server-crash";
    case ServerFaultKind::kHang:
      return "server-hang";
    case ServerFaultKind::kPartition:
      return "partition";
    case ServerFaultKind::kCapacityLoss:
      return "capacity-loss";
    case ServerFaultKind::kJitter:
      return "jitter";
  }
  return "unknown";
}

const char* ToString(PartitionDirection d) {
  switch (d) {
    case PartitionDirection::kToServer:
      return "to-server";
    case PartitionDirection::kFromServer:
      return "from-server";
    case PartitionDirection::kBoth:
      return "both";
  }
  return "unknown";
}

ServerFaultPlan& ServerFaultPlan::Crash(sim::TimePoint at, sim::Duration outage,
                                        std::size_t server) {
  events_.push_back(ServerFaultEvent{.kind = ServerFaultKind::kCrash,
                                     .at = at,
                                     .server = server,
                                     .duration = outage});
  return *this;
}

ServerFaultPlan& ServerFaultPlan::Hang(sim::TimePoint at, sim::Duration duration,
                                       std::size_t server) {
  events_.push_back(ServerFaultEvent{.kind = ServerFaultKind::kHang,
                                     .at = at,
                                     .server = server,
                                     .duration = duration});
  return *this;
}

ServerFaultPlan& ServerFaultPlan::Partition(sim::TimePoint at,
                                            sim::Duration window,
                                            std::size_t server,
                                            PartitionDirection direction) {
  events_.push_back(ServerFaultEvent{.kind = ServerFaultKind::kPartition,
                                     .at = at,
                                     .server = server,
                                     .duration = window,
                                     .direction = direction});
  return *this;
}

ServerFaultPlan& ServerFaultPlan::CapacityLoss(sim::TimePoint at,
                                               sim::Duration window,
                                               std::size_t server,
                                               double capacity) {
  if (!(capacity > 0.0) || capacity > 1.0) {
    throw std::invalid_argument("capacity multiplier must be in (0, 1]");
  }
  events_.push_back(ServerFaultEvent{.kind = ServerFaultKind::kCapacityLoss,
                                     .at = at,
                                     .server = server,
                                     .duration = window,
                                     .capacity = capacity});
  return *this;
}

ServerFaultPlan& ServerFaultPlan::Jitter(sim::TimePoint at,
                                         sim::Duration window,
                                         std::size_t server, double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument("jitter factor must be >= 1");
  }
  events_.push_back(ServerFaultEvent{.kind = ServerFaultKind::kJitter,
                                     .at = at,
                                     .server = server,
                                     .duration = window,
                                     .factor = factor});
  return *this;
}

ServerFaultPlan ServerFaultPlan::Random(const RandomOptions& options,
                                        std::uint64_t seed) {
  if (options.num_servers < 1) {
    throw std::invalid_argument("Random server fault plan needs >= 1 server");
  }
  sim::Rng rng(seed);
  ServerFaultPlan plan;
  const auto draw_server = [&] {
    return static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(options.num_servers) - 1));
  };
  DrawArrivals(rng, options.expected_crashes, options.horizon,
               [&](sim::TimePoint at) {
                 plan.Crash(at,
                            options.mean_crash_outage *
                                (-std::log(1.0 - rng.NextDouble())),
                            draw_server());
               });
  DrawArrivals(rng, options.expected_hangs, options.horizon,
               [&](sim::TimePoint at) {
                 plan.Hang(at,
                           options.mean_hang *
                               (-std::log(1.0 - rng.NextDouble())),
                           draw_server());
               });
  DrawArrivals(rng, options.expected_partitions, options.horizon,
               [&](sim::TimePoint at) {
                 const auto dir = static_cast<PartitionDirection>(
                     rng.UniformInt(0, 2));
                 plan.Partition(at,
                                options.mean_partition *
                                    (-std::log(1.0 - rng.NextDouble())),
                                draw_server(), dir);
               });
  DrawArrivals(rng, options.expected_capacity_losses, options.horizon,
               [&](sim::TimePoint at) {
                 const double cap =
                     options.capacity_low +
                     (options.capacity_high - options.capacity_low) *
                         rng.NextDouble();
                 plan.CapacityLoss(at,
                                   options.mean_capacity_window *
                                       (-std::log(1.0 - rng.NextDouble())),
                                   draw_server(), cap);
               });
  DrawArrivals(rng, options.expected_jitter, options.horizon,
               [&](sim::TimePoint at) {
                 const double factor =
                     options.jitter_factor_low +
                     (options.jitter_factor_high - options.jitter_factor_low) *
                         rng.NextDouble();
                 plan.Jitter(at,
                             options.mean_jitter_window *
                                 (-std::log(1.0 - rng.NextDouble())),
                             draw_server(), factor);
               });
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const ServerFaultEvent& a, const ServerFaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultInjector::FaultInjector(sim::Environment& env,
                             std::vector<gpusim::Gpu*> gpus, FaultPlan plan,
                             metrics::ServingCounters& counters,
                             metrics::Tracer* tracer)
    : env_(env),
      gpus_(std::move(gpus)),
      plan_(std::move(plan)),
      counters_(counters),
      tracer_(tracer) {
  for (const FaultEvent& e : plan_.events()) {
    if (e.gpu_index >= gpus_.size()) {
      throw std::out_of_range("FaultPlan targets gpu " +
                              std::to_string(e.gpu_index) + " but only " +
                              std::to_string(gpus_.size()) + " exist");
    }
  }
}

void FaultInjector::Arm() {
  if (armed_) throw std::logic_error("FaultInjector::Arm called twice");
  armed_ = true;
  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at < env_.Now()) continue;  // already in the past
    env_.ScheduleCallbackAt(events[i].at, &FaultInjector::Trampoline, this, i);
  }
}

void FaultInjector::Trampoline(void* ctx, std::uint64_t index) {
  auto* self = static_cast<FaultInjector*>(ctx);
  self->Apply(self->plan_.events()[index]);
}

void FaultInjector::Apply(const FaultEvent& e) {
  gpusim::Gpu& gpu = *gpus_[e.gpu_index];
  switch (e.kind) {
    case FaultKind::kKernelFailure:
      gpu.InjectKernelFailure(e.stream);
      ++counters_.kernel_failures_injected;
      break;
    case FaultKind::kDeviceHang:
      gpu.Hang(e.duration);
      ++counters_.device_hangs;
      break;
    case FaultKind::kDeviceReset:
      gpu.Reset(e.duration);
      ++counters_.device_resets;
      break;
    case FaultKind::kAllocFault:
      gpu.InjectAllocFault(e.duration);
      ++counters_.alloc_fault_windows;
      break;
    case FaultKind::kCapacityFault:
      gpu.ThrottleCapacity(e.capacity, e.duration);
      ++counters_.capacity_fault_windows;
      break;
  }
  ++events_applied_;
  if (tracer_ != nullptr && !tracer_->full()) {
    const char* name = tracer_->Intern(std::string(ToString(e.kind)) +
                                       "@gpu" + std::to_string(e.gpu_index));
    if (e.duration > sim::Duration::Zero()) {
      tracer_->AddSpan("fault", name, metrics::Tracer::kFaultTrack, e.at,
                       e.at + e.duration);
    } else {
      tracer_->AddInstant("fault", name, metrics::Tracer::kFaultTrack, e.at);
    }
  }
}

}  // namespace olympian::fault
