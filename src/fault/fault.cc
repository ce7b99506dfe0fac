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

// A negative window would end before it starts, and its clear timer would
// run the virtual clock backwards. Zero is an instant fault.
void CheckWindow(sim::Duration d, const char* field) {
  if (d < sim::Duration::Zero()) {
    throw std::invalid_argument(std::string(field) + " must be >= 0, got " +
                                sim::ToString(d));
  }
}
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
    case FaultKind::kCrash:
      return "server-crash";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kCapacityLoss:
      return "capacity-loss";
    case FaultKind::kJitter:
      return "jitter";
  }
  return "unknown";
}

FaultPlan& FaultPlan::Add(const FaultEvent& e, const char* window_field) {
  CheckWindow(e.duration, window_field);
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::KernelFailure(sim::TimePoint at, gpusim::StreamId stream,
                                    std::size_t gpu_index, std::size_t server) {
  return Add({.kind = FaultKind::kKernelFailure, .at = at, .server = server,
              .gpu_index = gpu_index, .stream = stream},
             "FaultPlan::KernelFailure duration");
}

FaultPlan& FaultPlan::DeviceHang(sim::TimePoint at, sim::Duration duration,
                                 std::size_t gpu_index, std::size_t server) {
  return Add({.kind = FaultKind::kDeviceHang, .at = at, .server = server,
              .gpu_index = gpu_index, .duration = duration},
             "FaultPlan::DeviceHang duration");
}

FaultPlan& FaultPlan::DeviceReset(sim::TimePoint at, sim::Duration outage,
                                  std::size_t gpu_index, std::size_t server) {
  return Add({.kind = FaultKind::kDeviceReset, .at = at, .server = server,
              .gpu_index = gpu_index, .duration = outage},
             "FaultPlan::DeviceReset outage");
}

FaultPlan& FaultPlan::AllocFault(sim::TimePoint at, sim::Duration duration,
                                 std::size_t gpu_index, std::size_t server) {
  return Add({.kind = FaultKind::kAllocFault, .at = at, .server = server,
              .gpu_index = gpu_index, .duration = duration},
             "FaultPlan::AllocFault duration");
}

FaultPlan& FaultPlan::Crash(sim::TimePoint at, sim::Duration outage,
                            std::size_t server) {
  return Add({.kind = FaultKind::kCrash, .at = at, .server = server,
              .duration = outage},
             "FaultPlan::Crash outage");
}

FaultPlan& FaultPlan::Partition(sim::TimePoint at, sim::Duration window,
                                std::size_t server,
                                PartitionDirection /*direction*/) {
  return Add({.kind = FaultKind::kPartition, .at = at, .server = server,
              .duration = window},
             "FaultPlan::Partition window");
}

FaultPlan& FaultPlan::CapacityLoss(sim::TimePoint at, sim::Duration window,
                                   std::size_t server, double capacity) {
  if (!(capacity > 0.0) || capacity > 1.0) {
    throw std::invalid_argument("capacity multiplier must be in (0, 1]");
  }
  return Add({.kind = FaultKind::kCapacityLoss, .at = at, .server = server,
              .duration = window, .capacity = capacity},
             "FaultPlan::CapacityLoss window");
}

FaultPlan& FaultPlan::Jitter(sim::TimePoint at, sim::Duration window,
                             std::size_t server, double factor) {
  if (!(factor >= 1.0)) {
    throw std::invalid_argument("jitter factor must be >= 1");
  }
  return Add({.kind = FaultKind::kJitter, .at = at, .server = server,
              .duration = window, .factor = factor},
             "FaultPlan::Jitter window");
}

FaultPlan FaultPlan::DeviceFaults(std::size_t server) const {
  FaultPlan plan;
  for (const FaultEvent& e : events_) {
    if (IsDeviceFault(e.kind) && e.server == server) plan.events_.push_back(e);
  }
  return plan;
}

namespace {

// Random kernel failures hit stream 0 or 1: a device running any job has
// created at least those two (serving's kStreamsPerJob).
constexpr std::int64_t kFaultStreamsPerGpu = 2;
// Mean windows of random crashes and partitions: both span several router
// probes, and a process restart outlasts a network heal.
constexpr sim::Duration kMeanCrashOutage = sim::Duration::Millis(400);
constexpr sim::Duration kMeanPartition = sim::Duration::Millis(100);
// Largest expected count per kind. Knuth's sampler below stops once a
// product of uniforms reaches exp(-expected), which underflows to zero
// above ~745 and would stop the count early; NaN never reaches it.
constexpr double kMaxExpected = 700.0;

// Draw `expected` Poisson arrivals (in expectation) uniformly over the
// horizon. Uniform placement of a Poisson-distributed count is an exact
// construction of a homogeneous Poisson process.
template <typename AddFn>
void DrawArrivals(sim::Rng& rng, double expected, const char* field,
                  sim::Duration horizon, AddFn add) {
  if (!(expected >= 0.0 && expected <= kMaxExpected)) {
    throw std::invalid_argument(std::string("RandomOptions::") + field +
                                " must be in [0, 700], got " +
                                std::to_string(expected));
  }
  if (expected == 0.0) return;
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

// Kinds draw from one stream in declaration order, each draw a statement of
// its own: argument evaluation order is unspecified, so a draw inside an
// argument list would make the plan depend on the compiler.
FaultPlan FaultPlan::Random(const RandomOptions& options, std::uint64_t seed) {
  if (options.num_gpus < 1 || options.num_servers < 1) {
    throw std::invalid_argument(
        "Random fault plan needs >= 1 gpu and >= 1 server");
  }
  CheckWindow(options.horizon, "RandomOptions::horizon");
  sim::Rng rng(seed);
  FaultPlan plan;
  const auto draw_index = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto draw_window = [&](sim::Duration mean) {
    return mean * (-std::log(1.0 - rng.NextDouble()));
  };
  const auto arrivals = [&](double expected, const char* field, auto add) {
    DrawArrivals(rng, expected, field, options.horizon, add);
  };
  arrivals(options.expected_kernel_failures, "expected_kernel_failures",
           [&](sim::TimePoint at) {
             const std::size_t gpu = draw_index(options.num_gpus);
             const auto stream = rng.UniformInt(0, kFaultStreamsPerGpu - 1);
             plan.KernelFailure(at, stream, gpu);
           });
  arrivals(options.expected_hangs, "expected_hangs", [&](sim::TimePoint at) {
    const std::size_t gpu = draw_index(options.num_gpus);
    plan.DeviceHang(at, draw_window(options.mean_hang), gpu);
  });
  arrivals(options.expected_resets, "expected_resets", [&](sim::TimePoint at) {
    const std::size_t gpu = draw_index(options.num_gpus);
    // A zero mean draws no outage: an instant reset.
    const sim::Duration outage =
        options.mean_reset_outage > sim::Duration::Zero()
            ? draw_window(options.mean_reset_outage)
            : sim::Duration::Zero();
    plan.DeviceReset(at, outage, gpu);
  });
  arrivals(options.expected_alloc_faults, "expected_alloc_faults",
           [&](sim::TimePoint at) {
             const std::size_t gpu = draw_index(options.num_gpus);
             plan.AllocFault(at, draw_window(options.mean_alloc_window), gpu);
           });
  arrivals(options.expected_crashes, "expected_crashes",
           [&](sim::TimePoint at) {
             const std::size_t server = draw_index(options.num_servers);
             plan.Crash(at, draw_window(kMeanCrashOutage), server);
           });
  arrivals(options.expected_partitions, "expected_partitions",
           [&](sim::TimePoint at) {
             const std::size_t server = draw_index(options.num_servers);
             plan.Partition(at, draw_window(kMeanPartition), server,
                            PartitionDirection::kToServer);
           });
  arrivals(options.expected_capacity_losses, "expected_capacity_losses",
           [&](sim::TimePoint at) {
             const double cap =
                 rng.Uniform(options.capacity_low, options.capacity_high);
             const std::size_t server = draw_index(options.num_servers);
             plan.CapacityLoss(at, draw_window(options.mean_capacity_window),
                               server, cap);
           });
  arrivals(options.expected_jitter, "expected_jitter", [&](sim::TimePoint at) {
    const double factor =
        rng.Uniform(options.jitter_factor_low, options.jitter_factor_high);
    const std::size_t server = draw_index(options.num_servers);
    plan.Jitter(at, draw_window(options.mean_jitter_window), server, factor);
  });
  // Deterministic application order regardless of draw order.
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
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
    if (!IsDeviceFault(e.kind)) {
      throw std::invalid_argument(std::string("FaultInjector applies device "
                                              "faults only, not ") +
                                  ToString(e.kind) + ": a Cluster applies it");
    }
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
    default:  // server kinds: the constructor rejects them
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
