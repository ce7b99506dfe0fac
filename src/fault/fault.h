#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/gpu.h"
#include "metrics/counters.h"
#include "metrics/trace.h"
#include "sim/environment.h"
#include "sim/random.h"
#include "sim/time.h"

namespace olympian::fault {

// What goes wrong. All faults are device-level; the serving layers above
// convert them into per-request outcomes (timed_out / failed_retried / ...).
enum class FaultKind : std::uint8_t {
  // The next kernel to retire on `stream` of device `gpu_index` retires
  // with an error (a launch/exec failure attributed to one kernel).
  kKernelFailure,
  // The device's driver stops issuing work for `duration`; in-flight waves
  // complete, queued kernels wait (a wedged channel, recovered by watchdog).
  kDeviceHang,
  // Full device reset: all queued kernels fail immediately, executing
  // kernels fail as their in-flight waves drain.
  kDeviceReset,
  // AllocateMemory on the device fails transiently for `duration`.
  kAllocFault,
};

const char* ToString(FaultKind kind);

// One scheduled fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceHang;
  sim::TimePoint at;
  std::size_t gpu_index = 0;
  gpusim::StreamId stream = -1;  // kKernelFailure only
  // kDeviceHang / kAllocFault: window length.
  // kDeviceReset: outage during which the device stays down (zero =
  // instant reset, legacy semantics).
  sim::Duration duration;
};

// Recovery pricing. Once a reset outage ends, the serving layer's health
// monitor orchestrates readmission: driver re-init, parameter reload over
// PCIe, then warm-up before traffic resumes (the re-init delay and the
// warm-up probe count are constants in serving/health.cc).
//
// Fixed warm-up pause after a parameter load before the device — or a
// lazily loaded replica or cluster tenant — serves traffic.
inline constexpr sim::Duration kWarmup = sim::Duration::Millis(5);

// Time to stream `params_mb` of parameters over PCIe: params_mb / 1024 /
// kPcieGbps seconds (fault.cc), zero when `params_mb` is not positive.
// Every parameter load is priced here: a post-outage reload, a lazy device
// replica, and a cluster tenant's first arrival on a non-home server.
sim::Duration ParamsTransferTime(double params_mb);

// A declarative schedule of faults on the virtual clock. Build one with the
// fluent adders (chainable) or generate one stochastically — but
// deterministically — from a seed with `Random`. The plan is pure data; the
// FaultInjector applies it to live devices.
class FaultPlan {
 public:
  FaultPlan& KernelFailure(sim::TimePoint at, gpusim::StreamId stream,
                           std::size_t gpu_index = 0);
  FaultPlan& DeviceHang(sim::TimePoint at, sim::Duration duration,
                        std::size_t gpu_index = 0);
  // Reset with a down window: submissions fail fast until `outage` elapses,
  // then the device signals completion to its health listener. A zero
  // outage is an instant reset.
  FaultPlan& DeviceReset(sim::TimePoint at, sim::Duration outage,
                         std::size_t gpu_index = 0);
  FaultPlan& AllocFault(sim::TimePoint at, sim::Duration duration,
                        std::size_t gpu_index = 0);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Expected fault counts over a horizon; Poisson arrivals per kind.
  struct RandomOptions {
    sim::Duration horizon = sim::Duration::Seconds(10.0);
    std::size_t num_gpus = 1;
    double expected_kernel_failures = 0.0;
    double expected_hangs = 0.0;
    sim::Duration mean_hang = sim::Duration::Millis(20);
    double expected_resets = 0.0;
    // Mean down-window per reset; zero keeps legacy instant resets (and
    // draws no extra random number, preserving existing plans bit-for-bit).
    sim::Duration mean_reset_outage = sim::Duration::Zero();
    double expected_alloc_faults = 0.0;
    sim::Duration mean_alloc_window = sim::Duration::Millis(10);
  };

  // Draw a plan from `seed`: same seed, same plan, bit-for-bit — fault
  // injection must never break the simulator's reproducibility guarantee.
  static FaultPlan Random(const RandomOptions& options, std::uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
};

// --- server-level faults ----------------------------------------------------
//
// Whole-server failure modes for the cluster layer: the unit of failure is
// a serving process (all of its devices at once) or the network path
// between the front-end router and one server. Like FaultPlan, a
// ServerFaultPlan is pure data on the virtual clock; the cluster layer owns
// the applier (this library cannot depend on serving).

enum class ServerFaultKind : std::uint8_t {
  // Process crash: every device of the server resets and submissions fail
  // fast for `duration`; the process restarts when the outage ends and the
  // server's own recovery pipeline (driver re-init, reload, warm-up) runs
  // before it takes traffic again.
  kCrash,
  // Inbound network partition between the router and the server for
  // `duration`: requests and probes are dropped on the way in. Responses
  // are always delivered.
  kPartition,
  // Gray failure: every device of the server runs at `capacity` (in
  // (0, 1]) of normal speed for `duration`. The server stays up and keeps
  // answering probes — only measured latency reveals the degradation.
  kCapacityLoss,
  // Gray failure: network jitter between the router and the server —
  // every router<->server hop (requests, responses, probes) is stretched
  // by `factor` (>= 1) for `duration`. Nothing is dropped.
  kJitter,
};

const char* ToString(ServerFaultKind kind);

// A partition drops traffic towards the server only, so kToServer is the
// one direction. Kept, with Partition's parameter that takes it, because
// perfbench/perfbench.cc:649 passes it.
enum class PartitionDirection : std::uint8_t { kToServer };

struct ServerFaultEvent {
  ServerFaultKind kind = ServerFaultKind::kCrash;
  sim::TimePoint at;
  std::size_t server = 0;
  sim::Duration duration;  // outage / partition / gray window length
  double capacity = 1.0;  // kCapacityLoss only: speed multiplier in (0, 1]
  double factor = 1.0;    // kJitter only: hop-delay multiplier >= 1
};

// Declarative schedule of server-level faults; fluent adders or a seeded
// stochastic generator, mirroring FaultPlan.
class ServerFaultPlan {
 public:
  ServerFaultPlan& Crash(sim::TimePoint at, sim::Duration outage,
                         std::size_t server);
  ServerFaultPlan& Partition(sim::TimePoint at, sim::Duration window,
                             std::size_t server,
                             PartitionDirection direction);
  // Gray faults: fractional capacity on every device of `server`, and
  // network jitter stretching router<->server hops by `factor`.
  ServerFaultPlan& CapacityLoss(sim::TimePoint at, sim::Duration window,
                                std::size_t server, double capacity);
  ServerFaultPlan& Jitter(sim::TimePoint at, sim::Duration window,
                          std::size_t server, double factor);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<ServerFaultEvent>& events() const { return events_; }

  struct RandomOptions {
    sim::Duration horizon = sim::Duration::Seconds(10.0);
    std::size_t num_servers = 2;
    double expected_crashes = 0.0;  // mean outage: fault.cc's kMeanCrashOutage
    double expected_partitions = 0.0;  // mean window: fault.cc's kMeanPartition
    // Gray faults; zero expected events draws no extra random numbers,
    // preserving existing plans bit-for-bit.
    double expected_capacity_losses = 0.0;
    sim::Duration mean_capacity_window = sim::Duration::Millis(300);
    double capacity_low = 0.25;   // multiplier drawn uniformly from
    double capacity_high = 0.75;  // [capacity_low, capacity_high]
    double expected_jitter = 0.0;
    sim::Duration mean_jitter_window = sim::Duration::Millis(200);
    double jitter_factor_low = 2.0;   // factor drawn uniformly from
    double jitter_factor_high = 8.0;  // [jitter_factor_low, jitter_factor_high]
  };

  // Draw a plan from `seed`: same seed, same plan, bit-for-bit.
  static ServerFaultPlan Random(const RandomOptions& options,
                                std::uint64_t seed);

 private:
  std::vector<ServerFaultEvent> events_;
};

// Applies a FaultPlan to live devices at the scheduled virtual times.
// Construct it after the Environment and Gpus, then call Arm() before (or
// during) the run; events before the current time are dropped. Every applied
// event counts into `counters`; tracer spans (on metrics::Tracer::kFaultTrack)
// are optional.
class FaultInjector {
 public:
  FaultInjector(sim::Environment& env, std::vector<gpusim::Gpu*> gpus,
                FaultPlan plan, metrics::ServingCounters& counters,
                metrics::Tracer* tracer = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedule every future event of the plan on the virtual clock.
  void Arm();

  std::uint64_t events_applied() const { return events_applied_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void Apply(const FaultEvent& e);
  static void Trampoline(void* ctx, std::uint64_t index);

  sim::Environment& env_;
  std::vector<gpusim::Gpu*> gpus_;
  FaultPlan plan_;
  metrics::ServingCounters& counters_;
  metrics::Tracer* tracer_;
  bool armed_ = false;
  std::uint64_t events_applied_ = 0;
};

}  // namespace olympian::fault
