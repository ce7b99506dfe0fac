// Tests for the fault-injection subsystem (fault/) and the serving stack's
// graceful degradation: deadlines, retries, and the determinism guarantee
// under injected faults.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "gpusim/gpu.h"
#include "serving/cluster.h"
#include "serving/degradation.h"
#include "serving/server.h"
#include "sim/environment.h"

namespace olympian {
namespace {

using sim::Duration;
using sim::Environment;
using sim::Task;
using sim::TimePoint;

TimePoint At(double ms) { return TimePoint() + Duration::Millis(ms); }

// ---------------------------------------------------------------------------
// FaultPlan

TEST(FaultPlanTest, FluentBuilderRecordsEvents) {
  fault::FaultPlan plan;
  plan.KernelFailure(At(1), /*stream=*/0)
      .DeviceHang(At(2), Duration::Millis(5))
      .DeviceReset(At(3), Duration::Zero())
      .AllocFault(At(4), Duration::Millis(2));
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, fault::FaultKind::kKernelFailure);
  EXPECT_EQ(plan.events()[1].kind, fault::FaultKind::kDeviceHang);
  EXPECT_EQ(plan.events()[2].kind, fault::FaultKind::kDeviceReset);
  EXPECT_EQ(plan.events()[3].kind, fault::FaultKind::kAllocFault);
  EXPECT_EQ(plan.events()[1].duration, Duration::Millis(5));
}

// A negative window ends before it starts: its end timer would fire in the
// past and run the virtual clock backwards (a -20 ms hang at 50 ms used to
// end the run at 30 ms). A zero window stays an instant fault.
TEST(FaultPlanTest, AddersRejectNegativeWindows) {
  fault::FaultPlan plan;
  const Duration minus = Duration::Millis(-20);
  EXPECT_THROW(plan.DeviceHang(At(50), minus), std::invalid_argument);
  EXPECT_THROW(plan.DeviceReset(At(50), minus, 0), std::invalid_argument);
  EXPECT_THROW(plan.AllocFault(At(50), minus), std::invalid_argument);
  EXPECT_TRUE(plan.empty());
  // The message names the argument and its value.
  try {
    plan.DeviceHang(At(50), minus);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "FaultPlan::DeviceHang duration must be >= 0, got -20ms");
  }
  plan.DeviceHang(At(50), Duration::Zero())
      .DeviceReset(At(50), Duration::Zero(), 0)
      .AllocFault(At(50), Duration::Zero());
  EXPECT_EQ(plan.size(), 3u);
}

TEST(FaultPlanTest, RandomIsDeterministicInSeed) {
  fault::FaultPlan::RandomOptions opts;
  opts.expected_kernel_failures = 4.0;
  opts.expected_hangs = 2.0;
  opts.expected_resets = 1.0;
  opts.expected_alloc_faults = 2.0;
  const auto a = fault::FaultPlan::Random(opts, 42);
  const auto b = fault::FaultPlan::Random(opts, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].gpu_index, b.events()[i].gpu_index);
    EXPECT_EQ(a.events()[i].stream, b.events()[i].stream);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  const auto c = fault::FaultPlan::Random(opts, 43);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

// Satellite regression: kinds draw from the shared stream in a fixed order
// (kernel failures, hangs, resets, alloc faults), so raising a *later*
// kind's expectation must not perturb any earlier kind's draws. This is
// what lets a study add reset outages to an existing plan without moving
// the kernel-failure schedule it was calibrated against.
TEST(FaultPlanTest, LaterKindExpectationsDoNotPerturbEarlierDraws) {
  fault::FaultPlan::RandomOptions base;
  base.expected_kernel_failures = 4.0;
  base.expected_hangs = 2.0;
  base.mean_hang = Duration::Millis(3);

  fault::FaultPlan::RandomOptions extended = base;
  extended.expected_resets = 2.0;
  extended.mean_reset_outage = Duration::Millis(50);
  extended.expected_alloc_faults = 1.0;

  const auto a = fault::FaultPlan::Random(base, 42);
  const auto b = fault::FaultPlan::Random(extended, 42);
  auto of_kind = [](const fault::FaultPlan& p, fault::FaultKind k) {
    std::vector<fault::FaultEvent> out;
    for (const auto& e : p.events()) {
      if (e.kind == k) out.push_back(e);
    }
    return out;
  };
  for (const auto kind :
       {fault::FaultKind::kKernelFailure, fault::FaultKind::kDeviceHang}) {
    const auto ea = of_kind(a, kind);
    const auto eb = of_kind(b, kind);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].at, eb[i].at);
      EXPECT_EQ(ea[i].gpu_index, eb[i].gpu_index);
      EXPECT_EQ(ea[i].stream, eb[i].stream);
      EXPECT_EQ(ea[i].duration, eb[i].duration);
    }
  }
  // The new knob actually took effect: resets carry an outage duration.
  const auto resets = of_kind(b, fault::FaultKind::kDeviceReset);
  for (const auto& e : resets) EXPECT_GT(e.duration, Duration::Zero());
}

// mean_reset_outage defaults to zero and zero draws nothing extra from the
// rng: plans built before the knob existed reproduce bit-for-bit, with
// instantaneous (zero-outage) resets.
TEST(FaultPlanTest, ZeroMeanResetOutageDrawsInstantResets) {
  fault::FaultPlan::RandomOptions opts;
  opts.expected_resets = 3.0;
  opts.expected_alloc_faults = 2.0;
  const auto plan = fault::FaultPlan::Random(opts, 11);
  for (const auto& e : plan.events()) {
    if (e.kind == fault::FaultKind::kDeviceReset) {
      EXPECT_EQ(e.duration, Duration::Zero());
    }
  }
}

TEST(FaultPlanTest, RandomEventsAreTimeSorted) {
  fault::FaultPlan::RandomOptions opts;
  opts.expected_kernel_failures = 6.0;
  opts.expected_hangs = 6.0;
  const auto plan = fault::FaultPlan::Random(opts, 7);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
  }
}

// FNV-1a over every field of every event, each kind by its ToString name.
std::uint64_t Fingerprint(const fault::FaultPlan& plan) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix_byte = [&h](unsigned char b) {
    h = (h ^ b) * 1099511628211ull;
  };
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>(v >> 8 * i));
    }
  };
  for (const fault::FaultEvent& e : plan.events()) {
    for (const char* c = fault::ToString(e.kind); *c != '\0'; ++c) {
      mix_byte(static_cast<unsigned char>(*c));
    }
    mix(static_cast<std::uint64_t>(e.at.nanos()));
    mix(e.gpu_index);
    mix(e.server);
    mix(static_cast<std::uint64_t>(e.stream));
    mix(static_cast<std::uint64_t>(e.duration.nanos()));
    mix(std::bit_cast<std::uint64_t>(e.capacity));
    mix(std::bit_cast<std::uint64_t>(e.factor));
  }
  return h;
}

// Seeded plans, pinned by size and fingerprint. Every pin but the last was
// recorded when device and server faults had a generator each, so the one
// generator draws both bit-for-bit as they did. A draw moved, or placed in
// an argument list whose evaluation order the compiler picks, breaks them.
TEST(FaultPlanTest, SeededPlansArePinned) {
  // bench_fault_degradation's plans at scales 1, 2, 4 and 8.
  const struct {
    double scale;
    std::size_t size;
    std::uint64_t fingerprint;
  } degradation[] = {{1.0, 4, 0xb3317bcd3b4217cdull},
                     {2.0, 9, 0x4130d1ff3f656516ull},
                     {4.0, 32, 0xedb0b45246bc6293ull},
                     {8.0, 50, 0xd2d0c581274556a4ull}};
  for (const auto& pin : degradation) {
    fault::FaultPlan::RandomOptions ro;
    ro.horizon = Duration::Seconds(20.0);
    ro.num_gpus = 2;
    ro.expected_kernel_failures = 4.0 * pin.scale;
    ro.expected_hangs = 1.0 * pin.scale;
    ro.mean_hang = Duration::Millis(400);
    ro.expected_alloc_faults = 2.0 * pin.scale;
    ro.mean_alloc_window = Duration::Millis(20);
    const auto plan = fault::FaultPlan::Random(ro, 1234);
    EXPECT_EQ(plan.size(), pin.size) << pin.scale;
    EXPECT_EQ(Fingerprint(plan), pin.fingerprint) << pin.scale;
  }
  // All four device kinds.
  fault::FaultPlan::RandomOptions device;
  device.num_gpus = 3;
  device.expected_kernel_failures = 3.0;
  device.expected_hangs = 2.0;
  device.expected_resets = 2.0;
  device.mean_reset_outage = Duration::Millis(50);
  device.expected_alloc_faults = 2.0;
  const auto device_plan = fault::FaultPlan::Random(device, 6);
  EXPECT_EQ(device_plan.size(), 12u);
  EXPECT_EQ(Fingerprint(device_plan), 0x8af631e69012f9c0ull);
  // bench_gray_failure's plan.
  fault::FaultPlan::RandomOptions gray;
  gray.horizon = Duration::Seconds(4.0);
  gray.num_servers = 4;
  gray.expected_capacity_losses = 7.0;
  gray.mean_capacity_window = Duration::Millis(700);
  gray.capacity_low = 0.10;
  gray.capacity_high = 0.30;
  gray.expected_jitter = 3.0;
  gray.mean_jitter_window = Duration::Millis(300);
  gray.jitter_factor_low = 3.0;
  gray.jitter_factor_high = 8.0;
  const auto gray_plan = fault::FaultPlan::Random(gray, 4242);
  EXPECT_EQ(gray_plan.size(), 7u);
  EXPECT_EQ(Fingerprint(gray_plan), 0xaf966d784409e503ull);
  // All four server kinds.
  fault::FaultPlan::RandomOptions server;
  server.num_servers = 3;
  server.expected_crashes = 2.0;
  server.expected_partitions = 2.0;
  server.expected_capacity_losses = 2.0;
  server.expected_jitter = 2.0;
  const auto server_plan = fault::FaultPlan::Random(server, 77);
  EXPECT_EQ(server_plan.size(), 11u);
  EXPECT_EQ(Fingerprint(server_plan), 0x5d3c6708f067b226ull);
  // All eight kinds from one stream, which only the one generator draws.
  fault::FaultPlan::RandomOptions all = device;
  all.num_servers = server.num_servers;
  all.expected_crashes = server.expected_crashes;
  all.expected_partitions = server.expected_partitions;
  all.expected_capacity_losses = server.expected_capacity_losses;
  all.expected_jitter = server.expected_jitter;
  const auto all_plan = fault::FaultPlan::Random(all, 2);
  std::set<fault::FaultKind> kinds;
  for (const auto& e : all_plan.events()) kinds.insert(e.kind);
  EXPECT_EQ(kinds.size(), 8u);
  EXPECT_EQ(all_plan.size(), 18u);
  EXPECT_EQ(Fingerprint(all_plan), 0x7b59592349c39b25ull);
}

// Knuth's sampler stops once a product of uniforms reaches exp(-expected).
// A NaN expectation never reaches it and spun forever; above ~745 the limit
// underflows to zero and the count stopped early (2000 drew 742 events).
// Each is rejected, naming the field, as is a negative horizon.
TEST(FaultPlanTest, RandomRejectsExpectationsItCannotDraw) {
  using Options = fault::FaultPlan::RandomOptions;
  const std::pair<double Options::*, const char*> fields[] = {
      {&Options::expected_kernel_failures, "expected_kernel_failures"},
      {&Options::expected_hangs, "expected_hangs"},
      {&Options::expected_resets, "expected_resets"},
      {&Options::expected_alloc_faults, "expected_alloc_faults"},
      {&Options::expected_crashes, "expected_crashes"},
      {&Options::expected_partitions, "expected_partitions"},
      {&Options::expected_capacity_losses, "expected_capacity_losses"},
      {&Options::expected_jitter, "expected_jitter"}};
  for (const auto& [field, name] : fields) {
    for (const double bad : {std::nan(""), -1.0, 701.0, 2000.0}) {
      Options opts;
      opts.*field = bad;
      try {
        fault::FaultPlan::Random(opts, 1);
        ADD_FAILURE() << name << " = " << bad << " drew a plan";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
    Options edge;
    edge.*field = 700.0;
    EXPECT_GT(fault::FaultPlan::Random(edge, 1).size(), 600u) << name;
  }
  Options negative;
  negative.horizon = Duration::Millis(-1);
  EXPECT_THROW(fault::FaultPlan::Random(negative, 1), std::invalid_argument);
  // Zero expects nothing and draws nothing.
  EXPECT_TRUE(fault::FaultPlan::Random(Options{}, 1).empty());
}

// ---------------------------------------------------------------------------
// Device-level fault semantics

gpusim::Gpu::Options TestGpu() {
  gpusim::Gpu::Options o;
  o.spec = gpusim::GpuSpec{.name = "test",
                           .num_sms = 8,
                           .max_blocks_per_sm = 1,
                           .clock_scale = 1.0,
                           .memory_mb = 1000};
  o.clock_noise_sigma = 0.0;
  o.arbitration_bias_sigma = 0.0;
  o.seed = 1;
  return o;
}

Task SubmitOne(gpusim::Gpu& gpu, Environment& env, gpusim::StreamId s,
               TimePoint& done, bool& failed) {
  try {
    co_await gpu.Submit(s, gpusim::KernelDesc{.job = 0, .node_id = 1,
                                              .thread_blocks = 4,
                                              .block_work = Duration::Micros(10)});
  } catch (const gpusim::KernelFailed&) {
    failed = true;
  }
  done = env.Now();
}

TEST(GpuFaultTest, InjectedKernelFailureThrowsAtAwait) {
  Environment env;
  gpusim::Gpu gpu(env, TestGpu());
  const auto s = gpu.CreateStream();
  gpu.InjectKernelFailure(s);
  TimePoint done;
  bool failed = false;
  env.Spawn(SubmitOne(gpu, env, s, done, failed));
  env.Run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(gpu.kernels_failed(), 1u);
  EXPECT_EQ(gpu.kernels_completed(), 0u);
}

TEST(GpuFaultTest, HangDelaysDispatchUntilRecovery) {
  Environment env;
  gpusim::Gpu gpu(env, TestGpu());
  const auto s = gpu.CreateStream();
  gpu.Hang(Duration::Millis(3));
  EXPECT_TRUE(gpu.hung());
  TimePoint done;
  bool failed = false;
  env.Spawn(SubmitOne(gpu, env, s, done, failed));
  env.Run();
  EXPECT_FALSE(failed);
  // The 10us kernel could not start before the hang lifted at t=3ms.
  EXPECT_EQ(done, At(3) + Duration::Micros(10));
  EXPECT_FALSE(gpu.hung());
}

TEST(GpuFaultTest, ResetFailsQueuedKernelsImmediately) {
  Environment env;
  gpusim::Gpu gpu(env, TestGpu());
  const auto s1 = gpu.CreateStream();
  const auto s2 = gpu.CreateStream();
  gpu.Hang(Duration::Seconds(100));  // keep both kernels queued
  TimePoint d1, d2;
  bool f1 = false, f2 = false;
  env.Spawn(SubmitOne(gpu, env, s1, d1, f1));
  env.Spawn(SubmitOne(gpu, env, s2, d2, f2));
  env.ScheduleCallbackAt(
      At(1), [](void* ctx, std::uint64_t) { static_cast<gpusim::Gpu*>(ctx)->Reset(); },
      &gpu, 0);
  env.Run();
  EXPECT_TRUE(f1);
  EXPECT_TRUE(f2);
  EXPECT_EQ(d1, At(1));  // failed at the reset instant, not after the hang
  EXPECT_EQ(d2, At(1));
  EXPECT_EQ(gpu.kernels_failed(), 2u);
  EXPECT_EQ(gpu.resets(), 1u);
  EXPECT_FALSE(gpu.hung());  // reset clears the hang
}

TEST(GpuFaultTest, AllocFaultWindowFailsAllocationsTransiently) {
  Environment env;
  gpusim::Gpu gpu(env, TestGpu());
  gpu.InjectAllocFault(Duration::Millis(2));
  EXPECT_TRUE(gpu.alloc_fault_active());
  EXPECT_THROW(gpu.AllocateMemory(0, 10), gpusim::TransientAllocFailure);
  auto after = [](Environment& env, gpusim::Gpu& gpu) -> Task {
    co_await env.Delay(Duration::Millis(3));
    gpu.AllocateMemory(0, 10);  // window over: succeeds
  };
  env.Spawn(after(env, gpu));
  env.Run();
  EXPECT_FALSE(gpu.alloc_fault_active());
}

// ---------------------------------------------------------------------------
// Degradation primitives

TEST(RetryPolicyTest, BackoffGrowsExponentially) {
  serving::RetryPolicy p;
  p.base_backoff = Duration::Millis(2);
  EXPECT_EQ(p.BackoffFor(1), Duration::Millis(2));
  EXPECT_EQ(p.BackoffFor(2), Duration::Millis(4));
  EXPECT_EQ(p.BackoffFor(3), Duration::Millis(8));
}

// A negative backoff schedules each retry in the past: requests once
// reported negative latencies. The Experiment constructor rejects it, so
// every cluster server does too; zero (retry at once) stays legal.
TEST(RetryPolicyTest, NegativeBaseBackoffRejectedAtConstruction) {
  serving::ServerOptions opts;
  opts.degradation.retry.base_backoff = Duration::Millis(-50);
  EXPECT_THROW(serving::Experiment{opts}, std::invalid_argument);
  serving::ClusterOptions cluster;
  cluster.server = opts;
  EXPECT_THROW(serving::Cluster{cluster}, std::invalid_argument);
  opts.degradation.retry.base_backoff = Duration::Zero();
  EXPECT_NO_THROW(serving::Experiment{opts});
}

// ---------------------------------------------------------------------------
// End-to-end serving behaviour

serving::ClientSpec Client(int batch = 20, int batches = 2) {
  return serving::ClientSpec{
      .model = "resnet-152", .batch = batch, .num_batches = batches};
}

TEST(ServingFaultTest, KernelFailureIsRetriedToSuccess) {
  serving::ServerOptions opts;
  opts.faults.KernelFailure(At(1), /*stream=*/0);
  serving::Experiment exp(opts);
  auto results = exp.Run({Client(20, 2)});
  EXPECT_EQ(results[0].batches_completed, 2);
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kFailedRetried), 1);
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kOk), 1);
  const auto& c = exp.counters();
  EXPECT_EQ(c.kernel_failures_injected, 1u);
  EXPECT_EQ(c.kernel_failures_observed, 1u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.requests_retried_ok, 1u);
  EXPECT_EQ(c.requests_total(), 2u);
}

// A plan the server cannot apply throws when the experiment is built,
// before anything runs: a fault on a missing GPU, or a server fault, which
// only a Cluster applies.
TEST(ServingFaultTest, ConstructorRejectsFaultsItCannotApply) {
  serving::ServerOptions missing_gpu;  // one GPU
  missing_gpu.faults.KernelFailure(At(1), /*stream=*/0, /*gpu_index=*/1);
  EXPECT_THROW(serving::Experiment{missing_gpu}, std::out_of_range);
  serving::ServerOptions crash;
  crash.faults.Crash(At(1), Duration::Millis(5), /*server=*/0);
  EXPECT_THROW(serving::Experiment{crash}, std::invalid_argument);
}

TEST(ServingFaultTest, RetryBudgetExhaustionFailsRequest) {
  serving::ServerOptions opts;
  opts.degradation.retry.max_retries = 0;  // fail fast
  opts.faults.KernelFailure(At(1), /*stream=*/0);
  serving::Experiment exp(opts);
  auto results = exp.Run({Client(20, 2)});
  EXPECT_EQ(results[0].batches_completed, 1);
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kFailed), 1);
  EXPECT_EQ(exp.counters().requests_failed, 1u);
  EXPECT_EQ(exp.counters().retries, 0u);
}

TEST(ServingFaultTest, AllocFaultWindowIsRiddenOutByBackoff) {
  serving::ServerOptions opts;
  // Window covers the first attempt and the first retry; the second retry's
  // cumulative backoff (>= 4.8ms at jitter 0.2) lands beyond it.
  opts.faults.AllocFault(At(0), Duration::Millis(3));
  serving::Experiment exp(opts);
  auto results = exp.Run({Client(20, 2)});
  EXPECT_EQ(results[0].batches_completed, 2);
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kFailedRetried), 1);
  EXPECT_GE(exp.counters().transient_alloc_failures, 1u);
  EXPECT_EQ(exp.counters().alloc_fault_windows, 1u);
}

TEST(ServingFaultTest, DeadlineCancelsOverrunningRequests) {
  serving::ServerOptions opts;
  serving::ClientSpec spec = Client(100, 2);
  spec.deadline = Duration::Millis(2);  // far below the request's runtime
  serving::Experiment exp(opts);
  auto results = exp.Run({spec});  // completes: no stall, no throw
  EXPECT_EQ(results[0].batches_completed, 0);
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kTimedOut), 2);
  const auto& c = exp.counters();
  EXPECT_EQ(c.requests_timed_out, 2u);
  EXPECT_GE(c.deadline_cancellations, 1u);
}

TEST(ServingFaultTest, GenerousDeadlineDoesNotPerturbResults) {
  serving::ServerOptions opts;
  serving::Experiment plain(opts);
  auto r_plain = plain.Run({Client()});

  serving::ClientSpec spec = Client();
  spec.deadline = Duration::Seconds(1000);
  serving::ServerOptions opts2;
  serving::Experiment with_deadline(opts2);
  auto r_dl = with_deadline.Run({spec});

  EXPECT_EQ(r_plain[0].finish_time, r_dl[0].finish_time);
  EXPECT_EQ(r_plain[0].gpu_duration, r_dl[0].gpu_duration);
  EXPECT_EQ(r_dl[0].CountStatus(serving::RequestStatus::kOk), 2);
}

// Satellite: the determinism regression. A run with a fault plan and a run
// without one, each executed twice with the same seed, must reproduce their
// ClientResults bit-for-bit; the faulty and fault-free runs must differ.
TEST(ServingFaultTest, SameSeedSameFaultPlanReproducesBitForBit) {
  const auto plan = [] {
    fault::FaultPlan::RandomOptions ro;
    ro.horizon = Duration::Millis(40);
    ro.expected_kernel_failures = 2.0;
    ro.expected_hangs = 1.0;
    ro.mean_hang = Duration::Millis(2);
    ro.expected_alloc_faults = 1.0;
    return fault::FaultPlan::Random(ro, 2024);
  }();

  auto run = [&](bool with_faults) {
    serving::ServerOptions opts;
    opts.seed = 77;
    if (with_faults) opts.faults = plan;
    serving::Experiment exp(opts);
    return exp.Run({Client(20, 3), Client(20, 3)});
  };

  for (const bool with_faults : {false, true}) {
    const auto a = run(with_faults);
    const auto b = run(with_faults);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].finish_time, b[i].finish_time);
      EXPECT_EQ(a[i].gpu_duration, b[i].gpu_duration);
      EXPECT_EQ(a[i].batches_completed, b[i].batches_completed);
      ASSERT_EQ(a[i].request_latency_ms, b[i].request_latency_ms);
      ASSERT_EQ(a[i].request_status, b[i].request_status);
    }
  }
  // And the plan actually changed the execution.
  if (!plan.empty()) {
    EXPECT_NE(run(false)[0].finish_time, run(true)[0].finish_time);
  }
}

// Acceptance scenario: a mid-run device hang under the Olympian scheduler
// with request deadlines. The workload must complete deterministically —
// no ServerStalled — with the hit requests timing out or retrying.
TEST(ServingFaultTest, HangWithDeadlinesDegradesGracefullyUnderOlympian) {
  auto run = [] {
    serving::ServerOptions opts;
    // Healthy requests take ~500ms each (two resnet-152@20 clients sharing
    // the device); a 2s hang starting mid-request blows their 1.2s deadline.
    opts.faults.DeviceHang(At(200), Duration::Millis(2000));
    serving::Experiment exp(opts);
    core::Profiler profiler;
    auto profile = profiler.ProfileModel("resnet-152", 20);
    core::Scheduler sched(exp.env(), exp.gpu(),
                          std::make_unique<core::FairPolicy>());
    sched.SetProfile(
        profile.key, &profile.cost,
        core::Profiler::ThresholdFor(profile, Duration::Micros(500)));
    exp.SetHooks(&sched);
    serving::ClientSpec spec = Client(20, 4);
    spec.deadline = Duration::Millis(1200);
    return exp.Run({spec, spec});  // must not throw ServerStalled
  };
  const auto a = run();
  int timed_out = 0, completed = 0;
  for (const auto& r : a) {
    timed_out += r.CountStatus(serving::RequestStatus::kTimedOut);
    completed += r.batches_completed;
  }
  EXPECT_GT(timed_out, 0);  // the 30ms hang blows the 15ms deadlines
  EXPECT_GT(completed, 0);  // service resumes once the device recovers
  const auto b = run();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finish_time, b[i].finish_time);
    EXPECT_EQ(a[i].request_status, b[i].request_status);
  }
}

}  // namespace
}  // namespace olympian
