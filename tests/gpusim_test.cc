// Unit tests for the simulated GPU and its job-blind driver (gpusim/).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gpusim/gpu.h"
#include "sim/environment.h"

namespace olympian::gpusim {
namespace {

using sim::Duration;
using sim::Environment;
using sim::Task;
using sim::TimePoint;

Gpu::Options SmallGpu(std::int64_t slots, std::uint64_t seed = 1) {
  Gpu::Options o;
  o.spec = GpuSpec{.name = "test",
                   .num_sms = static_cast<int>(slots),
                   .max_blocks_per_sm = 1,
                   .clock_scale = 1.0,
                   .memory_mb = 1000};
  o.clock_noise_sigma = 0.0;
  o.seed = seed;
  return o;
}

// Submits one kernel and records its completion time.
Task SubmitOne(Gpu& gpu, Environment& env, StreamId s, KernelDesc d,
               TimePoint& done) {
  co_await gpu.Submit(s, d);
  done = env.Now();
}

TEST(GpuTest, SingleKernelSingleWave) {
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s = gpu.CreateStream();
  TimePoint done;
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.job = 0, .node_id = 1, .thread_blocks = 4,
                                 .block_work = Duration::Micros(10)},
                      done));
  env.Run();
  EXPECT_EQ(done, TimePoint() + Duration::Micros(10));
  EXPECT_EQ(gpu.kernels_completed(), 1u);
  EXPECT_EQ(gpu.waves_dispatched(), 1u);
}

TEST(GpuTest, SaturatingKernelRunsExclusiveMultiWave) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  TimePoint done;
  // 10 blocks on 4 slots: saturating -> device-exclusive, ceil(10/4)=3
  // wave-times = 30us, dispatched as one occupancy.
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.job = 0, .thread_blocks = 10,
                                 .block_work = Duration::Micros(10)},
                      done));
  env.Run();
  EXPECT_EQ(done, TimePoint() + Duration::Micros(30));
  EXPECT_EQ(gpu.waves_dispatched(), 1u);
  EXPECT_EQ(gpu.free_slots(), 4);
}

TEST(GpuTest, ExclusiveKernelWaitsForDeviceDrain) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  TimePoint d_small, d_big;
  // Small kernel occupies 2 slots for 10us; the saturating kernel on the
  // other stream must wait for a full drain before its exclusive run.
  env.Spawn(SubmitOne(gpu, env, s1,
                      KernelDesc{.job = 1, .thread_blocks = 2,
                                 .block_work = Duration::Micros(10)},
                      d_small));
  env.Spawn(SubmitOne(gpu, env, s2,
                      KernelDesc{.job = 2, .thread_blocks = 8,
                                 .block_work = Duration::Micros(5)},
                      d_big));
  env.Run();
  EXPECT_EQ(d_small, TimePoint() + Duration::Micros(10));
  // Starts at 10us, runs ceil(8/4)*5us = 10us.
  EXPECT_EQ(d_big, TimePoint() + Duration::Micros(20));
}

TEST(GpuTest, ClockScaleSpeedsUpExecution) {
  Environment env;
  Gpu::Options o = SmallGpu(4);
  o.spec.clock_scale = 2.0;
  Gpu gpu(env, o);
  auto s = gpu.CreateStream();
  TimePoint done;
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.thread_blocks = 4,
                                 .block_work = Duration::Micros(10)},
                      done));
  env.Run();
  EXPECT_EQ(done, TimePoint() + Duration::Micros(5));
}

TEST(GpuTest, InStreamKernelsSerialize) {
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s = gpu.CreateStream();
  TimePoint d1, d2;
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.thread_blocks = 1,
                                 .block_work = Duration::Micros(10)},
                      d1));
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.thread_blocks = 1,
                                 .block_work = Duration::Micros(10)},
                      d2));
  env.Run();
  // Same stream: second kernel starts only after the first completes,
  // despite free slots.
  EXPECT_EQ(d1, TimePoint() + Duration::Micros(10));
  EXPECT_EQ(d2, TimePoint() + Duration::Micros(20));
}

TEST(GpuTest, CrossStreamSmallKernelsOverlap) {
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  TimePoint d1, d2;
  env.Spawn(SubmitOne(gpu, env, s1,
                      KernelDesc{.job = 1, .thread_blocks = 2,
                                 .block_work = Duration::Micros(10)},
                      d1));
  env.Spawn(SubmitOne(gpu, env, s2,
                      KernelDesc{.job = 2, .thread_blocks = 2,
                                 .block_work = Duration::Micros(10)},
                      d2));
  env.Run();
  // Both fit spatially; both finish at 10us.
  EXPECT_EQ(d1, TimePoint() + Duration::Micros(10));
  EXPECT_EQ(d2, TimePoint() + Duration::Micros(10));
}

TEST(GpuTest, SaturatingKernelBlocksOtherStreams) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  TimePoint d1, d2;
  // Kernel A occupies all 4 slots for 10us; B (1 block) must wait.
  env.Spawn(SubmitOne(gpu, env, s1,
                      KernelDesc{.job = 1, .thread_blocks = 4,
                                 .block_work = Duration::Micros(10)},
                      d1));
  env.Spawn(SubmitOne(gpu, env, s2,
                      KernelDesc{.job = 2, .thread_blocks = 1,
                                 .block_work = Duration::Micros(10)},
                      d2));
  env.Run();
  EXPECT_EQ(d1, TimePoint() + Duration::Micros(10));
  EXPECT_EQ(d2, TimePoint() + Duration::Micros(20));
}

TEST(GpuTest, JobGpuDurationIsUnionOfIntervals) {
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  TimePoint d1, d2;
  // Two overlapping kernels of the same job via different streams:
  // union, not sum (paper Figure 5).
  env.Spawn(SubmitOne(gpu, env, s1,
                      KernelDesc{.job = 7, .thread_blocks = 1,
                                 .block_work = Duration::Micros(10)},
                      d1));
  env.Spawn(SubmitOne(gpu, env, s2,
                      KernelDesc{.job = 7, .thread_blocks = 1,
                                 .block_work = Duration::Micros(6)},
                      d2));
  env.Run();
  EXPECT_EQ(gpu.JobGpuDuration(7), Duration::Micros(10));
}

TEST(GpuTest, TotalBusyAndIdle) {
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s = gpu.CreateStream();
  TimePoint done;
  env.Spawn([](Environment& e, Gpu& g, StreamId st, TimePoint& d) -> Task {
    co_await e.Delay(Duration::Micros(5));  // idle gap first
    co_await g.Submit(st, KernelDesc{.job = 0, .thread_blocks = 1,
                                     .block_work = Duration::Micros(10)});
    d = e.Now();
  }(env, gpu, s, done));
  env.Run();
  EXPECT_EQ(gpu.TotalBusy(), Duration::Micros(10));
  EXPECT_TRUE(gpu.idle());
  EXPECT_NEAR(gpu.MeanSlotOccupancy(), (1.0 / 8.0) * (10.0 / 15.0), 1e-9);
}

TEST(GpuTest, ManyKernelsAllComplete) {
  Environment env;
  Gpu gpu(env, SmallGpu(16, /*seed=*/42));
  std::vector<StreamId> streams;
  for (int i = 0; i < 4; ++i) streams.push_back(gpu.CreateStream());
  int completed = 0;
  for (int i = 0; i < 400; ++i) {
    env.Spawn([](Gpu& g, StreamId st, int blocks, int& done) -> Task {
      co_await g.Submit(st, KernelDesc{.job = st, .thread_blocks = blocks,
                                       .block_work = Duration::Micros(3)});
      ++done;
    }(gpu, streams[i % 4], 1 + i % 7, completed));
  }
  env.Run();
  EXPECT_EQ(completed, 400);
  EXPECT_EQ(gpu.kernels_completed(), 400u);
  EXPECT_EQ(gpu.free_slots(), 16);
}

TEST(GpuTest, MemoryAccounting) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  gpu.AllocateMemory(1, 600);
  EXPECT_EQ(gpu.memory_used_mb(), 600);
  EXPECT_THROW(gpu.AllocateMemory(2, 600), OutOfDeviceMemory);
  gpu.ReleaseMemory(1, 600);
  gpu.AllocateMemory(2, 600);
  EXPECT_EQ(gpu.memory_used_mb(), 600);
  // A negative request would silently shrink the books.
  EXPECT_THROW(gpu.AllocateMemory(3, -5), std::invalid_argument);
  EXPECT_EQ(gpu.memory_used_mb(), 600);
}

TEST(GpuTest, MemoryUnderflowThrows) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  EXPECT_THROW(gpu.ReleaseMemory(1, 10), std::logic_error);
}

TEST(GpuTest, InvalidSubmissionsRejected) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  bool threw_blocks = false, threw_stream = false;
  env.Spawn([](Gpu& g, StreamId st, bool& t1, bool& t2) -> Task {
    try {
      co_await g.Submit(st, KernelDesc{.thread_blocks = 0,
                                       .block_work = Duration::Micros(1)});
    } catch (const std::invalid_argument&) {
      t1 = true;
    }
    try {
      co_await g.Submit(999, KernelDesc{.thread_blocks = 1,
                                        .block_work = Duration::Micros(1)});
    } catch (const std::out_of_range&) {
      t2 = true;
    }
  }(gpu, s, threw_blocks, threw_stream));
  env.Run();
  EXPECT_TRUE(threw_blocks);
  EXPECT_TRUE(threw_stream);
}

// Property: the driver conserves work — total busy time equals the sum of
// all block executions divided by parallelism bounds; and per-job durations
// never exceed total busy.
class GpuConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GpuConservationTest, DurationsConsistent) {
  Environment env;
  Gpu gpu(env, SmallGpu(8, GetParam()));
  sim::Rng rng(GetParam());
  std::vector<StreamId> streams;
  for (int i = 0; i < 6; ++i) streams.push_back(gpu.CreateStream());
  for (int i = 0; i < 300; ++i) {
    const auto st = streams[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(streams.size()) - 1))];
    const JobId job = st % 3;
    env.Spawn([](Gpu& g, StreamId s, JobId j, std::int64_t blocks,
                 sim::Duration work) -> Task {
      co_await g.Submit(
          s, KernelDesc{.job = j, .thread_blocks = blocks, .block_work = work});
    }(gpu, st, job, rng.UniformInt(1, 20),
      Duration::Micros(rng.UniformInt(1, 50))));
  }
  env.Run();
  const Duration total = gpu.TotalBusy();
  Duration sum_jobs = Duration::Zero();
  for (JobId j = 0; j < 3; ++j) {
    EXPECT_LE(gpu.JobGpuDuration(j), total);
    sum_jobs += gpu.JobGpuDuration(j);
  }
  // Jobs can overlap spatially, so the union-sum can exceed total busy, but
  // never by more than the parallelism factor.
  EXPECT_GE(sum_jobs, total);
  EXPECT_LE(gpu.MeanSlotOccupancy(), 1.0 + 1e-9);
  EXPECT_EQ(gpu.kernels_completed(), 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuConservationTest,
                         ::testing::Values(1, 2, 3, 10, 77));

TEST(GpuTest, ArbitrationBiasSkewsServiceOrder) {
  // With a strong persistent bias, long-run service shares across streams
  // become unequal — the Figure-3 mechanism. We compare the completion
  // counts of two streams fed identical open queues.
  Environment env;
  Gpu::Options o = SmallGpu(4, /*seed=*/9);
  o.arbitration_bias_sigma = 0.8;
  Gpu gpu(env, o);
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  int done1 = 0, done2 = 0;
  // Keep each stream's queue backlogged (several producers per stream) so
  // both streams are always ready and the biased pick matters.
  auto feeder = [](Gpu& g, StreamId st, int& done) -> Task {
    for (int i = 0; i < 50; ++i) {
      co_await g.Submit(st, KernelDesc{.job = st, .thread_blocks = 4,
                                       .block_work = Duration::Micros(10)});
      ++done;
    }
  };
  for (int p = 0; p < 4; ++p) {
    env.Spawn(feeder(gpu, s1, done1));
    env.Spawn(feeder(gpu, s2, done2));
  }
  // Stop mid-flight and compare progress.
  env.RunUntil(TimePoint() + Duration::Millis(2));
  EXPECT_GT(done1 + done2, 50);
  EXPECT_NE(done1, done2);  // biased arbitration: unequal progress
  env.Run();
  EXPECT_EQ(done1, 200);
  EXPECT_EQ(done2, 200);
}

TEST(GpuTest, ZeroBiasKeepsServiceBalanced) {
  Environment env;
  Gpu::Options o = SmallGpu(4, /*seed=*/9);
  o.arbitration_bias_sigma = 0.0;
  Gpu gpu(env, o);
  auto s1 = gpu.CreateStream();
  auto s2 = gpu.CreateStream();
  int done1 = 0, done2 = 0;
  auto feeder = [](Gpu& g, StreamId st, int& done) -> Task {
    for (int i = 0; i < 200; ++i) {
      co_await g.Submit(st, KernelDesc{.job = st, .thread_blocks = 4,
                                       .block_work = Duration::Micros(10)});
      ++done;
    }
  };
  env.Spawn(feeder(gpu, s1, done1));
  env.Spawn(feeder(gpu, s2, done2));
  env.RunUntil(TimePoint() + Duration::Millis(2));
  EXPECT_NEAR(done1, done2, 12);  // burst-granular but unbiased
  env.Run();
}

TEST(GpuTest, ClockNoiseShiftsRuntimesAcrossInstances) {
  // Run-level clock noise: the same kernel takes a (slightly) different
  // time on two device instances with different seeds.
  auto run_one = [](std::uint64_t seed) {
    Environment env;
    Gpu::Options o;
    o.spec = GpuSpec{.name = "t", .num_sms = 4, .max_blocks_per_sm = 1,
                     .clock_scale = 1.0, .memory_mb = 100};
    o.clock_noise_sigma = 0.05;
    o.seed = seed;
    Gpu gpu(env, o);
    auto s = gpu.CreateStream();
    TimePoint done;
    env.Spawn(SubmitOne(gpu, env, s,
                        KernelDesc{.thread_blocks = 4,
                                   .block_work = Duration::Micros(100)},
                        done));
    env.Run();
    return done;
  };
  const auto a = run_one(1);
  const auto b = run_one(2);
  EXPECT_NE(a, b);
  // Bounded: within ~25% of nominal.
  EXPECT_GT(a, TimePoint() + Duration::Micros(75));
  EXPECT_LT(a, TimePoint() + Duration::Micros(135));
}

TEST(GpuTest, EnergyModelAccumulates) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  TimePoint done;
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.thread_blocks = 4,
                                 .block_work = Duration::Micros(1000)},
                      done));
  env.Run();
  // 1ms fully-busy, fully-occupied: idle + busy_extra + occupancy watts.
  const auto& spec = gpu.spec();
  const double expect_j = (spec.idle_watts + spec.busy_extra_watts +
                           spec.occupancy_watts) * 1e-3;
  EXPECT_NEAR(gpu.EnergyJoules(), expect_j, 0.05 * expect_j);
  EXPECT_GT(gpu.MeanPowerWatts(), spec.idle_watts);
}

TEST(GpuTest, RetiredJobMetersStayBoundedAtServingScale) {
  // ~100k short single-kernel jobs, retired as they finish. The live meter
  // table must stay bounded by the in-service job count (here: the batch
  // width), not by the total jobs ever served, and a retired job's
  // accumulated duration must remain queryable.
  Environment env;
  Gpu gpu(env, SmallGpu(8));
  auto s = gpu.CreateStream();
  constexpr JobId kJobs = 100000;
  constexpr JobId kBatch = 16;
  std::size_t max_live = 0;
  auto runner = [&](JobId first) -> Task {
    for (JobId j = first; j < first + kBatch && j < kJobs; ++j) {
      co_await gpu.Submit(s, KernelDesc{.job = j, .thread_blocks = 1,
                                        .block_work = Duration::Nanos(10)});
    }
  };
  for (JobId base = 0; base < kJobs; base += kBatch) {
    env.Spawn(runner(base));
    env.Run();
    max_live = std::max(max_live, gpu.live_job_meters());
    for (JobId j = base; j < base + kBatch && j < kJobs; ++j) gpu.RetireJob(j);
    max_live = std::max(max_live, gpu.live_job_meters());
  }
  EXPECT_EQ(gpu.kernels_completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_LE(max_live, static_cast<std::size_t>(kBatch));
  EXPECT_EQ(gpu.live_job_meters(), 0u);
  // Retired meters still answer JobGpuDuration.
  EXPECT_EQ(gpu.JobGpuDuration(0), Duration::Nanos(10));
  EXPECT_EQ(gpu.JobGpuDuration(kJobs - 1), Duration::Nanos(10));
  // Retiring is idempotent and tolerates unknown jobs.
  gpu.RetireJob(0);
  gpu.RetireJob(kJobs + 5);
  EXPECT_EQ(gpu.JobGpuDuration(0), Duration::Nanos(10));
}

TEST(GpuTest, RetireWhileResidentIsDeferredNoOp) {
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  TimePoint done;
  env.Spawn(SubmitOne(gpu, env, s,
                      KernelDesc{.job = 3, .thread_blocks = 4,
                                 .block_work = Duration::Micros(10)},
                      done));
  bool live_while_resident = false;
  auto mid = [&]() -> Task {
    co_await env.Delay(Duration::Micros(5));  // kernel in flight
    gpu.RetireJob(3);  // must not drop an in-service meter
    live_while_resident = gpu.live_job_meters() == 1;
  };
  env.Spawn(mid());
  env.Run();
  EXPECT_TRUE(live_while_resident);
  EXPECT_EQ(gpu.JobGpuDuration(3), Duration::Micros(10));
  gpu.RetireJob(3);
  EXPECT_EQ(gpu.live_job_meters(), 0u);
  EXPECT_EQ(gpu.JobGpuDuration(3), Duration::Micros(10));
}

TEST(GpuTest, EnqueueOnDownDeviceThrowsWithoutFailureFlag) {
  // Contract: with `failed_out == nullptr` a launch on a down device cannot
  // report the error through a flag, so Enqueue throws synchronously
  // instead of pretending the kernel was queued.
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  gpu.Reset(Duration::Millis(5));
  EXPECT_TRUE(gpu.down());
  const auto before = gpu.kernels_failed();
  EXPECT_THROW(gpu.Enqueue(s,
                           KernelDesc{.job = 0, .thread_blocks = 1,
                                      .block_work = Duration::Micros(1)},
                           {}, nullptr),
               KernelFailed);
  EXPECT_EQ(gpu.kernels_failed(), before + 1);
}

TEST(GpuTest, EnqueueOnDownDeviceReportsThroughFailureFlag) {
  // With a `failed_out` the same launch fails fast through the flag and the
  // waiter is resumed (asynchronously, preserving no-reentrancy), without
  // throwing.
  Environment env;
  Gpu gpu(env, SmallGpu(4));
  auto s = gpu.CreateStream();
  gpu.Reset(Duration::Millis(5));
  bool threw = false;
  TimePoint failed_at;
  auto submit = [&]() -> Task {
    try {
      co_await gpu.Submit(s, KernelDesc{.job = 0, .thread_blocks = 1,
                                        .block_work = Duration::Micros(1)});
    } catch (const KernelFailed&) {
      threw = true;
      failed_at = env.Now();
    }
  };
  env.Spawn(submit());
  env.Run();
  EXPECT_TRUE(threw);
  // Failed fast at submit time, not after the outage cleared.
  EXPECT_LT(failed_at, TimePoint() + Duration::Millis(5));
}

}  // namespace
}  // namespace olympian::gpusim
