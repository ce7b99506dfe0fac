// Tests for the request batcher (serving/batcher.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "serving/batcher.h"
#include "serving/server.h"

namespace olympian::serving {
namespace {

using sim::Duration;
using sim::Task;

Batcher::Options SmallBatches() {
  Batcher::Options o;
  o.allowed_batch_sizes = {4, 8};
  o.batch_timeout = Duration::Millis(20);
  return o;
}

// Spawns `n` producers that each submit one item after `gap * index`.
void SpawnProducers(Experiment& exp, Batcher& batcher, int n, Duration gap,
                    std::vector<sim::Process>& procs) {
  for (int i = 0; i < n; ++i) {
    procs.push_back(exp.env().Spawn(
        [](sim::Environment& env, Batcher& b, Duration delay) -> Task {
          co_await env.Delay(delay);
          co_await b.Infer();
        }(exp.env(), batcher, gap * static_cast<double>(i)),
        "producer"));
  }
}

// A supervisor that closes the batcher once all producers joined.
sim::Task CloseWhenDone(Batcher& batcher, std::vector<sim::Process> procs) {
  for (auto& p : procs) co_await p.Join();
  batcher.Close();
}

TEST(BatcherTest, CoalescesSimultaneousRequestsIntoOneBatch) {
  Experiment exp(ServerOptions{});
  Batcher batcher(exp, "resnet-152", SmallBatches());
  std::vector<sim::Process> procs;
  SpawnProducers(exp, batcher, 4, Duration::Zero(), procs);
  exp.env().Spawn(CloseWhenDone(batcher, std::move(procs)), "supervisor");
  exp.FinishManualRun();
  EXPECT_EQ(batcher.items_served(), 4u);
  EXPECT_EQ(batcher.batches_executed(), 1u);
  EXPECT_DOUBLE_EQ(batcher.MeanBatchOccupancy(), 1.0);
}

TEST(BatcherTest, TimeoutFlushesPartialBatch) {
  Experiment exp(ServerOptions{});
  Batcher batcher(exp, "resnet-152", SmallBatches());
  std::vector<sim::Process> procs;
  SpawnProducers(exp, batcher, 2, Duration::Zero(), procs);
  exp.env().Spawn(CloseWhenDone(batcher, std::move(procs)), "supervisor");
  exp.FinishManualRun();
  // 2 items < max 8, flushed by the 20ms timeout, padded to 4.
  EXPECT_EQ(batcher.batches_executed(), 1u);
  EXPECT_EQ(batcher.items_served(), 2u);
  EXPECT_DOUBLE_EQ(batcher.MeanBatchOccupancy(), 0.5);
}

TEST(BatcherTest, FullBatchDispatchesBeforeTimeout) {
  Experiment exp(ServerOptions{});
  Batcher::Options o = SmallBatches();
  o.batch_timeout = Duration::Seconds(10);  // effectively never
  Batcher batcher(exp, "resnet-152", o);
  std::vector<sim::Process> procs;
  Duration latency;
  for (int i = 0; i < 8; ++i) {
    procs.push_back(exp.env().Spawn(
        [](Batcher& b, Duration& out) -> Task { co_await b.Infer(&out); }(
            batcher, latency),
        "producer"));
  }
  exp.env().Spawn(CloseWhenDone(batcher, std::move(procs)), "supervisor");
  exp.FinishManualRun();
  EXPECT_EQ(batcher.batches_executed(), 1u);
  // Dispatched at fill: request latency is execution time, nowhere near the
  // 10s timeout. (The virtual clock itself still drains the disarmed alarm.)
  EXPECT_LT(latency, Duration::Seconds(5));
}

TEST(BatcherTest, StaggeredArrivalsFormMultipleBatches) {
  Experiment exp(ServerOptions{});
  Batcher batcher(exp, "resnet-152", SmallBatches());
  std::vector<sim::Process> procs;
  // 16 producers spread over ~1.5s: several timeout-flushed batches.
  SpawnProducers(exp, batcher, 16, Duration::Millis(100), procs);
  exp.env().Spawn(CloseWhenDone(batcher, std::move(procs)), "supervisor");
  exp.FinishManualRun();
  EXPECT_EQ(batcher.items_served(), 16u);
  EXPECT_GE(batcher.batches_executed(), 2u);
  EXPECT_LE(batcher.batches_executed(), 16u);
}

TEST(BatcherTest, ReportsPerRequestLatency) {
  Experiment exp(ServerOptions{});
  Batcher batcher(exp, "resnet-152", SmallBatches());
  Duration latency;
  auto p = exp.env().Spawn(
      [](Batcher& b, Duration& out) -> Task { co_await b.Infer(&out); }(
          batcher, latency),
      "producer");
  exp.env().Spawn(CloseWhenDone(batcher, {p}), "supervisor");
  exp.FinishManualRun();
  // Latency includes the 20ms timeout wait plus execution.
  EXPECT_GT(latency, Duration::Millis(20));
}

TEST(BatcherTest, WorksUnderOlympianWithInterpolatedProfiles) {
  // The Figure-20 workflow: profiles for the allowed batch sizes come from
  // two measured sizes via linear regression.
  core::Profiler profiler;
  const auto p20 = profiler.ProfileModel("resnet-152", 20);
  const auto p60 = profiler.ProfileModel("resnet-152", 60);
  const auto p4 = core::Profiler::Interpolate(p20, p60, 4);
  const auto p8 = core::Profiler::Interpolate(p20, p60, 8);

  Experiment exp(ServerOptions{});
  core::Scheduler sched(exp.env(), exp.gpu(),
                        std::make_unique<core::FairPolicy>());
  const auto q = Duration::Micros(1200);
  sched.SetProfile(p4.key, &p4.cost, core::Profiler::ThresholdFor(p4, q));
  sched.SetProfile(p8.key, &p8.cost, core::Profiler::ThresholdFor(p8, q));
  exp.SetHooks(&sched);

  Batcher batcher(exp, "resnet-152", SmallBatches());
  std::vector<sim::Process> procs;
  SpawnProducers(exp, batcher, 12, Duration::Millis(5), procs);
  exp.env().Spawn(CloseWhenDone(batcher, std::move(procs)), "supervisor");
  exp.FinishManualRun();
  EXPECT_EQ(batcher.items_served(), 12u);
}

TEST(BatcherTest, RejectsBadOptions) {
  Experiment exp(ServerOptions{});
  const std::int64_t memory_mb = exp.gpu(0).memory_used_mb();
  const std::size_t jobs = exp.job_contexts().size();
  const std::vector<std::vector<int>> bad = {{}, {0}, {8, 4}, {64, 8}};
  for (const std::vector<int>& sizes : bad) {
    SCOPED_TRACE(::testing::PrintToString(sizes));
    Batcher::Options o;
    o.allowed_batch_sizes = sizes;
    EXPECT_THROW(Batcher(exp, "resnet-152", o), std::invalid_argument);
    // Rejected before its job exists: no job context, no device memory.
    EXPECT_EQ(exp.gpu(0).memory_used_mb(), memory_mb);
    EXPECT_EQ(exp.job_contexts().size(), jobs);
  }
  // A negative timeout would arm the batch alarm in the past.
  Batcher::Options late;
  late.batch_timeout = Duration::Millis(-1);
  EXPECT_THROW(Batcher(exp, "resnet-152", late), std::invalid_argument);
  EXPECT_EQ(exp.gpu(0).memory_used_mb(), memory_mb);
  EXPECT_EQ(exp.job_contexts().size(), jobs);
}

}  // namespace
}  // namespace olympian::serving
