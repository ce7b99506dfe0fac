// Gray-failure robustness tests: fractional-capacity faults, latency-aware
// health scoring, hysteresis (no flapping), detection latency, and brownout
// admission control.
//
// A gray fault is one the device never announces: a capacity throttle or a
// jitter window stretches latencies silently, so every detection here must
// come from *measured* probe RTTs, not push-style listener signals. These
// tests pin the whole loop: injection (Gpu::ThrottleCapacity, server-level
// capacity loss / jitter), detection (HealthScore + hysteresis at the
// cluster router), and response (score-weighted routing, brownout shedding
// by priority class).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gpusim/gpu.h"
#include "serving/cluster.h"
#include "serving/health_score.h"
#include "sim/environment.h"

namespace olympian {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint At(double ms) { return TimePoint() + Duration::Millis(ms); }

// ---------------------------------------------------------------------------
// Injection: Gpu::ThrottleCapacity

sim::Task SubmitOne(gpusim::Gpu& gpu, sim::Environment& env,
                    gpusim::StreamId s, std::int64_t blocks, Duration work,
                    std::int64_t& done_ns) {
  co_await gpu.Submit(s, gpusim::KernelDesc{.job = 0,
                                            .thread_blocks = blocks,
                                            .block_work = work});
  done_ns = (env.Now() - TimePoint()).nanos();
}

gpusim::Gpu::Options PlainGpu() {
  gpusim::Gpu::Options o;
  o.spec = gpusim::GpuSpec{.name = "cap-test",
                           .num_sms = 8,
                           .max_blocks_per_sm = 1,
                           .clock_scale = 1.0,
                           .memory_mb = 1000};
  o.clock_noise_sigma = 0.0;
  o.seed = 3;
  return o;
}

TEST(GpuCapacityTest, ThrottleStretchesKernelDurations) {
  sim::Environment env;
  gpusim::Gpu gpu(env, PlainGpu());
  const auto s = gpu.CreateStream();
  gpu.ThrottleCapacity(0.25, Duration::Millis(10));
  std::int64_t done = -1;
  // 1 block of 100us at quarter speed: 400us.
  env.Spawn(SubmitOne(gpu, env, s, 1, Duration::Micros(100), done));
  env.Run();
  EXPECT_EQ(done, Duration::Micros(400).nanos());
}

TEST(GpuCapacityTest, DispatchTimeSemanticsHoldAcrossWindowClose) {
  // A wave keeps the duration computed at issue even if the window closes
  // mid-flight (the throttled clock plan was already committed): issued at
  // t=0 under capacity 0.5, a 100us kernel finishes at 200us although the
  // window ends at 50us.
  sim::Environment env;
  gpusim::Gpu gpu(env, PlainGpu());
  const auto s = gpu.CreateStream();
  gpu.ThrottleCapacity(0.5, Duration::Micros(50));
  std::int64_t done = -1;
  env.Spawn(SubmitOne(gpu, env, s, 1, Duration::Micros(100), done));
  env.Run();
  EXPECT_EQ(done, Duration::Micros(200).nanos());
}

TEST(GpuCapacityTest, WindowsMergeMinCapacityMaxDeadline) {
  sim::Environment env;
  gpusim::Gpu gpu(env, PlainGpu());
  gpu.ThrottleCapacity(0.5, Duration::Millis(1));
  gpu.ThrottleCapacity(0.8, Duration::Millis(2));  // overlaps: min wins
  EXPECT_DOUBLE_EQ(gpu.CapacityAt(TimePoint() + Duration::Micros(1500)), 0.5);
  EXPECT_DOUBLE_EQ(gpu.CapacityAt(TimePoint() + Duration::Millis(3)), 1.0);
  EXPECT_DOUBLE_EQ(gpu.CapacityAt(env.Now()), 0.5);
}

TEST(GpuCapacityTest, RejectsOutOfRangeCapacity) {
  sim::Environment env;
  gpusim::Gpu gpu(env, PlainGpu());
  EXPECT_THROW(gpu.ThrottleCapacity(0.0, Duration::Millis(1)),
               std::invalid_argument);
  EXPECT_THROW(gpu.ThrottleCapacity(-0.5, Duration::Millis(1)),
               std::invalid_argument);
  EXPECT_THROW(gpu.ThrottleCapacity(1.5, Duration::Millis(1)),
               std::invalid_argument);
}

TEST(GrayFailureTest, ServerPlanRejectsOutOfRangeGrayFaults) {
  fault::FaultPlan plan;
  for (const double capacity : {0.0, 1.5, std::nan("")}) {
    EXPECT_THROW(plan.CapacityLoss(At(1), Duration::Millis(1), 0, capacity),
                 std::invalid_argument)
        << capacity;
  }
  // A factor below 1 would undercut the network-delay lookahead; a NaN one
  // would scale every hop to NaN.
  for (const double factor : {0.5, std::nan("")}) {
    EXPECT_THROW(plan.Jitter(At(1), Duration::Millis(1), 0, factor),
                 std::invalid_argument)
        << factor;
  }
  // A negative window would end before it starts and run the virtual clock
  // backwards, whichever adder set it.
  const Duration minus = Duration::Millis(-20);
  EXPECT_THROW(plan.Crash(At(1), minus, 0), std::invalid_argument);
  EXPECT_THROW(
      plan.Partition(At(1), minus, 0, fault::PartitionDirection::kToServer),
      std::invalid_argument);
  EXPECT_THROW(plan.CapacityLoss(At(1), minus, 0, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.Jitter(At(1), minus, 0, 2.0), std::invalid_argument);
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.Jitter(At(1), Duration::Millis(1), 0, 1.0));
  // A zero window is an instant fault, as before.
  EXPECT_NO_THROW(plan.Crash(At(1), Duration::Zero(), 0));
}

// ---------------------------------------------------------------------------
// HealthScore unit behaviour

TEST(HealthScoreTest, ScoreTracksRttInflationAndRecovers) {
  serving::HealthScore score;
  // Learn a 1ms baseline.
  for (int i = 0; i < serving::kBaselineProbes; ++i) {
    score.OnProbe(true, Duration::Millis(1));
  }
  EXPECT_DOUBLE_EQ(score.score(), 1.0);
  // A sustained 4x slowdown drives the RTT term toward 0.25: with no
  // errors the score is kRttWeight / slowdown + (1 - kRttWeight), so a
  // slowdown above 3.5 reads below this bound.
  for (int i = 0; i < 30; ++i) score.OnProbe(true, Duration::Millis(4));
  EXPECT_LT(score.score(), serving::kDegradeBelow);
  EXPECT_LT(score.score(),
            serving::kRttWeight / 3.5 + (1.0 - serving::kRttWeight));
  // Recovery: RTTs return to baseline, the EWMA follows.
  for (int i = 0; i < 30; ++i) score.OnProbe(true, Duration::Millis(1));
  EXPECT_GT(score.score(), serving::kRecoverAbove);
  // Reset forgets the baseline entirely: probes at a new, 4x slower RTT
  // become the new normal and read nominal.
  score.Reset();
  for (int i = 0; i < serving::kBaselineProbes; ++i) {
    score.OnProbe(true, Duration::Millis(4));
  }
  EXPECT_DOUBLE_EQ(score.score(), 1.0);
}

TEST(HealthScoreTest, FailuresDriveErrorTermWithoutRtt) {
  serving::HealthScore score;
  for (int i = 0; i < 20; ++i) score.OnProbe(false, Duration::Zero());
  // err term ~0: score collapses to roughly kRttWeight (RTT treated nominal
  // while unlearned).
  EXPECT_LT(score.score(), serving::kRttWeight + 0.01);
}

// ---------------------------------------------------------------------------
// Detection and response at the cluster router

int CountEdges(const std::vector<serving::HealthEdge>& log,
               std::size_t target, serving::Health from, serving::Health to) {
  int n = 0;
  for (const auto& t : log) {
    if (t.target == target && t.from == from && t.to == to) ++n;
  }
  return n;
}

serving::ClusterClientSpec PoissonClient(double rps, int requests,
                                         int priority = 0) {
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 8;
  c.request.num_batches = requests;
  c.request.priority = priority;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = rps;
  return c;
}

TEST(GrayFailureTest, RouterDetectsCapacityLossWithLatencyMetric) {
  serving::ClusterOptions opts;
  opts.num_servers = 2;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 9;
  opts.router.score.enabled = true;
  opts.faults.CapacityLoss(At(100), Duration::Millis(250), /*server=*/0, 0.25);
  serving::Cluster cluster(opts);
  const auto results = cluster.Run(
      std::vector<serving::ClusterClientSpec>(4, PoissonClient(20.0, 12)));

  EXPECT_EQ(cluster.counters().capacity_losses, 1u);
  EXPECT_GE(cluster.counters().score_degrade_events, 1u);
  EXPECT_GE(cluster.counters().score_recover_events, 1u);
  // Hysteresis: the 250ms window produces exactly one degrade episode.
  EXPECT_EQ(CountEdges(cluster.router().transitions(), 0,
                       serving::Health::kHealthy,
                       serving::Health::kDegraded),
            1);
  EXPECT_EQ(CountEdges(cluster.router().transitions(), 0,
                       serving::Health::kDegraded,
                       serving::Health::kHealthy),
            1);
  // Detection latency: armed at fault onset, consumed at the degrade edge.
  ASSERT_EQ(cluster.router().detection_latencies().size(), 1u);
  EXPECT_GT(cluster.router().detection_latencies()[0], Duration::Zero());
  EXPECT_LT(cluster.router().detection_latencies()[0], Duration::Millis(250));
  // The server never went down — a gray fault, not an outage.
  EXPECT_EQ(cluster.counters().server_down_events, 0u);
  for (const auto& r : results) EXPECT_EQ(r.requests_completed, 12) << r.name;
}

TEST(GrayFailureTest, RouterDetectsJitterWindow) {
  serving::ClusterOptions opts;
  opts.num_servers = 2;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 10;
  opts.router.score.enabled = true;
  // 6x hop stretch: probe RTT goes 1.4ms -> 3.4ms, score ~0.66 < 0.70.
  opts.faults.Jitter(At(100), Duration::Millis(250), /*server=*/0, 6.0);
  serving::Cluster cluster(opts);
  const auto results = cluster.Run(
      std::vector<serving::ClusterClientSpec>(4, PoissonClient(20.0, 12)));

  EXPECT_EQ(cluster.counters().jitter_windows, 1u);
  EXPECT_GE(cluster.counters().score_degrade_events, 1u);
  ASSERT_GE(cluster.router().detection_latencies().size(), 1u);
  EXPECT_GT(cluster.router().detection_latencies()[0], Duration::Zero());
  // Jitter delays but never drops: every request still completes.
  for (const auto& r : results) EXPECT_EQ(r.requests_completed, 12) << r.name;
}

TEST(GrayFailureTest, BrownoutShedsLowestClassFirstAndRestores) {
  serving::ClusterOptions opts;
  opts.num_servers = 2;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 12;
  opts.router.score.enabled = true;
  opts.router.brownout.enabled = true;
  opts.router.brownout.enter_below = 0.80;
  opts.router.brownout.exit_above = 0.90;
  // Both servers throttled to quarter speed: aggregate capacity ~0.5 falls
  // below enter_below, brownout sheds priority class 0 (class 1, the top
  // class, may never be shed), and restores once the windows close and the
  // scores recover.
  opts.faults.CapacityLoss(At(100), Duration::Millis(300), /*server=*/0, 0.25);
  opts.faults.CapacityLoss(At(100), Duration::Millis(300), /*server=*/1, 0.25);
  serving::Cluster cluster(opts);
  const auto results = cluster.Run({PoissonClient(25.0, 20, /*priority=*/0),
                                    PoissonClient(25.0, 20, /*priority=*/0),
                                    PoissonClient(25.0, 20, /*priority=*/1),
                                    PoissonClient(25.0, 20, /*priority=*/1)});

  EXPECT_GE(cluster.counters().brownout_entries, 1u);
  EXPECT_GE(cluster.counters().brownout_exits, 1u);
  EXPECT_GT(cluster.counters().requests_shed_brownout, 0u);
  // Every attempted request ends in one counted outcome, sheds included.
  EXPECT_EQ(cluster.counters().requests_total(), 80u);
  EXPECT_EQ(cluster.router().brownout_level(), 0) << "restored by run end";
  // Shedding is strictly class-ordered: every brownout rejection landed on
  // the priority-0 clients; the top class was never shed.
  int low_rejected = 0;
  int high_rejected = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int rejected =
        results[i].CountStatus(serving::RequestStatus::kRejected);
    (i < 2 ? low_rejected : high_rejected) += rejected;
  }
  EXPECT_GT(low_rejected, 0);
  EXPECT_EQ(high_rejected, 0);
}

// The router needs 0 < enter_below < exit_above <= 1. A NaN exit_above
// used to pass the check, and then the shed level could never fall: no
// score is >= NaN.
TEST(GrayFailureTest, BrownoutRejectsThresholdsOutsideItsRange) {
  const double nan = std::nan("");
  const std::pair<double, double> bad[] = {
      {0.8, 0.6}, {0.7, 0.7}, {0.6, 1.5}, {0.0, 0.8}, {nan, 0.8}, {0.6, nan}};
  for (const auto& [enter_below, exit_above] : bad) {
    serving::ClusterOptions opts;
    opts.router.score.enabled = true;
    opts.router.brownout.enabled = true;
    opts.router.brownout.enter_below = enter_below;
    opts.router.brownout.exit_above = exit_above;
    EXPECT_THROW(serving::Cluster{opts}, std::invalid_argument)
        << enter_below << " " << exit_above;
  }
  serving::ClusterOptions ok;
  ok.router.score.enabled = true;
  ok.router.brownout.enabled = true;
  ok.router.brownout.exit_above = 1.0;
  EXPECT_NO_THROW(serving::Cluster{ok});
}

// ---------------------------------------------------------------------------
// Random plans: gray faults ride the same seed-stable draw

TEST(GrayFailureTest, RandomPlansWithGrayFaultsAreSeedStable) {
  fault::FaultPlan::RandomOptions srv;
  srv.num_servers = 3;
  srv.expected_capacity_losses = 2.0;
  srv.expected_jitter = 2.0;
  const fault::FaultPlan sa = fault::FaultPlan::Random(srv, 78);
  const fault::FaultPlan sb = fault::FaultPlan::Random(srv, 78);
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_GT(sa.size(), 0u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa.events()[i].kind, sb.events()[i].kind);
    EXPECT_EQ(sa.events()[i].at, sb.events()[i].at);
    EXPECT_EQ(sa.events()[i].capacity, sb.events()[i].capacity);
    EXPECT_EQ(sa.events()[i].factor, sb.events()[i].factor);
  }
  for (const auto& e : sa.events()) {
    if (e.kind == fault::FaultKind::kJitter) {
      EXPECT_GE(e.factor, 1.0);
    } else {
      ASSERT_EQ(e.kind, fault::FaultKind::kCapacityLoss);
      EXPECT_GT(e.capacity, 0.0);
      EXPECT_LE(e.capacity, 1.0);
    }
  }
}

}  // namespace
}  // namespace olympian
