// Gray-failure robustness tests: fractional-capacity faults, latency-aware
// health scoring, hysteresis (no flapping), detection latency, slowdown-
// triggered hedging, and brownout admission control.
//
// A gray fault is one the device never announces: a capacity throttle or a
// jitter window stretches latencies silently, so every detection here must
// come from *measured* probe RTTs, not push-style listener signals. These
// tests pin the whole loop: injection (Gpu::ThrottleCapacity, server-level
// capacity loss / jitter), detection (HealthScore + hysteresis at both the
// device monitor and the cluster router), and response (score-weighted
// routing, score-triggered hedging, brownout shedding by priority class).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gpusim/gpu.h"
#include "serving/cluster.h"
#include "serving/health.h"
#include "serving/health_score.h"
#include "serving/server.h"
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
  fault::ServerFaultPlan plan;
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
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.Jitter(At(1), Duration::Millis(1), 0, 1.0));
}

// ---------------------------------------------------------------------------
// HealthScore unit behaviour

TEST(HealthScoreTest, ScoreTracksRttInflationAndRecovers) {
  const serving::HealthScoreOptions o;  // the hysteresis thresholds
  serving::HealthScore score;
  // Learn a 1ms baseline.
  for (int i = 0; i < serving::kBaselineProbes; ++i) {
    score.OnProbe(true, Duration::Millis(1));
  }
  ASSERT_TRUE(score.baseline_learned());
  EXPECT_DOUBLE_EQ(score.score(), 1.0);
  // A sustained 4x slowdown drives the RTT term toward 0.25.
  for (int i = 0; i < 30; ++i) score.OnProbe(true, Duration::Millis(4));
  EXPECT_LT(score.score(), o.degrade_below);
  EXPECT_GT(score.slowdown(), 3.5);
  // Recovery: RTTs return to baseline, the EWMA follows.
  for (int i = 0; i < 30; ++i) score.OnProbe(true, Duration::Millis(1));
  EXPECT_GT(score.score(), o.recover_above);
  // Reset forgets the baseline entirely.
  score.Reset();
  EXPECT_FALSE(score.baseline_learned());
}

TEST(HealthScoreTest, FailuresDriveErrorTermWithoutRtt) {
  serving::HealthScore score;
  for (int i = 0; i < 20; ++i) score.OnProbe(false, Duration::Zero());
  // err term ~0: score collapses to roughly kRttWeight (RTT treated nominal
  // while unlearned).
  EXPECT_LT(score.score(), serving::kRttWeight + 0.01);
}

TEST(HealthScoreTest, ValidateRejectsBadKnobs) {
  serving::HealthScoreOptions o;
  o.enabled = true;
  o.degrade_below = 0.9;
  o.recover_above = 0.8;  // inverted hysteresis
  EXPECT_THROW(serving::Validate(o), std::invalid_argument);
  o = {};  // disabled: anything goes
  o.degrade_below = 2.0;
  EXPECT_NO_THROW(serving::Validate(o));
}

// ---------------------------------------------------------------------------
// Detection at the device monitor: capacity faults have no listener signal,
// so only the scored probe RTT can notice them.

serving::ServerOptions ScoredServer(int gpus) {
  serving::ServerOptions opts;
  opts.num_gpus = static_cast<std::size_t>(gpus);
  opts.failover.enabled = true;
  opts.failover.health.score.enabled = true;
  return opts;
}

// A sparse open-loop client: the device is mostly idle, so probe RTTs are
// stable and the score moves only when the capacity window opens.
std::vector<serving::ClientSpec> SparseWorkload(int requests) {
  return {serving::ClientSpec{.model = "googlenet",
                              .batch = 4,
                              .num_batches = requests,
                              .mean_interarrival = Duration::Millis(25)}};
}

int CountEdges(const std::vector<serving::HealthEdge>& log,
               std::size_t target, serving::Health from, serving::Health to) {
  int n = 0;
  for (const auto& t : log) {
    if (t.target == target && t.from == from && t.to == to) ++n;
  }
  return n;
}

TEST(GrayFailureTest, MonitorScoresCapacityFaultDegradedThenRecovers) {
  serving::ServerOptions opts = ScoredServer(1);
  // Quarter speed for 150ms starting at 100ms: the 20us probe kernel takes
  // 80us, the score EWMA sinks below degrade_below, and after the window
  // closes it climbs back above recover_above.
  opts.faults.CapacityFault(At(100), Duration::Millis(150), 0.25);
  serving::Experiment exp(opts);
  const auto results = exp.Run(SparseWorkload(30));

  EXPECT_EQ(exp.counters().capacity_fault_windows, 1u);
  ASSERT_NE(exp.health(), nullptr);
  // Hysteresis means no flapping: exactly one degrade edge and one recover
  // edge for the whole episode, even though dozens of probes straddle the
  // score thresholds.
  EXPECT_EQ(CountEdges(exp.health()->transitions(), 0,
                       serving::Health::kHealthy,
                       serving::Health::kDegraded),
            1);
  EXPECT_EQ(CountEdges(exp.health()->transitions(), 0,
                       serving::Health::kDegraded,
                       serving::Health::kHealthy),
            1);
  EXPECT_EQ(exp.health()->health(0), serving::Health::kHealthy);
  EXPECT_GT(exp.health()->score(0), 0.85);
  // The gray window never killed the device: no down events, no MTTR.
  EXPECT_EQ(exp.counters().device_down_events, 0u);
  // Work still completed (slower, but nothing lost).
  EXPECT_EQ(results[0].batches_completed, 30);
}

TEST(GrayFailureTest, EscalationUnderSustainedFaultYieldsOneMttrIncident) {
  // A capacity fault degrades the device via the score; a device reset in
  // the middle of the window escalates degraded -> down. Recovery then
  // readmits exactly once, at about 270ms, while the window is still open.
  // The Reset() of the score at readmission re-learns the baseline at the
  // throttled speed, so the stale error/RTT EWMA cannot re-degrade it.
  serving::ServerOptions opts = ScoredServer(2);
  opts.faults.CapacityFault(At(100), Duration::Millis(300), 0.25);
  opts.faults.DeviceReset(At(160), Duration::Millis(80), /*gpu_index=*/0);
  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{.model = "googlenet",
                           .batch = 4,
                           .num_batches = 40,
                           .mean_interarrival = Duration::Millis(20)},
       serving::ClientSpec{.model = "googlenet",
                           .batch = 4,
                           .num_batches = 40,
                           .mean_interarrival = Duration::Millis(20)}});

  ASSERT_NE(exp.health(), nullptr);
  EXPECT_EQ(exp.counters().device_down_events, 1u);
  ASSERT_EQ(exp.health()->outages().size(), 1u) << "one episode, one incident";
  EXPECT_EQ(exp.health()->outages()[0].target, 0u);
  // The degraded -> down edge exists in the log (score first, then reset).
  EXPECT_EQ(CountEdges(exp.health()->transitions(), 0,
                       serving::Health::kDegraded,
                       serving::Health::kDown),
            1);
  // The score degraded the device once, before the reset, and never again.
  EXPECT_EQ(CountEdges(exp.health()->transitions(), 0,
                       serving::Health::kHealthy,
                       serving::Health::kDegraded),
            1);
  EXPECT_EQ(exp.health()->health(0), serving::Health::kHealthy);
  for (const auto& r : results) EXPECT_EQ(r.batches_completed, 40) << r.name;
}

TEST(GrayFailureTest, ScoreTriggeredHedgingFiresBeforeDegradedBit) {
  // Thresholds parked low so the throttled device STAYS score-healthy: the
  // binary bit never trips, only the measured score sags — and the hedge
  // keys on the score, so it must still fire.
  serving::ServerOptions opts = ScoredServer(2);
  opts.failover.health.score.degrade_below = 0.10;
  opts.failover.health.score.recover_above = 0.20;
  opts.failover.hedge_when_degraded = false;
  opts.failover.hedge_below_score = 0.95;
  opts.faults.CapacityFault(At(100), Duration::Millis(300), 0.25);
  serving::Experiment exp(opts);
  exp.Run({serving::ClientSpec{.model = "googlenet",
                               .batch = 4,
                               .num_batches = 30,
                               .mean_interarrival = Duration::Millis(15)},
           serving::ClientSpec{.model = "googlenet",
                               .batch = 4,
                               .num_batches = 30,
                               .mean_interarrival = Duration::Millis(15)}});

  ASSERT_NE(exp.health(), nullptr);
  EXPECT_EQ(CountEdges(exp.health()->transitions(), 0,
                       serving::Health::kHealthy,
                       serving::Health::kDegraded),
            0)
      << "thresholds were meant to keep the device score-healthy";
  EXPECT_GE(exp.counters().hedges_launched, 1u);
}

// ---------------------------------------------------------------------------
// Detection and response at the cluster router

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

// ---------------------------------------------------------------------------
// Random plans: gray faults ride the same seed-stable draw

TEST(GrayFailureTest, RandomPlansWithGrayFaultsAreSeedStable) {
  fault::FaultPlan::RandomOptions dev;
  dev.num_gpus = 2;
  dev.expected_capacity_faults = 3.0;
  const fault::FaultPlan a = fault::FaultPlan::Random(dev, 77);
  const fault::FaultPlan b = fault::FaultPlan::Random(dev, 77);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].capacity, b.events()[i].capacity);
  }
  for (const auto& e : a.events()) {
    ASSERT_EQ(e.kind, fault::FaultKind::kCapacityFault);
    EXPECT_GT(e.capacity, 0.0);
    EXPECT_LE(e.capacity, 1.0);
  }

  fault::ServerFaultPlan::RandomOptions srv;
  srv.num_servers = 3;
  srv.expected_capacity_losses = 2.0;
  srv.expected_jitter = 2.0;
  const fault::ServerFaultPlan sa = fault::ServerFaultPlan::Random(srv, 78);
  const fault::ServerFaultPlan sb = fault::ServerFaultPlan::Random(srv, 78);
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_GT(sa.size(), 0u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa.events()[i].kind, sb.events()[i].kind);
    EXPECT_EQ(sa.events()[i].at, sb.events()[i].at);
    EXPECT_EQ(sa.events()[i].capacity, sb.events()[i].capacity);
    EXPECT_EQ(sa.events()[i].factor, sb.events()[i].factor);
  }
  for (const auto& e : sa.events()) {
    if (e.kind == fault::ServerFaultKind::kJitter) {
      EXPECT_GE(e.factor, 1.0);
    } else {
      ASSERT_EQ(e.kind, fault::ServerFaultKind::kCapacityLoss);
      EXPECT_GT(e.capacity, 0.0);
      EXPECT_LE(e.capacity, 1.0);
    }
  }
}

}  // namespace
}  // namespace olympian
