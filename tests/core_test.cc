// Unit tests for Olympian's core: scheduling policies and the Algorithm-2
// scheduler (token mechanics, cost-based quanta, cooperative yield).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policy.h"
#include "core/scheduler.h"
#include "gpusim/gpu.h"
#include "graph/cost_model.h"
#include "sim/environment.h"

namespace olympian::core {
namespace {

using gpusim::JobId;
using gpusim::kNoJob;
using sim::Duration;
using sim::Environment;
using sim::Task;

graph::JobContext MakeCtx(JobId id, int weight = 1, int priority = 0) {
  graph::JobContext ctx;
  ctx.job = id;
  ctx.model_key = "m@1";
  ctx.weight = weight;
  ctx.priority = priority;
  return ctx;
}

std::vector<JobEntry> Entries(std::vector<graph::JobContext*> ctxs) {
  std::vector<JobEntry> out;
  for (auto* c : ctxs) out.push_back(JobEntry{c->job, c, 1.0, 0});
  return out;
}

TEST(FairPolicyTest, RoundRobinCycle) {
  FairPolicy p;
  auto c0 = MakeCtx(0), c1 = MakeCtx(1), c2 = MakeCtx(2);
  auto jobs = Entries({&c0, &c1, &c2});
  EXPECT_EQ(p.NextJob(jobs, kNoJob), 0);
  EXPECT_EQ(p.NextJob(jobs, 0), 1);
  EXPECT_EQ(p.NextJob(jobs, 1), 2);
  EXPECT_EQ(p.NextJob(jobs, 2), 0);
}

TEST(FairPolicyTest, EmptyReturnsNoJob) {
  FairPolicy p;
  std::vector<JobEntry> jobs;
  EXPECT_EQ(p.NextJob(jobs, kNoJob), kNoJob);
}

TEST(FairPolicyTest, DepartedCurrentAdvancesFromStart) {
  FairPolicy p;
  auto c1 = MakeCtx(1), c2 = MakeCtx(2);
  auto jobs = Entries({&c1, &c2});
  // current=7 is no longer registered -> treated like "before the start".
  EXPECT_EQ(p.NextJob(jobs, 7), 1);
}

TEST(WeightedFairPolicyTest, WeightGivesConsecutiveQuanta) {
  WeightedFairPolicy p;
  auto c0 = MakeCtx(0, /*weight=*/2), c1 = MakeCtx(1, /*weight=*/1);
  auto jobs = Entries({&c0, &c1});
  // Sequence of quantum expirations: job 0 holds twice, job 1 once, repeat.
  std::vector<JobId> seq;
  JobId cur = p.NextJob(jobs, kNoJob);
  seq.push_back(cur);
  for (int i = 0; i < 5; ++i) {
    cur = p.NextJob(jobs, cur);
    seq.push_back(cur);
  }
  EXPECT_EQ(seq, (std::vector<JobId>{0, 0, 1, 0, 0, 1}));
}

TEST(WeightedFairPolicyTest, WeightOneDegeneratesToFair) {
  WeightedFairPolicy p;
  auto c0 = MakeCtx(0, 1), c1 = MakeCtx(1, 1);
  auto jobs = Entries({&c0, &c1});
  JobId cur = p.NextJob(jobs, kNoJob);
  EXPECT_EQ(cur, 0);
  EXPECT_EQ(p.NextJob(jobs, 0), 1);
  EXPECT_EQ(p.NextJob(jobs, 1), 0);
}

TEST(PriorityPolicyTest, HighestPriorityWins) {
  PriorityPolicy p;
  auto c0 = MakeCtx(0, 1, /*priority=*/1);
  auto c1 = MakeCtx(1, 1, /*priority=*/5);
  auto c2 = MakeCtx(2, 1, /*priority=*/3);
  auto jobs = Entries({&c0, &c1, &c2});
  EXPECT_EQ(p.NextJob(jobs, kNoJob), 1);
  EXPECT_EQ(p.NextJob(jobs, 1), 1);  // stays with the top job
}

TEST(PriorityPolicyTest, EqualPriorityRoundRobins) {
  PriorityPolicy p;
  auto c0 = MakeCtx(0, 1, 5), c1 = MakeCtx(1, 1, 5), c2 = MakeCtx(2, 1, 0);
  auto jobs = Entries({&c0, &c1, &c2});
  EXPECT_EQ(p.NextJob(jobs, 0), 1);
  EXPECT_EQ(p.NextJob(jobs, 1), 0);
}

TEST(MakePolicyTest, FactoryNamesWork) {
  EXPECT_EQ(MakePolicy("fair")->name(), "fair");
  EXPECT_EQ(MakePolicy("weighted-fair")->name(), "weighted-fair");
  EXPECT_EQ(MakePolicy("priority")->name(), "priority");
  EXPECT_THROW(MakePolicy("edf"), std::invalid_argument);
  EXPECT_THROW(MakePolicy("lottery"), std::invalid_argument);
  EXPECT_THROW(MakePolicy("reservation"), std::invalid_argument);
}

// --- Scheduler unit tests (hooks driven manually) ------------------------

struct SchedFixture {
  explicit SchedFixture(std::unique_ptr<SchedulingPolicy> policy,
                        Scheduler::Options opts = {})
      : gpu(env, gpusim::Gpu::Options{.arbitration_bias_sigma = 0, .seed = 1}),
        sched(env, gpu, std::move(policy), opts) {
    // A flat profile: every node costs 100 cost units.
    profile.Resize(16);
    for (int i = 0; i < 16; ++i) profile.RecordNodeCost(i, 100.0);
    profile.gpu_duration = Duration::Millis(1);
    sched.SetProfile("m@1", &profile, 100.0);  // tests may overwrite
  }

  graph::Node FakeGpuNode(graph::NodeId id) {
    graph::Node n;
    n.id = id;
    n.device = graph::Device::kGpu;
    return n;
  }

  Environment env;
  gpusim::Gpu gpu;
  graph::CostProfile profile;
  Scheduler sched;
};

TEST(SchedulerTest, FirstRegistrationGetsToken) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 300.0);
  auto ctx = MakeCtx(0);
  EXPECT_EQ(f.sched.token(), kNoJob);
  f.sched.RegisterRun(ctx);
  EXPECT_EQ(f.sched.token(), 0);
  EXPECT_FALSE(f.sched.NeedsYield(ctx));
}

TEST(SchedulerTest, RegistrationWithoutProfileThrows) {
  SchedFixture f(std::make_unique<FairPolicy>());
  auto ctx = MakeCtx(0);
  ctx.model_key = "unprofiled-model@99";
  EXPECT_THROW(f.sched.RegisterRun(ctx), std::logic_error);
}

TEST(SchedulerTest, InvalidProfileRejected) {
  SchedFixture f(std::make_unique<FairPolicy>());
  EXPECT_THROW(f.sched.SetProfile("m@1", nullptr, 100.0),
               std::invalid_argument);
  EXPECT_THROW(f.sched.SetProfile("m@1", &f.profile, 0.0),
               std::invalid_argument);
}

TEST(SchedulerTest, QuantumExpiryRotatesToken) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 250.0);  // threshold: 2.5 nodes
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  EXPECT_EQ(f.sched.token(), 0);
  // Three completed nodes at cost 100 cross the 250 threshold.
  f.sched.OnNodeComputed(a, f.FakeGpuNode(0));
  f.sched.OnNodeComputed(a, f.FakeGpuNode(1));
  EXPECT_EQ(f.sched.token(), 0);
  f.sched.OnNodeComputed(a, f.FakeGpuNode(2));
  EXPECT_EQ(f.sched.token(), 1);
  EXPECT_NEAR(a.cumulated_cost, 50.0, 1e-9);  // 300 - 250 carried over
  EXPECT_EQ(f.sched.quanta_completed(), 1u);
}

TEST(SchedulerTest, CpuNodesDoNotAccrueCost) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 150.0);
  auto a = MakeCtx(0);
  f.sched.RegisterRun(a);
  graph::Node cpu;
  cpu.id = 0;
  cpu.device = graph::Device::kCpu;
  f.sched.OnNodeComputed(a, cpu);
  EXPECT_DOUBLE_EQ(a.cumulated_cost, 0.0);
}

TEST(SchedulerTest, DeregisterReleasesToken) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 250.0);
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  f.sched.DeregisterRun(a);
  EXPECT_EQ(f.sched.token(), 1);
  f.sched.DeregisterRun(b);
  EXPECT_EQ(f.sched.token(), kNoJob);
}

TEST(SchedulerTest, DeregisterWhileHoldingTokenRotatesToLiveJob) {
  // Regression: the departing job holds the token; rotation must land on a
  // still-registered job (never the departed one, never kNoJob while others
  // remain), with each departure counted as a switch.
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 1e9);  // no quantum expiry
  auto a = MakeCtx(0), b = MakeCtx(1), c = MakeCtx(2);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  f.sched.RegisterRun(c);
  ASSERT_EQ(f.sched.token(), 0);
  const auto switches_before = f.sched.switches();
  f.sched.DeregisterRun(a);  // holder departs
  EXPECT_EQ(f.sched.token(), 1);
  f.sched.DeregisterRun(b);  // new holder departs too
  EXPECT_EQ(f.sched.token(), 2);
  EXPECT_EQ(f.sched.switches(), switches_before + 2);
  f.sched.DeregisterRun(c);
  EXPECT_EQ(f.sched.token(), kNoJob);
}

TEST(SchedulerTest, CancelRunDeregistersAndRotates) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 1e9);
  auto a = MakeCtx(0), b = MakeCtx(1);
  graph::CancelToken tok;
  a.cancel = &tok;
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  ASSERT_EQ(f.sched.token(), 0);
  tok.Cancel(graph::CancelReason::kDeadline);
  f.sched.CancelRun(a);
  // The cancelled holder is gone and the token moved to the live job.
  EXPECT_EQ(f.sched.token(), 1);
  EXPECT_EQ(f.sched.cancellations(), 1u);
  // The executor's end-of-run DeregisterRun for the cancelled job must be a
  // safe no-op afterwards.
  f.sched.DeregisterRun(a);
  EXPECT_EQ(f.sched.token(), 1);
  f.sched.DeregisterRun(b);
  EXPECT_EQ(f.sched.token(), kNoJob);
}

TEST(SchedulerTest, CancelRunWakesSuspendedGangThreads) {
  // A cancelled gang suspended in Yield must wake, observe the token, and
  // drain — not hold its (pool) thread forever.
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 1e9);
  auto a = MakeCtx(0), b = MakeCtx(1);
  graph::CancelToken tok;
  b.cancel = &tok;
  f.sched.RegisterRun(a);  // a holds the token
  f.sched.RegisterRun(b);  // b's gang will suspend in Yield
  bool resumed = false;
  auto gang_thread = [&]() -> Task {
    co_await f.sched.Yield(b);
    resumed = true;
  };
  auto p = f.env.Spawn(gang_thread());
  f.env.RunUntil(sim::TimePoint() + Duration::Millis(1));
  ASSERT_FALSE(resumed);  // suspended: a still holds the token
  tok.Cancel(graph::CancelReason::kDeadline);
  f.sched.CancelRun(b);
  f.env.Run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(p.done());
  EXPECT_EQ(f.sched.token(), 0);  // a unaffected
}

TEST(SchedulerTest, YieldSuspendsUntilTokenGranted) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 200.0);
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);

  std::vector<int> order;
  f.env.Spawn([](SchedFixture& fx, graph::JobContext& ctx,
                 std::vector<int>& ord) -> Task {
    co_await fx.sched.Yield(ctx);  // b must wait for the token
    ord.push_back(1);
  }(f, b, order));
  f.env.Spawn([](SchedFixture& fx, graph::JobContext& ctx,
                 std::vector<int>& ord) -> Task {
    co_await fx.env.Delay(Duration::Millis(1));
    // Two nodes cross the 200 threshold -> token moves to b.
    fx.sched.OnNodeComputed(ctx, fx.FakeGpuNode(0));
    fx.sched.OnNodeComputed(ctx, fx.FakeGpuNode(1));
    ord.push_back(0);
  }(f, a, order));
  f.env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerTest, OverflowCostChargedToOriginalJob) {
  // A node completing after its job lost the token still bills that job
  // (paper Figure 15).
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 250.0);
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  f.sched.OnNodeComputed(a, f.FakeGpuNode(0));
  f.sched.OnNodeComputed(a, f.FakeGpuNode(1));
  f.sched.OnNodeComputed(a, f.FakeGpuNode(2));  // rotation, carry 50
  ASSERT_EQ(f.sched.token(), 1);
  // Overflow node of job a finishes while b holds the token.
  f.sched.OnNodeComputed(a, f.FakeGpuNode(3));
  EXPECT_NEAR(a.cumulated_cost, 150.0, 1e-9);
  EXPECT_EQ(f.sched.token(), 1);  // no rotation triggered by a
}

TEST(SchedulerTest, QuantumLogRecordsTenures) {
  SchedFixture f(std::make_unique<FairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 100.0);
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  f.sched.OnNodeComputed(a, f.FakeGpuNode(0));  // rotate to b
  f.sched.OnNodeComputed(b, f.FakeGpuNode(1));  // rotate to a
  ASSERT_GE(f.sched.quantum_log().size(), 2u);
  EXPECT_EQ(f.sched.quantum_log()[0].job, 0);
  EXPECT_EQ(f.sched.quantum_log()[1].job, 1);
  EXPECT_EQ(f.sched.quantum_log()[0].active_jobs, 2u);
}

TEST(SchedulerTest, WallClockModeRotatesOnTimer) {
  // Figure 19's ablation: with use_wall_clock the token moves after a fixed
  // CPU-time quantum regardless of GPU cost.
  Scheduler::Options opts;
  opts.use_wall_clock = true;
  opts.wall_quantum = Duration::Millis(2);
  SchedFixture f(std::make_unique<FairPolicy>(), opts);
  auto a = MakeCtx(0), b = MakeCtx(1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  EXPECT_EQ(f.sched.token(), 0);
  bool saw_b = false;
  f.env.Spawn([](SchedFixture& fx, bool& out) -> Task {
    co_await fx.env.Delay(Duration::Millis(3));
    out = fx.sched.token() == 1;
  }(f, saw_b));
  f.env.RunUntil(sim::TimePoint() + Duration::Millis(10));
  EXPECT_TRUE(saw_b);
}

// The wall timer re-arms every quantum: a zero quantum would re-arm at the
// same instant forever, a negative one in the past. Construction is enough
// to reject either; nothing runs.
TEST(SchedulerTest, WallClockModeRejectsNonPositiveQuantum) {
  Environment env;
  gpusim::Gpu gpu(env, gpusim::Gpu::Options{.seed = 1});
  for (const Duration quantum : {Duration::Zero(), Duration::Millis(-2)}) {
    Scheduler::Options opts;
    opts.use_wall_clock = true;
    opts.wall_quantum = quantum;
    EXPECT_THROW(Scheduler(env, gpu, std::make_unique<FairPolicy>(), opts),
                 std::invalid_argument)
        << sim::ToString(quantum);
  }
  // Cost-based accounting never reads the quantum.
  Scheduler::Options cost_based;
  cost_based.wall_quantum = Duration::Zero();
  EXPECT_NO_THROW(
      Scheduler(env, gpu, std::make_unique<FairPolicy>(), cost_based));
}

TEST(SchedulerTest, WeightedPolicyIntegration) {
  SchedFixture f(std::make_unique<WeightedFairPolicy>());
  f.sched.SetProfile("m@1", &f.profile, 100.0);
  auto a = MakeCtx(0, /*weight=*/3), b = MakeCtx(1, /*weight=*/1);
  f.sched.RegisterRun(a);
  f.sched.RegisterRun(b);
  std::vector<JobId> tenure;
  graph::JobContext* holders[] = {&a, &b};
  for (int i = 0; i < 8; ++i) {
    tenure.push_back(f.sched.token());
    auto* h = holders[f.sched.token()];
    f.sched.OnNodeComputed(*h, f.FakeGpuNode(0));  // cost 100 = threshold
  }
  EXPECT_EQ(tenure, (std::vector<JobId>{0, 0, 0, 1, 0, 0, 0, 1}));
}

}  // namespace
}  // namespace olympian::core
