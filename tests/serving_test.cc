// Tests for the serving layer (Experiment harness) and the Olympian
// profiler, including cross-module integration.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "metrics/stats.h"
#include "serving/server.h"

namespace olympian::serving {
namespace {

using sim::Duration;

// Small/fast workloads: low batch, few batches.
ClientSpec SmallClient(const std::string& model = "resnet-152",
                       int batch = 20, int batches = 2) {
  return ClientSpec{.model = model, .batch = batch, .num_batches = batches};
}

TEST(ExperimentTest, SingleClientCompletes) {
  Experiment exp(ServerOptions{});
  auto results = exp.Run({SmallClient()});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].batches_completed, 2);
  EXPECT_GT(results[0].finish_time, Duration::Zero());
  EXPECT_GT(results[0].gpu_duration, Duration::Zero());
  EXPECT_EQ(exp.makespan(), results[0].finish_time);
  EXPECT_GT(exp.utilization(), 0.2);
}

TEST(ExperimentTest, JobMetersRetiredAfterRun) {
  // The serving layer retires every client job's meter when the client
  // drains, so long-lived servers don't accumulate one meter per job ever
  // served. (The probe/no-job meter is tracked separately and the retired
  // durations stay queryable — gpu_duration above proves that.)
  Experiment exp(ServerOptions{});
  std::vector<ClientSpec> clients(8, SmallClient());
  auto results = exp.Run(clients);
  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 2);
    EXPECT_GT(r.gpu_duration, Duration::Zero());
  }
  EXPECT_EQ(exp.gpu().live_job_meters(), 0u);
}

TEST(ExperimentTest, RunTwiceRejected) {
  Experiment exp(ServerOptions{});
  exp.Run({SmallClient()});
  EXPECT_THROW(exp.Run({SmallClient()}), std::logic_error);
}

// With no clients there is no last client to stop the failover health
// monitor's probe loops, so Run must stop them itself or never return.
TEST(ExperimentTest, EmptyWorkloadWithFailoverReturns) {
  ServerOptions opts;
  opts.failover.enabled = true;
  Experiment exp(opts);
  EXPECT_TRUE(exp.Run({}).empty());
}

TEST(ExperimentTest, ConcurrentClientsAllComplete) {
  Experiment exp(ServerOptions{});
  std::vector<ClientSpec> clients(4, SmallClient());
  auto results = exp.Run(clients);
  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 2);
    EXPECT_GT(r.finish_time, Duration::Zero());
  }
}

TEST(ExperimentTest, LargeBatchJobsGetNoSpatialMultiplexing) {
  // Paper §2.3: at production batch sizes kernels saturate the device, so
  // N concurrent identical jobs take ~N times as long as one.
  const auto client = SmallClient("resnet-152", 100, 1);
  Experiment exp(ServerOptions{});
  auto results = exp.Run(std::vector<ClientSpec>(4, client));
  Experiment solo(ServerOptions{});
  auto solo_results = solo.Run({client});
  EXPECT_GT(exp.makespan(), solo_results[0].finish_time * 3.2);
  EXPECT_LT(exp.makespan(), solo_results[0].finish_time * 4.8);
}

TEST(ExperimentTest, SameSeedReproduces) {
  ServerOptions opts;
  opts.seed = 1234;
  Experiment a(opts), b(opts);
  auto ra = a.Run({SmallClient(), SmallClient()});
  auto rb = b.Run({SmallClient(), SmallClient()});
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].finish_time, rb[i].finish_time);
    EXPECT_EQ(ra[i].gpu_duration, rb[i].gpu_duration);
  }
}

TEST(ExperimentTest, DifferentSeedDiffers) {
  ServerOptions a_opts, b_opts;
  a_opts.seed = 1;
  b_opts.seed = 2;
  Experiment a(a_opts), b(b_opts);
  auto ra = a.Run({SmallClient(), SmallClient()});
  auto rb = b.Run({SmallClient(), SmallClient()});
  EXPECT_NE(ra[0].finish_time, rb[0].finish_time);
}

TEST(ExperimentTest, OutOfMemoryWhenTooManyClients) {
  ServerOptions opts;
  opts.gpu.spec.memory_mb = 600;  // tiny device
  Experiment exp(opts);
  // resnet-152 params are 230 MB; activations 2.1/item * 100 = 210 MB each.
  std::vector<ClientSpec> clients(3, SmallClient("resnet-152", 100, 1));
  EXPECT_THROW(exp.Run(clients), gpusim::OutOfDeviceMemory);
}

TEST(ExperimentTest, TinyPoolStallsUnderOlympian) {
  // With hooks suspending gangs, a too-small pool deadlocks -> the server
  // reports ServerStalled (the §4.3 scaling limit). Stock TF-Serving with
  // the same pool completes.
  ServerOptions opts;
  opts.pool_threads = 2;

  Experiment base(opts);
  auto r = base.Run({SmallClient(), SmallClient()});
  EXPECT_EQ(r[0].batches_completed, 2);

  core::Profiler profiler;
  auto profile = profiler.ProfileModel("resnet-152", 20);
  Experiment oly(opts);
  core::Scheduler sched(oly.env(), oly.gpu(),
                        std::make_unique<core::FairPolicy>());
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(500)));
  oly.SetHooks(&sched);
  EXPECT_THROW(oly.Run({SmallClient(), SmallClient()}), ServerStalled);
}

TEST(ExperimentTest, AdmissionControlShedsInsteadOfStalling) {
  // The workload shape that stalls above (two Olympian gangs, two pool
  // threads). With a load-shedding watermark plus a deadline on the surplus
  // client the server completes: its requests are shed while the pool is
  // occupied (or cancelled if one wedges), and the other client finishes.
  ServerOptions opts;
  opts.pool_threads = 2;
  opts.degradation.admission_watermark = 0.5;

  core::Profiler profiler;
  auto profile = profiler.ProfileModel("resnet-152", 20);
  Experiment oly(opts);
  core::Scheduler sched(oly.env(), oly.gpu(),
                        std::make_unique<core::FairPolicy>());
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(500)));
  oly.SetHooks(&sched);

  ClientSpec surplus = SmallClient("resnet-152", 20, 6);
  surplus.deadline = Duration::Millis(1);
  auto results = oly.Run({SmallClient(), surplus});  // no throw

  int ok = 0, rejected = 0;
  for (const auto& r : results) {
    ASSERT_EQ(r.request_status.size(), r.request_latency_ms.size());
    ok += r.CountStatus(RequestStatus::kOk);
    rejected += r.CountStatus(RequestStatus::kRejected);
  }
  EXPECT_EQ(results[0].batches_completed, 2);  // the steady client finishes
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);  // the surplus load is shed, not deadlocked
  // Every rejection came from admission control and is accounted for.
  const auto& c = oly.counters();
  EXPECT_EQ(c.requests_shed, c.requests_rejected);
  EXPECT_EQ(static_cast<std::uint64_t>(rejected), c.requests_rejected);
  EXPECT_EQ(static_cast<std::uint64_t>(ok), c.requests_ok);
}

TEST(ExperimentTest, UnknownModelRejected) {
  Experiment exp(ServerOptions{});
  EXPECT_THROW(exp.Run({SmallClient("not-a-model")}), std::out_of_range);
}

TEST(ExperimentTest, MalformedClientSpecRejectedBeforeLoading) {
  // Each bad field throws from AddTenant, naming the field, before the model
  // loads: no parameters or activation memory stay reserved and no job
  // context is left behind.
  const auto with = [](auto set) {
    ClientSpec spec = SmallClient("googlenet");
    set(spec);
    return spec;
  };
  const std::pair<const char*, ClientSpec> bad[] = {
      {"batch", with([](ClientSpec& c) { c.batch = 0; })},
      {"batch", with([](ClientSpec& c) { c.batch = -5; })},
      {"num_batches", with([](ClientSpec& c) { c.num_batches = -1; })},
      {"deadline",
       with([](ClientSpec& c) { c.deadline = Duration::Millis(-1); })},
  };
  for (const auto& [field, spec] : bad) {
    Experiment exp(ServerOptions{});
    try {
      exp.Run({spec});
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(exp.gpu().memory_used_mb(), 0) << field;
    EXPECT_EQ(exp.job_contexts().size(), 0u) << field;
  }
  // The bounds themselves are accepted: a client with no requests runs.
  Experiment exp(ServerOptions{});
  const auto results =
      exp.Run({with([](ClientSpec& c) { c.num_batches = 0; })});
  EXPECT_EQ(results[0].batches_completed, 0);
}

TEST(ExperimentTest, OpenLoopArrivalsRecordLatencies) {
  ServerOptions opts;
  Experiment exp(opts);
  auto spec = SmallClient("resnet-152", 20, 5);
  spec.mean_interarrival = sim::Duration::Millis(500);
  auto results = exp.Run({spec});
  ASSERT_EQ(results[0].request_latency_ms.size(), 5u);
  for (double l : results[0].request_latency_ms) EXPECT_GT(l, 0.0);
  // Light load: finish time is dominated by arrivals, so the makespan
  // exceeds the sum of pure service times.
  EXPECT_GT(results[0].finish_time, sim::Duration::Millis(800));
}

TEST(ExperimentTest, ClosedLoopAlsoRecordsLatencies) {
  Experiment exp(ServerOptions{});
  auto results = exp.Run({SmallClient("resnet-152", 20, 3)});
  ASSERT_EQ(results[0].request_latency_ms.size(), 3u);
}

// --- multi-GPU extension ---------------------------------------------------

TEST(MultiGpuTest, RoundRobinPlacement) {
  ServerOptions opts;
  opts.num_gpus = 2;
  Experiment exp(opts);
  auto results = exp.Run(std::vector<ClientSpec>(4, SmallClient()));
  EXPECT_EQ(results[0].gpu_index, 0u);
  EXPECT_EQ(results[1].gpu_index, 1u);
  EXPECT_EQ(results[2].gpu_index, 0u);
  EXPECT_EQ(results[3].gpu_index, 1u);
  for (const auto& r : results) EXPECT_EQ(r.batches_completed, 2);
}

TEST(MultiGpuTest, TwoGpusRoughlyHalveMakespan) {
  const auto client = SmallClient("resnet-152", 100, 1);
  ServerOptions one;
  one.seed = 5;
  Experiment e1(one);
  e1.Run(std::vector<ClientSpec>(4, client));

  ServerOptions two = one;
  two.num_gpus = 2;
  Experiment e2(two);
  e2.Run(std::vector<ClientSpec>(4, client));

  EXPECT_LT(e2.makespan(), e1.makespan() * 0.65);
  EXPECT_GT(e2.makespan(), e1.makespan() * 0.35);
}

TEST(MultiGpuTest, ParamsChargedPerDevice) {
  ServerOptions opts;
  opts.num_gpus = 2;
  Experiment exp(opts);
  exp.LoadModel("resnet-152", 0);
  exp.LoadModel("resnet-152", 0);  // idempotent per device
  exp.LoadModel("resnet-152", 1);
  const auto params = models::GetModel("resnet-152").params_mb;
  EXPECT_EQ(exp.gpu(0).memory_used_mb(), params);
  EXPECT_EQ(exp.gpu(1).memory_used_mb(), params);
}

TEST(MultiGpuTest, PerDeviceSchedulersIsolateIndependently) {
  core::Profiler profiler;
  auto profile = profiler.ProfileModel("resnet-152", 30);
  ServerOptions opts;
  opts.num_gpus = 2;
  Experiment exp(opts);
  core::Scheduler s0(exp.env(), exp.gpu(0),
                     std::make_unique<core::FairPolicy>());
  core::Scheduler s1(exp.env(), exp.gpu(1),
                     std::make_unique<core::FairPolicy>());
  const double t =
      core::Profiler::ThresholdFor(profile, sim::Duration::Micros(1200));
  s0.SetProfile(profile.key, &profile.cost, t);
  s1.SetProfile(profile.key, &profile.cost, t);
  exp.SetGpuHooks(0, &s0);
  exp.SetGpuHooks(1, &s1);
  auto results = exp.Run(
      std::vector<ClientSpec>(4, SmallClient("resnet-152", 30, 3)));
  // Both schedulers rotated tokens; clients on the same device finish
  // together.
  EXPECT_GT(s0.switches(), 10u);
  EXPECT_GT(s1.switches(), 10u);
  EXPECT_NEAR(results[0].finish_time.seconds(), results[2].finish_time.seconds(),
              0.05 * results[0].finish_time.seconds());
  EXPECT_NEAR(results[1].finish_time.seconds(), results[3].finish_time.seconds(),
              0.05 * results[1].finish_time.seconds());
}

TEST(MultiGpuTest, HooksAfterExecutorConstructionRejected) {
  ServerOptions opts;
  opts.num_gpus = 2;
  Experiment exp(opts);
  exp.executor(1);  // force construction
  core::Profiler profiler;
  EXPECT_THROW(exp.SetGpuHooks(1, nullptr), std::logic_error);
}

TEST(MultiGpuTest, InvalidGpuCountRejected) {
  ServerOptions opts;
  opts.num_gpus = 0;
  EXPECT_THROW(Experiment exp(opts), std::invalid_argument);

  // Hedging races a duplicate on another replica, so it needs the failover
  // placer. The error names the option and the fix.
  const auto message = [](const ServerOptions& o) -> std::string {
    try {
      Experiment exp(o);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  ServerOptions bit;
  bit.num_gpus = 2;
  bit.failover.hedge_when_degraded = true;
  EXPECT_NE(message(bit).find("hedge_when_degraded"), std::string::npos);
  EXPECT_NE(message(bit).find("failover.enabled"), std::string::npos);
}

// --- Profiler -------------------------------------------------------------

TEST(ProfilerTest, ProfileHasPositiveCostAndDuration) {
  core::Profiler profiler;
  auto p = profiler.ProfileModel("resnet-152", 20);
  EXPECT_EQ(p.key, "resnet-152@20");
  EXPECT_GT(p.TotalCost(), 0.0);
  EXPECT_GT(p.GpuDuration(), Duration::Zero());
  EXPECT_GT(p.cost.solo_runtime, p.GpuDuration() * 0.5);
  EXPECT_GT(p.CostAccumulationRate(), 0.9);
}

TEST(ProfilerTest, ProfileIsDeterministic) {
  core::Profiler profiler;
  auto a = profiler.ProfileModel("resnet-152", 20);
  auto b = profiler.ProfileModel("resnet-152", 20);
  EXPECT_EQ(a.TotalCost(), b.TotalCost());
  EXPECT_EQ(a.GpuDuration(), b.GpuDuration());
}

TEST(ProfilerTest, CostAndDurationStableAcrossRuns) {
  // Paper §4.4: total cost and GPU duration are stable across executions
  // (their stddevs are ~2.5% and ~1.7% of the mean).
  core::ProfilerOptions opts;
  opts.profile_runs = 1;
  metrics::Series costs, durations;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    opts.seed = seed;
    core::Profiler profiler(opts);
    auto p = profiler.ProfileModel("resnet-152", 20);
    costs.Add(p.TotalCost());
    durations.AddDuration(p.GpuDuration());
  }
  EXPECT_LT(costs.Cv(), 0.05);
  EXPECT_LT(durations.Cv(), 0.05);
}

TEST(ProfilerTest, ThresholdMatchesFormula) {
  // T_j = Q * C_j / D_j (paper §3.2).
  core::Profiler profiler;
  auto p = profiler.ProfileModel("resnet-152", 20);
  const auto q = Duration::Micros(1000);
  const double t = core::Profiler::ThresholdFor(p, q);
  EXPECT_NEAR(t, 1e6 * p.TotalCost() /
                     static_cast<double>(p.GpuDuration().nanos()),
              1e-6 * t);
}

TEST(ProfilerTest, SelectQPicksToleranceCrossing) {
  core::ModelProfile p;
  p.key = "x@1";
  p.overhead_q = {{Duration::Micros(200), 0.10},
                  {Duration::Micros(400), 0.05},
                  {Duration::Micros(800), 0.01}};
  // Tolerance 0.05 hits the second point exactly.
  EXPECT_EQ(core::Profiler::SelectQ({&p}, 0.05), Duration::Micros(400));
  // Tolerance 0.03 interpolates between 400 and 800.
  const auto q = core::Profiler::SelectQ({&p}, 0.03);
  EXPECT_GT(q, Duration::Micros(400));
  EXPECT_LT(q, Duration::Micros(800));
  // Unattainable tolerance falls back to the largest swept Q.
  EXPECT_EQ(core::Profiler::SelectQ({&p}, 0.001), Duration::Micros(800));
}

TEST(ProfilerTest, SelectQTakesMaxAcrossModels) {
  core::ModelProfile a, b;
  a.key = "a@1";
  a.overhead_q = {{Duration::Micros(200), 0.01}};
  b.key = "b@1";
  b.overhead_q = {{Duration::Micros(200), 0.10},
                  {Duration::Micros(900), 0.01}};
  // b's curve crosses the 2.5% tolerance at 200 + 700*(7.5/9) = 783.3us;
  // the selection takes the max over models.
  const auto q = core::Profiler::SelectQ({&a, &b}, 0.025);
  EXPECT_GT(q, Duration::Micros(780));
  EXPECT_LT(q, Duration::Micros(790));
}

TEST(ProfilerTest, SelectQRequiresCurves) {
  core::ModelProfile p;
  p.key = "x@1";
  EXPECT_THROW(core::Profiler::SelectQ({&p}, 0.025), std::logic_error);
  EXPECT_THROW(core::Profiler::SelectQ({}, 0.025), std::invalid_argument);
}

TEST(ProfilerTest, InterpolateProducesInBetweenProfile) {
  core::Profiler profiler;
  auto p20 = profiler.ProfileModel("resnet-152", 20);
  auto p60 = profiler.ProfileModel("resnet-152", 60);
  auto p40 = core::Profiler::Interpolate(p20, p60, 40);
  EXPECT_EQ(p40.key, "resnet-152@40");
  EXPECT_GT(p40.TotalCost(), p20.TotalCost());
  EXPECT_LT(p40.TotalCost(), p60.TotalCost());
  EXPECT_GT(p40.GpuDuration(), p20.GpuDuration());
  EXPECT_LT(p40.GpuDuration(), p60.GpuDuration());
  // And it extrapolates.
  auto p80 = core::Profiler::Interpolate(p20, p60, 80);
  EXPECT_GT(p80.TotalCost(), p60.TotalCost());
}

TEST(ProfilerTest, InterpolateRejectsBadInput) {
  core::ModelProfile a, b;
  a.model = "x";
  b.model = "y";
  EXPECT_THROW(core::Profiler::Interpolate(a, b, 10), std::invalid_argument);
  b.model = "x";
  a.batch = b.batch = 50;
  EXPECT_THROW(core::Profiler::Interpolate(a, b, 10), std::invalid_argument);
}

// --- End-to-end isolation (integration) -----------------------------------

TEST(IntegrationTest, OlympianEqualizesFinishTimes) {
  // 4 identical clients under fair sharing finish within a hair of each
  // other; stock TF-Serving spreads (paper Figures 3 and 11).
  core::Profiler profiler;
  auto profile = profiler.ProfileModel("resnet-152", 30);

  ServerOptions opts;
  opts.seed = 42;
  Experiment base(opts);
  auto base_r = base.Run(std::vector<ClientSpec>(4, SmallClient("resnet-152", 30, 3)));

  Experiment oly(opts);
  core::Scheduler sched(oly.env(), oly.gpu(),
                        std::make_unique<core::FairPolicy>());
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(1200)));
  oly.SetHooks(&sched);
  auto oly_r = oly.Run(std::vector<ClientSpec>(4, SmallClient("resnet-152", 30, 3)));

  metrics::Series base_f, oly_f;
  for (auto& r : base_r) base_f.Add(r.finish_time.seconds());
  for (auto& r : oly_r) oly_f.Add(r.finish_time.seconds());
  EXPECT_LT(oly_f.Cv(), 0.01);          // near-identical
  EXPECT_GT(base_f.Cv(), oly_f.Cv());   // baseline is more spread
  EXPECT_GT(sched.switches(), 100u);    // fine-grained interleaving happened
}

TEST(IntegrationTest, PrioritySerializesJobs) {
  core::Profiler profiler;
  auto profile = profiler.ProfileModel("resnet-152", 30);

  ServerOptions opts;
  Experiment exp(opts);
  core::Scheduler sched(exp.env(), exp.gpu(),
                        std::make_unique<core::PriorityPolicy>());
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(1200)));
  exp.SetHooks(&sched);
  auto high = SmallClient("resnet-152", 30, 3);
  high.priority = 10;
  auto low = SmallClient("resnet-152", 30, 3);
  low.priority = 1;
  auto results = exp.Run({low, high});
  // The high-priority job finishes well before the low-priority one, and
  // close to a solo run's time.
  EXPECT_LT(results[1].finish_time, results[0].finish_time * 0.7);
}

}  // namespace
}  // namespace olympian::serving
