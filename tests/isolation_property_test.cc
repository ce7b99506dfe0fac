// Property-based integration tests: the scheduler's isolation invariants
// must hold across policies, models, and seeds — not just in the headline
// configurations the benches use.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "metrics/stats.h"
#include "serving/server.h"

namespace olympian {
namespace {

using serving::ClientSpec;
using serving::Experiment;
using serving::ServerOptions;
using sim::Duration;

struct RunArtifacts {
  std::vector<serving::ClientResult> results;
  std::vector<core::Scheduler::QuantumRecord> quanta;
  sim::Duration gpu_busy;
  std::uint64_t switches = 0;
};

RunArtifacts RunFairWorkload(const std::string& model, int batch, int clients,
                             std::uint64_t seed, const std::string& policy) {
  core::Profiler profiler;
  const auto profile = profiler.ProfileModel(model, batch);
  ServerOptions opts;
  opts.seed = seed;
  Experiment exp(opts);
  core::Scheduler sched(exp.env(), exp.gpu(), core::MakePolicy(policy));
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(1200)));
  exp.SetHooks(&sched);
  RunArtifacts out;
  out.results = exp.Run(std::vector<ClientSpec>(
      static_cast<std::size_t>(clients),
      ClientSpec{.model = model, .batch = batch, .num_batches = 2}));
  out.quanta.assign(sched.quantum_log().begin(), sched.quantum_log().end());
  out.gpu_busy = exp.gpu().TotalBusy();
  out.switches = sched.switches();
  return out;
}

// (model, batch, seed)
using IsolationParam = std::tuple<std::string, int, std::uint64_t>;

class IsolationTest : public ::testing::TestWithParam<IsolationParam> {};

TEST_P(IsolationTest, FairShareEqualizesFinishAndGpuDuration) {
  const auto& [model, batch, seed] = GetParam();
  const auto run = RunFairWorkload(model, batch, 4, seed, "fair");
  metrics::Series finishes, gpu_durs;
  for (const auto& r : run.results) {
    EXPECT_EQ(r.batches_completed, 2);
    finishes.Add(r.finish_time.seconds());
    gpu_durs.Add(r.gpu_duration.seconds());
  }
  EXPECT_LT(finishes.Cv(), 0.02) << model;
  EXPECT_LT(gpu_durs.Cv(), 0.02) << model;
  EXPECT_GT(run.switches, 20u);
}

TEST_P(IsolationTest, WorkConservation) {
  // At paper-regime batch sizes kernels are device-exclusive, so the sum of
  // per-job GPU durations equals total busy time (within overlap slack from
  // sub-saturating kernels).
  const auto& [model, batch, seed] = GetParam();
  const auto run = RunFairWorkload(model, batch, 4, seed, "fair");
  sim::Duration sum;
  for (const auto& r : run.results) sum += r.gpu_duration;
  EXPECT_GE(sum.seconds(), run.gpu_busy.seconds() * 0.99);
  EXPECT_LE(sum.seconds(), run.gpu_busy.seconds() * 1.30);
}

TEST_P(IsolationTest, QuantumGpuDurationBoundedByTenure) {
  // A job cannot accumulate more GPU duration during a tenure than the
  // tenure's wall-clock length plus bounded overflow from ~2-3 in-flight
  // nodes (paper Figures 10/15).
  const auto& [model, batch, seed] = GetParam();
  const auto run = RunFairWorkload(model, batch, 4, seed, "fair");
  const auto slack = Duration::Millis(8);  // few heavy-kernel overflows
  std::size_t violations = 0;
  for (const auto& q : run.quanta) {
    if (q.gpu_duration > (q.end - q.start) + slack) ++violations;
  }
  EXPECT_EQ(violations, 0u) << model;
}

TEST_P(IsolationTest, PerJobQuantaSumToTotalGpuDuration) {
  // The per-quantum accounting must tile each job's total GPU duration.
  const auto& [model, batch, seed] = GetParam();
  const auto run = RunFairWorkload(model, batch, 3, seed, "fair");
  std::map<gpusim::JobId, double> per_job_quanta;
  for (const auto& q : run.quanta) {
    per_job_quanta[q.job] += q.gpu_duration.seconds();
  }
  for (const auto& r : run.results) {
    // Quanta can miss overflow that lands outside any tenure of the job,
    // so allow a tolerance band.
    EXPECT_NEAR(per_job_quanta[r.job], r.gpu_duration.seconds(),
                0.12 * r.gpu_duration.seconds())
        << model << " job " << r.job;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, IsolationTest,
    ::testing::Values(IsolationParam{"inception-v4", 64, 1},
                      IsolationParam{"vgg16", 64, 2},
                      IsolationParam{"resnet-152", 64, 3},
                      IsolationParam{"googlenet", 64, 4},
                      IsolationParam{"alexnet", 64, 5},
                      IsolationParam{"resnet-50", 48, 6},
                      IsolationParam{"resnet-101", 48, 7}));

// --- policy-level end-to-end properties ------------------------------------

class PolicyPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyPropertyTest, AllClientsComplete) {
  const auto run = RunFairWorkload("resnet-152", 32, 5, 11, GetParam());
  for (const auto& r : run.results) EXPECT_EQ(r.batches_completed, 2);
}

TEST_P(PolicyPropertyTest, DeterministicGivenSeed) {
  const auto a = RunFairWorkload("resnet-152", 32, 3, 17, GetParam());
  const auto b = RunFairWorkload("resnet-152", 32, 3, 17, GetParam());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].finish_time, b.results[i].finish_time);
  }
  EXPECT_EQ(a.switches, b.switches);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyPropertyTest,
                         ::testing::Values("fair", "weighted-fair", "priority"));

// Weighted shares: while both jobs are active, GPU duration ratio tracks
// the weight ratio.
TEST(WeightedShareProperty, GpuDurationTracksWeights) {
  core::Profiler profiler;
  const auto profile = profiler.ProfileModel("resnet-152", 48);
  ServerOptions opts;
  opts.seed = 23;
  Experiment exp(opts);
  core::Scheduler sched(exp.env(), exp.gpu(),
                        std::make_unique<core::WeightedFairPolicy>());
  sched.SetProfile(profile.key, &profile.cost,
                   core::Profiler::ThresholdFor(profile, Duration::Micros(1200)));
  exp.SetHooks(&sched);
  // Heavy job gets 3x weight; give the light job fewer batches so the heavy
  // one is active for the light job's entire lifetime.
  std::vector<ClientSpec> clients{
      {.model = "resnet-152", .batch = 48, .num_batches = 6, .weight = 3},
      {.model = "resnet-152", .batch = 48, .num_batches = 2, .weight = 1}};
  const auto results = exp.Run(clients);
  // While both run, heavy:light GPU share is ~3:1. Measure at the light
  // job's finish: its GPU duration vs the heavy job's at that point is not
  // directly observable post-hoc, so use finish-time structure instead:
  // the light job (2 batches at a quarter share) should finish close to
  // when a fair scheduler would give it 2/(2+6) of... simpler: heavy
  // finishes first despite 3x the work? No — check total durations ratio.
  EXPECT_EQ(results[0].batches_completed, 6);
  EXPECT_EQ(results[1].batches_completed, 2);
  // The heavy job has 3x the total work and 3x the share: both should
  // finish near the same time.
  EXPECT_NEAR(results[0].finish_time.seconds(), results[1].finish_time.seconds(),
              0.25 * results[0].finish_time.seconds());
}

}  // namespace
}  // namespace olympian
