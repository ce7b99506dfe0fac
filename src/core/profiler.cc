#include "core/profiler.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/scheduler.h"
#include "graph/executor.h"
#include "graph/thread_pool.h"
#include "models/model_zoo.h"

namespace olympian::core {
namespace {
// Quantum sweep of the Overhead-Q curves (paper §3.2, Figure 8), ascending.
constexpr std::array kQSweep = {
    sim::Duration::Micros(300),  sim::Duration::Micros(500),
    sim::Duration::Micros(800),  sim::Duration::Micros(1200),
    sim::Duration::Micros(1600), sim::Duration::Micros(2400),
    sim::Duration::Micros(3600), sim::Duration::Micros(5000)};
static_assert(!kQSweep.empty());  // SelectQ falls back to the largest Q
// Batches per client in the two-instance overhead measurements.
constexpr int kCurveNumBatches = 3;
}  // namespace

Profiler::Profiler(ProfilerOptions options) : options_(std::move(options)) {
  if (options_.profile_runs < 1) {
    throw std::invalid_argument("profile_runs must be >= 1");
  }
}

ModelProfile Profiler::ProfileModel(const std::string& model,
                                    int batch) const {
  const graph::Graph& g = models::SharedModel(model);

  // A private offline simulation: one job, idle GPU (paper §3.2 — profiles
  // are computed "when the GPU is idle" and reused, adding no serving-time
  // overhead).
  sim::Environment env;
  gpusim::Gpu::Options gpu_opts = options_.server.gpu;
  gpu_opts.seed = options_.seed;
  gpusim::Gpu gpu(env, gpu_opts);
  graph::ThreadPool pool(env, options_.server.pool_threads);
  graph::Executor exec(env, gpu, pool, options_.server.executor,
                       options_.seed + 1, nullptr);

  graph::JobContext ctx;
  ctx.job = 0;
  ctx.model_key = models::ModelKey(model, batch);
  ctx.batch = batch;
  for (int s = 0; s < serving::kStreamsPerJob; ++s) {
    ctx.streams.push_back(gpu.CreateStream());
  }

  std::vector<graph::CostProfile> runs(
      static_cast<std::size_t>(options_.profile_runs));
  env.Spawn(
      [](graph::Executor& ex, gpusim::Gpu& dev, graph::ThreadPool& pl,
         graph::JobContext& c, const graph::Graph& graph,
         std::vector<graph::CostProfile>& out) -> sim::Task {
        for (auto& profile : out) {
          const sim::Duration d0 = dev.JobGpuDuration(c.job);
          const sim::TimePoint t0 = ex.env().Now();
          co_await ex.RunOnce(c, graph, &profile);
          profile.gpu_duration = dev.JobGpuDuration(c.job) - d0;
          profile.solo_runtime = ex.env().Now() - t0;
        }
        pl.Shutdown();
      }(exec, gpu, pool, ctx, g, runs),
      "profiler");
  env.Run();

  // Average the runs element-wise.
  ModelProfile result;
  result.model = model;
  result.batch = batch;
  result.key = ctx.model_key;
  result.cost.Resize(g.size());
  const double n = static_cast<double>(runs.size());
  sim::Duration d_sum, rt_sum;
  for (const graph::CostProfile& r : runs) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      result.cost.mutable_costs()[i] += r.costs()[i] / n;
    }
    d_sum += r.gpu_duration;
    rt_sum += r.solo_runtime;
  }
  result.cost.gpu_duration = d_sum / options_.profile_runs;
  result.cost.solo_runtime = rt_sum / options_.profile_runs;
  return result;
}

void Profiler::ComputeOverheadQCurve(ModelProfile& profile) const {
  const serving::ClientSpec client{.model = profile.model,
                                   .batch = profile.batch,
                                   .num_batches = kCurveNumBatches};
  const std::vector<serving::ClientSpec> clients(2, client);
  serving::ServerOptions opts = options_.server;
  opts.seed = options_.seed + 17;
  auto finish_s = [&clients](serving::Experiment& exp) {
    sim::Duration m;
    for (const auto& r : exp.Run(clients)) m = std::max(m, r.finish_time);
    return m.seconds();
  };

  // Case (a): stock TF-Serving. Its options, seed and clients are the same
  // at every Q, so one run is the baseline of the whole curve.
  serving::Experiment base(opts);
  const double fb = finish_s(base);

  // Case (b): Olympian, fair sharing at each swept quantum.
  profile.overhead_q.clear();
  for (const sim::Duration q : kQSweep) {
    serving::Experiment oly(opts);
    Scheduler sched(oly.env(), oly.gpu(), std::make_unique<FairPolicy>());
    sched.SetProfile(profile.key, &profile.cost, ThresholdFor(profile, q));
    oly.SetHooks(&sched);
    const double fo = finish_s(oly);
    profile.overhead_q.emplace_back(q, fb <= 0 ? 0.0 : (fo - fb) / fb);
  }
}

sim::Duration Profiler::SelectQ(
    const std::vector<const ModelProfile*>& profiles, double tolerance) {
  if (profiles.empty()) {
    throw std::invalid_argument("SelectQ needs at least one profile");
  }
  sim::Duration q_max;
  for (const ModelProfile* p : profiles) {
    if (p->overhead_q.empty()) {
      throw std::logic_error("Overhead-Q curve missing for " + p->key);
    }
    // Smallest swept Q meeting the tolerance, linearly interpolated against
    // the previous point when it brackets the tolerance.
    sim::Duration q_model = p->overhead_q.back().first;  // fallback: largest
    for (std::size_t i = 0; i < p->overhead_q.size(); ++i) {
      const auto [q, o] = p->overhead_q[i];
      if (o <= tolerance) {
        if (i > 0 && p->overhead_q[i - 1].second > tolerance) {
          const auto [q0, o0] = p->overhead_q[i - 1];
          const double frac = (o0 - tolerance) / (o0 - o);
          q_model = q0 + (q - q0) * frac;
        } else {
          q_model = q;
        }
        break;
      }
    }
    q_max = std::max(q_max, q_model);
  }
  return q_max;
}

double Profiler::ThresholdFor(const ModelProfile& profile, sim::Duration q) {
  const double rate = profile.CostAccumulationRate();
  if (rate <= 0) {
    throw std::logic_error("profile for " + profile.key +
                           " has no GPU duration");
  }
  return static_cast<double>(q.nanos()) * rate;
}

ModelProfile Profiler::Interpolate(const ModelProfile& a,
                                   const ModelProfile& b, int target_batch) {
  if (a.model != b.model) {
    throw std::invalid_argument("Interpolate needs profiles of one model");
  }
  if (a.batch == b.batch) {
    throw std::invalid_argument("Interpolate needs two distinct batch sizes");
  }
  if (a.cost.size() != b.cost.size()) {
    throw std::logic_error("profile size mismatch");
  }
  ModelProfile out;
  out.model = a.model;
  out.batch = target_batch;
  out.key = models::ModelKey(a.model, target_batch);
  out.cost.Resize(a.cost.size());

  const double xa = a.batch, xb = b.batch, xt = target_batch;
  const double t = (xt - xa) / (xb - xa);
  auto lerp = [t](double va, double vb) { return va + (vb - va) * t; };

  for (std::size_t i = 0; i < a.cost.size(); ++i) {
    out.cost.mutable_costs()[i] =
        std::max(0.0, lerp(a.cost.costs()[i], b.cost.costs()[i]));
  }
  out.cost.gpu_duration = sim::Duration::Nanos(static_cast<std::int64_t>(
      lerp(static_cast<double>(a.cost.gpu_duration.nanos()),
           static_cast<double>(b.cost.gpu_duration.nanos()))));
  out.cost.solo_runtime = sim::Duration::Nanos(static_cast<std::int64_t>(
      lerp(static_cast<double>(a.cost.solo_runtime.nanos()),
           static_cast<double>(b.cost.solo_runtime.nanos()))));
  return out;
}

}  // namespace olympian::core
