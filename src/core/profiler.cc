#include "core/profiler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

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
// Experiments of one curve in flight at once: the caller plus up to two
// threads, fewer on a host that reports fewer cores. Each Olympian point
// holds a whole simulation and its quantum log, so the cap trades set-up
// time for peak memory. On perfbench's olympian-mixed (4-vCPU VM,
// Release), three in flight cut setup_s by 57% and, with the chunked
// quantum log paying for them, leave the peak RSS at the serial loop's
// (18.7 → 18.6 MB); four cut setup_s by a further 14% but raise the peak
// to 19.3 MB (+3.8%). A std::deque log would have paid too, at 14 more
// allocations per request. A fixed cap also keeps the peak independent of
// how many cores a host or cgroup reports.
constexpr unsigned kCurveThreads = 3;
}  // namespace

Profiler::Profiler(ProfilerOptions options) : options_(std::move(options)) {
  if (options_.profile_runs < 1) {
    throw std::invalid_argument("profile_runs must be >= 1");
  }
  // An Overhead-Q curve runs its experiments on several threads at once,
  // which would write a shared sink concurrently.
  const serving::ServerOptions& server = options_.server;
  if (server.observability.registry != nullptr ||
      server.observability.phases != nullptr ||
      server.executor.tracer != nullptr) {
    throw std::invalid_argument("ProfilerOptions::server must carry no sinks");
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
  // Every threshold first: a profile without a GPU duration throws here,
  // before any experiment runs, and keeps its old curve.
  std::array<double, kQSweep.size()> thresholds{};
  for (std::size_t i = 0; i < kQSweep.size(); ++i) {
    thresholds[i] = ThresholdFor(profile, kQSweep[i]);
  }
  const serving::ClientSpec client{.model = profile.model,
                                   .batch = profile.batch,
                                   .num_batches = kCurveNumBatches};
  const std::vector<serving::ClientSpec> clients(2, client);
  serving::ServerOptions opts = options_.server;
  opts.seed = options_.seed + 17;

  // Point 0 is case (a), stock TF-Serving. Its options, seed and clients
  // are the same at every Q, so one run is the baseline of the whole curve.
  // Point i > 0 is case (b), Olympian fair sharing at kQSweep[i - 1]. The
  // points share no state, and each runs in full wherever it runs: a thread
  // takes the next index and writes only that point's slots, so the curve
  // and the exception rethrown below are the same at any thread count.
  constexpr std::size_t kPoints = kQSweep.size() + 1;
  std::array<double, kPoints> finish_s{};
  std::array<std::exception_ptr, kPoints> errors;
  std::atomic<std::size_t> next{0};
  const auto run_points = [&] {
    for (std::size_t i = next.fetch_add(1); i < kPoints;
         i = next.fetch_add(1)) {
      try {
        serving::Experiment exp(opts);
        std::optional<Scheduler> sched;
        if (i > 0) {
          sched.emplace(exp.env(), exp.gpu(), std::make_unique<FairPolicy>());
          sched->SetProfile(profile.key, &profile.cost, thresholds[i - 1]);
          exp.SetHooks(&*sched);
        }
        sim::Duration m;
        for (const auto& r : exp.Run(clients)) m = std::max(m, r.finish_time);
        finish_s[i] = m.seconds();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u,
                                      kCurveThreads);
  {
    // Joined at the end of this block, also when starting a helper throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(run_points);
    run_points();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);  // the lowest failed point
  }

  const double fb = finish_s[0];
  std::vector<std::pair<sim::Duration, double>> curve;
  curve.reserve(kQSweep.size());
  for (std::size_t i = 0; i < kQSweep.size(); ++i) {
    const double fo = finish_s[i + 1];
    curve.emplace_back(kQSweep[i], fb <= 0 ? 0.0 : (fo - fb) / fb);
  }
  profile.overhead_q = std::move(curve);
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
