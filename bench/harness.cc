#include "harness.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <thread>

#include "json.h"
#include "models/model_zoo.h"

namespace olympian::bench {

const core::ModelProfile& ProfileCache::Get(const std::string& model,
                                            int batch) {
  const std::string key = models::ModelKey(model, batch);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto p = std::make_unique<core::ModelProfile>(
        profiler_.ProfileModel(model, batch));
    it = cache_.emplace(key, std::move(p)).first;
  }
  return *it->second;
}

const core::ModelProfile& ProfileCache::GetWithCurve(const std::string& model,
                                                     int batch) {
  const core::ModelProfile& p = Get(model, batch);
  if (p.overhead_q.empty()) {
    profiler_.ComputeOverheadQCurve(
        *cache_.at(models::ModelKey(model, batch)));
  }
  return p;
}

RunOutcome RunBaseline(const serving::ServerOptions& server,
                       const std::vector<serving::ClientSpec>& clients) {
  serving::Experiment exp(server);
  RunOutcome out;
  out.clients = exp.Run(clients);
  out.makespan = exp.makespan();
  out.utilization = exp.utilization();
  return out;
}

namespace {

RunOutcome RunWithScheduler(const serving::ServerOptions& server,
                            const std::vector<serving::ClientSpec>& clients,
                            const std::string& policy, sim::Duration q,
                            ProfileCache* profiles, bool wall_clock) {
  serving::Experiment exp(server);
  core::Scheduler::Options sopts;
  sopts.use_wall_clock = wall_clock;
  sopts.wall_quantum = q;
  core::Scheduler sched(exp.env(), exp.gpu(), core::MakePolicy(policy), sopts);

  if (!wall_clock) {
    std::set<std::pair<std::string, int>> seen;
    for (const auto& c : clients) seen.insert({c.model, c.batch});
    for (const auto& [model, batch] : seen) {
      const core::ModelProfile& p = profiles->Get(model, batch);
      sched.SetProfile(p.key, &p.cost, core::Profiler::ThresholdFor(p, q));
    }
  }

  exp.SetHooks(&sched);
  RunOutcome out;
  out.clients = exp.Run(clients);
  out.makespan = exp.makespan();
  out.utilization = exp.utilization();
  out.switches = sched.switches();
  out.quanta = sched.quanta_completed();
  out.quantum_log.assign(sched.quantum_log().begin(),
                         sched.quantum_log().end());
  return out;
}

}  // namespace

RunOutcome RunOlympian(const serving::ServerOptions& server,
                       const std::vector<serving::ClientSpec>& clients,
                       const std::string& policy, sim::Duration q,
                       ProfileCache& profiles) {
  return RunWithScheduler(server, clients, policy, q, &profiles, false);
}

RunOutcome RunCpuTimerAblation(const serving::ServerOptions& server,
                               const std::vector<serving::ClientSpec>& clients,
                               const std::string& policy, sim::Duration q) {
  return RunWithScheduler(server, clients, policy, q, nullptr, true);
}

std::map<gpusim::JobId, QuantumStats> PerJobQuantumStats(
    const RunOutcome& run, std::size_t expected_jobs) {
  std::map<gpusim::JobId, metrics::Series> per_job;
  for (const auto& rec : run.quantum_log) {
    if (rec.active_jobs != expected_jobs) continue;  // only full occupancy
    per_job[rec.job].Add(rec.gpu_duration.micros());
  }
  std::map<gpusim::JobId, QuantumStats> out;
  for (auto& [job, series] : per_job) {
    out[job] = QuantumStats{series.Mean(), series.Stddev(), series.count()};
  }
  return out;
}

std::vector<serving::ClientSpec> HomogeneousClients(const std::string& model,
                                                    int batch, int count,
                                                    int num_batches) {
  return std::vector<serving::ClientSpec>(
      static_cast<std::size_t>(count),
      serving::ClientSpec{
          .model = model, .batch = batch, .num_batches = num_batches});
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s of \"Olympian\", Middleware 2018)\n\n",
              paper_ref.c_str());
}

std::string FmtSeconds(sim::Duration d) {
  return metrics::Table::Num(d.seconds(), 2);
}

void SweepCase::RecordStatuses(
    const std::vector<serving::ClientResult>& clients) {
  int ok = 0, timed_out = 0, rejected = 0, retried = 0, failed = 0;
  for (const auto& c : clients) {
    ok += c.CountStatus(serving::RequestStatus::kOk);
    timed_out += c.CountStatus(serving::RequestStatus::kTimedOut);
    rejected += c.CountStatus(serving::RequestStatus::kRejected);
    retried += c.CountStatus(serving::RequestStatus::kFailedRetried);
    failed += c.CountStatus(serving::RequestStatus::kFailed);
  }
  Set("req_ok", ok);
  Set("req_timed_out", timed_out);
  Set("req_rejected", rejected);
  Set("req_failed_retried", retried);
  Set("req_failed", failed);

  for (const auto& c : clients) {
    if (c.finish_time.seconds() > slo_window_seconds) {
      slo_window_seconds = c.finish_time.seconds();
    }
    for (std::size_t i = 0; i < c.request_status.size(); ++i) {
      const double latency = i < c.request_latency_ms.size()
                                 ? c.request_latency_ms[i]
                                 : 0.0;
      slo.Add(c.model, latency, c.request_status[i]);
    }
  }
}

namespace {

// max/mean of the per-shard executed-event counts; 1.0 for degenerate
// inputs (no shards, or no events) so artifacts never carry a NaN.
double ShardImbalance(const std::vector<std::uint64_t>& shard_events) {
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  for (const std::uint64_t e : shard_events) {
    total += e;
    if (e > worst) worst = e;
  }
  if (shard_events.empty() || total == 0) return 1.0;
  return static_cast<double>(worst) * static_cast<double>(shard_events.size()) /
         static_cast<double>(total);
}

}  // namespace

void SweepCase::RecordEngine(const sim::ShardedEngine& engine) {
  engine_shards = engine.shards();
  engine_sync_windows = engine.sync_windows();
  engine_boundary_events = engine.boundary_events();
  engine_hub_instants = engine.hub_instants();
  engine_worker_wakeups = engine.worker_wakeups();
  engine_shard_events.clear();
  engine_shard_events.reserve(engine_shards);
  for (std::size_t k = 0; k < engine_shards; ++k) {
    engine_shard_events.push_back(engine.shard_events(k));
  }
  Set("shards", static_cast<double>(engine_shards));
  Set("sync_windows", static_cast<double>(engine_sync_windows));
  Set("boundary_events", static_cast<double>(engine_boundary_events));
  Set("hub_instants", static_cast<double>(engine_hub_instants));
  Set("worker_wakeups", static_cast<double>(engine_worker_wakeups));
  Set("imbalance", ShardImbalance(engine_shard_events));
}

Json SloJson(const metrics::SloReport& r) {
  Json latency = Json::Object();
  latency.Set("mean_ms", Json::Num(r.mean_ms))
      .Set("p50_ms", Json::Num(r.p50_ms))
      .Set("p95_ms", Json::Num(r.p95_ms))
      .Set("p99_ms", Json::Num(r.p99_ms))
      .Set("p999_ms", Json::Num(r.p999_ms))
      .Set("max_ms", Json::Num(r.max_ms));
  Json per_model = Json::Array();
  for (const auto& m : r.per_model) {
    per_model.Push(Json::Object()
                       .Set("model", Json::Str(m.model))
                       .Set("total", Json::Num(static_cast<double>(m.total)))
                       .Set("succeeded",
                            Json::Num(static_cast<double>(m.succeeded)))
                       .Set("availability", Json::Num(m.availability))
                       .Set("p50_ms", Json::Num(m.p50_ms))
                       .Set("p95_ms", Json::Num(m.p95_ms))
                       .Set("p99_ms", Json::Num(m.p99_ms))
                       .Set("p999_ms", Json::Num(m.p999_ms))
                       .Set("max_ms", Json::Num(m.max_ms))
                       .Set("goodput_rps", Json::Num(m.goodput_rps)));
  }
  Json out = Json::Object();
  out.Set("window_seconds", Json::Num(r.window_seconds))
      .Set("total", Json::Num(static_cast<double>(r.total)))
      .Set("succeeded", Json::Num(static_cast<double>(r.succeeded)))
      .Set("retried_ok", Json::Num(static_cast<double>(r.retried_ok)))
      .Set("timed_out", Json::Num(static_cast<double>(r.timed_out)))
      .Set("rejected", Json::Num(static_cast<double>(r.rejected)))
      .Set("failed", Json::Num(static_cast<double>(r.failed)))
      .Set("availability", Json::Num(r.availability))
      .Set("availability_target", Json::Num(r.availability_target))
      .Set("error_budget_burn", Json::Num(r.error_budget_burn))
      .Set("latency", std::move(latency))
      .Set("goodput_rps", Json::Num(r.goodput_rps))
      .Set("per_model", std::move(per_model));
  return out;
}

namespace {

// Phase map as a JSON object, zero-valued phases skipped (mirrors
// PhaseCollector::WriteBlameJson). Integer nanoseconds survive the double
// round-trip exactly for any run shorter than ~104 days of virtual time.
template <typename T>
Json PhaseMapJson(const std::array<T, metrics::kPhaseCount>& per_phase) {
  Json out = Json::Object();
  for (int i = 0; i < metrics::kPhaseCount; ++i) {
    const T v = per_phase[static_cast<std::size_t>(i)];
    if (v == 0) continue;
    out.Set(metrics::PhaseName(static_cast<metrics::Phase>(i)),
            Json::Num(static_cast<double>(v)));
  }
  return out;
}

}  // namespace

Json BlameJson(const metrics::PhaseCollector& c) {
  Json rows = Json::Array();
  for (const auto& [key, row] : c.rows()) {
    Json row_json = Json::Object();
    row_json.Set("server", Json::Num(static_cast<double>(key.first)))
        .Set("model", Json::Str(key.second))
        .Set("requests", Json::Num(static_cast<double>(row.requests)))
        .Set("violations", Json::Num(static_cast<double>(row.violations)));
    if (row.violations > 0) {
      // Highest dominant count wins, ties toward the lowest phase index —
      // the same rule as PhaseAccount::Dominant.
      int best = 0;
      for (int i = 1; i < metrics::kPhaseCount; ++i) {
        if (row.dominant[static_cast<std::size_t>(i)] >
            row.dominant[static_cast<std::size_t>(best)])
          best = i;
      }
      row_json.Set("dominant_phase",
                   Json::Str(metrics::PhaseName(static_cast<metrics::Phase>(
                       best))));
    }
    row_json.Set("phases_ns", PhaseMapJson(row.total_ns))
        .Set("violation_phases_ns", PhaseMapJson(row.violation_ns));
    if (row.violations > 0) {
      row_json.Set("dominant_counts", PhaseMapJson(row.dominant));
    }
    rows.Push(std::move(row_json));
  }
  Json out = Json::Object();
  out.Set("slo_ms", Json::Num(c.slo_ms()))
      .Set("requests", Json::Num(static_cast<double>(c.requests())))
      .Set("violations", Json::Num(static_cast<double>(c.violations())))
      .Set("phase_sum_mismatches",
           Json::Num(static_cast<double>(c.mismatches())))
      .Set("rows", std::move(rows));
  return out;
}

Json TimelineJson(const metrics::MetricRegistry& registry) {
  Json series = Json::Array();
  for (const auto& [name, labels, ts] : registry.Series()) {
    Json points = Json::Array();
    for (const auto& [t_ns, v] : ts->points()) {
      points.Push(Json::Array()
                      .Push(Json::Num(static_cast<double>(t_ns)))
                      .Push(Json::Num(v)));
    }
    series.Push(Json::Object()
                    .Set("name", Json::Str(name))
                    .Set("labels", Json::Str(labels))
                    .Set("points", std::move(points)));
  }
  Json out = Json::Object();
  out.Set("series", std::move(series));
  return out;
}

Json HistogramJson(const metrics::MetricRegistry::Histogram& h) {
  Json buckets = Json::Array();
  const auto& bounds = h.bounds();
  const auto& counts = h.bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    Json le = i < bounds.size() ? Json::Num(bounds[i]) : Json::Str("+Inf");
    buckets.Push(Json::Array()
                     .Push(std::move(le))
                     .Push(Json::Num(static_cast<double>(counts[i]))));
  }
  Json out = Json::Object();
  out.Set("count", Json::Num(static_cast<double>(h.count())))
      .Set("sum", Json::Num(h.sum()))
      .Set("min", Json::Num(h.count() > 0 ? h.min() : 0.0))
      .Set("max", Json::Num(h.count() > 0 ? h.max() : 0.0))
      .Set("p50", Json::Num(h.count() > 0 ? h.Quantile(0.5) : 0.0))
      .Set("p95", Json::Num(h.count() > 0 ? h.Quantile(0.95) : 0.0))
      .Set("p99", Json::Num(h.count() > 0 ? h.Quantile(0.99) : 0.0))
      .Set("buckets", std::move(buckets));
  return out;
}

// --- SweepRunner ------------------------------------------------------------

int SweepRunner::Threads() const {
  int n = 0;
  if (const char* env = std::getenv("OLYMPIAN_BENCH_THREADS")) {
    // One whole decimal token >= 1: a typo must not fall back to every
    // hardware thread, or a serial-vs-threaded diff compares threaded runs.
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec != std::errc() || ptr != end || n < 1) {
      std::fprintf(stderr,
                   "error: OLYMPIAN_BENCH_THREADS must be a whole number >= 1, "
                   "got '%s'\n",
                   env);
      std::exit(1);
    }
  } else {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  const int cases = static_cast<int>(cases_.size());
  return cases > 0 && n > cases ? cases : n;
}

const std::vector<SweepCase>& SweepRunner::RunAll() {
  const std::size_t n = cases_.size();
  results_.assign(n, SweepCase{});
  std::vector<std::exception_ptr> errors(n);

  // Workers pull the next unclaimed case index; results land in the slot
  // for that index, so output order is Add() order regardless of timing.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      results_[i].name = cases_[i].first;
      const auto case_t0 = std::chrono::steady_clock::now();
      try {
        cases_[i].second(results_[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      // Appended last so binaries can index their own metrics from 0. The
      // sum/max ratio of these across cases bounds the achievable parallel
      // speedup on a many-core host.
      results_[i].Set("case_seconds",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - case_t0)
                          .count());
    }
  };

  const int threads = Threads();
  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);  // first failure in Add() order
  }

  Json cases_json = Json::Array();
  metrics::SloAccumulator merged_slo;
  double merged_window = 0.0;
  // Artifact-level blame table, folded over every case that carried a
  // PhaseCollector. The merged collector inherits the first contributing
  // case's SLO threshold (rows arrive with violations already classified,
  // so the threshold is informational in the merged block).
  std::shared_ptr<metrics::PhaseCollector> merged_phases;
  // Engine counters pooled across cases: shards is the widest partition any
  // case ran with (1 when no case recorded an engine — every artifact still
  // carries the block), windows/boundary events are totals.
  std::uint64_t agg_shards = 1;
  std::uint64_t agg_sync_windows = 0;
  std::uint64_t agg_boundary_events = 0;
  std::uint64_t agg_hub_instants = 0;
  std::uint64_t agg_worker_wakeups = 0;
  std::vector<std::uint64_t> agg_shard_events;
  for (const auto& r : results_) {
    if (r.engine_shards > agg_shards) agg_shards = r.engine_shards;
    agg_sync_windows += r.engine_sync_windows;
    agg_boundary_events += r.engine_boundary_events;
    agg_hub_instants += r.engine_hub_instants;
    agg_worker_wakeups += r.engine_worker_wakeups;
    if (r.engine_shard_events.size() > agg_shard_events.size()) {
      agg_shard_events.resize(r.engine_shard_events.size(), 0);
    }
    for (std::size_t k = 0; k < r.engine_shard_events.size(); ++k) {
      agg_shard_events[k] += r.engine_shard_events[k];
    }
  }
  for (const auto& r : results_) {
    Json metrics = Json::Object();
    for (const auto& [key, value] : r.metrics) {
      metrics.Set(key, Json::Num(value));
    }
    Json case_json = Json::Object();
    case_json.Set("name", Json::Str(r.name)).Set("metrics", std::move(metrics));
    if (!r.slo.empty()) {
      case_json.Set("slo", SloJson(r.slo.Report(r.slo_window_seconds)));
      merged_slo.Merge(r.slo);
      if (r.slo_window_seconds > merged_window) {
        merged_window = r.slo_window_seconds;
      }
    }
    if (r.timeline != nullptr) {
      case_json.Set("timeline", *r.timeline);
    }
    if (r.histograms != nullptr) {
      case_json.Set("histograms", *r.histograms);
    }
    if (r.phases != nullptr) {
      case_json.Set("blame", BlameJson(*r.phases));
      if (merged_phases == nullptr) {
        merged_phases = std::make_shared<metrics::PhaseCollector>(
            metrics::PhaseCollector::Options{.slo_ms = r.phases->slo_ms()});
      }
      merged_phases->MergeFrom(*r.phases);
    }
    cases_json.Push(std::move(case_json));
  }
  Json root = Json::Object();
  root.Set("bench", Json::Str(name_))
      .Set("threads", Json::Num(threads))
      .Set("wall_seconds", Json::Num(wall_seconds_))
      // Artifact-level SLO report: every BENCH_*.json carries one, pooled
      // over all cases that recorded request outcomes (empty-traffic report
      // when none did).
      .Set("slo", SloJson(merged_slo.Report(merged_window)))
      // Artifact-level blame table beside the SLO block: pooled over all
      // cases that accounted phases, an empty table when none did.
      .Set("blame", BlameJson(merged_phases != nullptr
                                  ? *merged_phases
                                  : metrics::PhaseCollector{}))
      .Set("engine", [&] {
        Json shard_events = Json::Array();
        for (const std::uint64_t e : agg_shard_events) {
          shard_events.Push(Json::Num(static_cast<double>(e)));
        }
        return Json::Object()
            .Set("shards", Json::Num(static_cast<double>(agg_shards)))
            .Set("sync_windows",
                 Json::Num(static_cast<double>(agg_sync_windows)))
            .Set("boundary_events",
                 Json::Num(static_cast<double>(agg_boundary_events)))
            .Set("hub_instants",
                 Json::Num(static_cast<double>(agg_hub_instants)))
            .Set("worker_wakeups",
                 Json::Num(static_cast<double>(agg_worker_wakeups)))
            .Set("shard_events", std::move(shard_events))
            .Set("imbalance", Json::Num(ShardImbalance(agg_shard_events)));
      }())
      .Set("cases", std::move(cases_json));
  const std::string path = "BENCH_" + name_ + ".json";
  if (!WriteJsonFile(path, root)) {
    // Fail before the caller prints its table: a sweep whose artifact is
    // missing must not look like a success.
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "[sweep %s] %zu cases on %d thread%s in %.2fs -> %s\n",
               name_.c_str(), n, threads, threads == 1 ? "" : "s",
               wall_seconds_, path.c_str());
  return results_;
}

}  // namespace olympian::bench
