#pragma once

// Shared harness for the per-figure/table bench binaries. Each binary
// regenerates the rows/series of one paper table or figure; this header
// provides the common plumbing: profiling with caching, building Olympian
// experiments, and result summaries.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "json.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/slo.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "serving/server.h"
#include "sim/shard.h"

namespace olympian::bench {

// Profiles (model, batch) pairs once and memoizes them for the binary's
// lifetime. Overhead-Q curves are computed lazily on first request.
class ProfileCache {
 public:
  explicit ProfileCache(core::ProfilerOptions opts = {}) : profiler_(opts) {}

  const core::ModelProfile& Get(const std::string& model, int batch);
  const core::ModelProfile& GetWithCurve(const std::string& model, int batch);
  const core::Profiler& profiler() const { return profiler_; }

 private:
  core::Profiler profiler_;
  std::map<std::string, std::unique_ptr<core::ModelProfile>> cache_;
};

// Outcome of one workload run (either system).
struct RunOutcome {
  std::vector<serving::ClientResult> clients;
  sim::Duration makespan;
  double utilization = 0.0;
  // Olympian-only:
  std::uint64_t switches = 0;
  std::uint64_t quanta = 0;
  std::vector<core::Scheduler::QuantumRecord> quantum_log;
};

// Stock TF-Serving run.
RunOutcome RunBaseline(const serving::ServerOptions& server,
                       const std::vector<serving::ClientSpec>& clients);

// Olympian run: installs profiles for every (model,batch) in the workload,
// computes thresholds from `q`, and applies the named policy
// ("fair" | "weighted-fair" | "priority").
RunOutcome RunOlympian(const serving::ServerOptions& server,
                       const std::vector<serving::ClientSpec>& clients,
                       const std::string& policy, sim::Duration q,
                       ProfileCache& profiles);

// Figure 19 ablation: Olympian's mechanism with a plain CPU-timer quantum.
RunOutcome RunCpuTimerAblation(const serving::ServerOptions& server,
                               const std::vector<serving::ClientSpec>& clients,
                               const std::string& policy, sim::Duration q);

// Mean GPU-duration-per-quantum per job, over quanta recorded while all
// `expected_jobs` jobs were active (how the paper measures Figures 14/16).
struct QuantumStats {
  double mean_us = 0.0;
  double stddev_us = 0.0;
  std::size_t count = 0;
};
std::map<gpusim::JobId, QuantumStats> PerJobQuantumStats(
    const RunOutcome& run, std::size_t expected_jobs);

// N identical clients of one model (the paper's default workload shape).
std::vector<serving::ClientSpec> HomogeneousClients(const std::string& model,
                                                    int batch, int count,
                                                    int num_batches = 10);

// Pretty-print helpers shared by the binaries.
void PrintHeader(const std::string& title, const std::string& paper_ref);
std::string FmtSeconds(sim::Duration d);

// --- parallel sweeps --------------------------------------------------------

// One sweep case's machine-readable result: a named, ordered list of scalar
// metrics. Cases may additionally publish richer data (client vectors,
// profiles) through slots captured by the case lambda; the runner itself
// only sees these metrics.
struct SweepCase {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
  // SLO observations collected by RecordStatuses; folded into this case's
  // "slo" block and merged into the artifact-level report by RunAll().
  metrics::SloAccumulator slo;
  double slo_window_seconds = 0.0;
  // Optional sampler timeline (see TimelineJson); embedded into the case's
  // JSON when set. shared_ptr keeps SweepCase copyable for the runner.
  std::shared_ptr<Json> timeline;
  // Optional named distributions (see HistogramJson), e.g. per-incident
  // MTTR: an object mapping name -> histogram block, embedded as
  // "histograms" in the case's JSON when set.
  std::shared_ptr<Json> histograms;
  // Optional latency-anatomy blame table: cases that ran with a
  // metrics::PhaseCollector park it here; RunAll() embeds it as "blame" in
  // the case's JSON and folds every case's rows into the artifact-level
  // blame block stamped beside "slo" in every BENCH_*.json.
  std::shared_ptr<metrics::PhaseCollector> phases;
  void Set(std::string key, double v) {
    metrics.emplace_back(std::move(key), v);
  }
  // Per-status request summary (kOk/kTimedOut/kRejected/kFailedRetried/
  // kFailed counts across all clients) — call from every case that ran a
  // serving workload so each BENCH_*.json carries the request outcomes.
  // Also feeds every request (model, latency, outcome) into `slo` and
  // widens `slo_window_seconds` to the latest client finish time.
  void RecordStatuses(const std::vector<serving::ClientResult>& clients);
  // Sharded-engine execution counters (see sim/shard.h) — call from every
  // case that ran a cluster workload. Adds shards / sync_windows /
  // boundary_events / hub_instants / worker_wakeups / imbalance metrics to
  // the case and feeds the artifact-level "engine" block RunAll() stamps
  // into every BENCH_*.json (shards: max across cases, defaulting to 1;
  // windows/boundary events/instants/wakeups: sums; shard_events:
  // element-wise sums; imbalance: max/mean of the pooled per-shard counts).
  // Imbalance makes the shard packing visible in artifacts: 1.0 is a
  // perfect packing, N means the busiest shard carries N times the mean
  // event load.
  void RecordEngine(const sim::ShardedEngine& engine);
  std::uint64_t engine_shards = 0;  // 0 until RecordEngine is called
  std::uint64_t engine_sync_windows = 0;
  std::uint64_t engine_boundary_events = 0;
  std::uint64_t engine_hub_instants = 0;
  std::uint64_t engine_worker_wakeups = 0;
  std::vector<std::uint64_t> engine_shard_events;
};

// JSON block for an SLO report; attached per case and at artifact top level
// by SweepRunner::RunAll, and reusable by custom emitters.
Json SloJson(const metrics::SloReport& report);

// JSON block for a PhaseCollector's tail-blame table — same shape as
// PhaseCollector::WriteBlameJson (slo_ms, requests, violations,
// phase_sum_mismatches, rows with integer-nanosecond phase maps), built as
// a bench::Json so it can ride inside BENCH_*.json artifacts.
Json BlameJson(const metrics::PhaseCollector& collector);

// JSON block for a registry's sampled time series (the compact timeline the
// virtual-clock sampler produces): {"series":[{name, labels, points}...]}.
Json TimelineJson(const metrics::MetricRegistry& registry);

// JSON block for one log-bucketed histogram: count/sum/min/max, p50/p95/p99,
// and the non-empty buckets as [upper_bound, count] pairs (the overflow
// bucket's bound rendered as the string "+Inf"). Gives BENCH_*.json the
// full distribution behind a scalar like mttr_ms, not just its mean.
Json HistogramJson(const metrics::MetricRegistry::Histogram& h);

// Fans independent (config, seed) runs across OS threads.
//
// Each simulation is single-threaded and a pure function of its inputs, so a
// sweep of independent runs parallelizes trivially — PROVIDED each case
// constructs everything it touches (Environment, Experiment, ProfileCache,
// Profiler) inside its own callback. Nothing in src/ has mutable global
// state, and the coroutine frame pool is thread-local, so cases never
// contend. ProfileCache is NOT thread-safe: never share one across cases.
//
// Results are reported in Add() order no matter which thread finishes when,
// and each run's simulated outputs are bit-identical to a serial run (the
// golden determinism test pins this for the underlying sim). If any case
// throws, the first error in Add() order is rethrown after the sweep drains.
//
// RunAll() also writes a BENCH_<name>.json artifact with every case's
// metrics, for machine consumption by CI and plotting scripts.
class SweepRunner {
 public:
  // `name` keys the artifact: BENCH_<name>.json in the working directory.
  explicit SweepRunner(std::string name) : name_(std::move(name)) {}

  // Enqueue a case. `fn` runs on a worker thread: it must create every
  // object it uses (no shared ProfileCache!) and write only to `out` and to
  // per-case slots it exclusively owns.
  void Add(std::string case_name, std::function<void(SweepCase& out)> fn) {
    cases_.emplace_back(std::move(case_name), std::move(fn));
  }

  // Runs every queued case across `Threads()` workers, writes the JSON
  // artifact, and prints a one-line timing summary to stderr. Returns the
  // results in Add() order. An artifact that cannot be written prints
  // `error: cannot write BENCH_<name>.json` on stderr and exits with
  // status 1.
  const std::vector<SweepCase>& RunAll();

  const std::vector<SweepCase>& results() const { return results_; }
  double wall_seconds() const { return wall_seconds_; }

  // Worker count: OLYMPIAN_BENCH_THREADS if set, else the hardware
  // concurrency, capped at the number of queued cases. A set value that is
  // not one whole decimal number >= 1 prints `error: ...` on stderr and
  // exits with status 1 before any case runs.
  int Threads() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::function<void(SweepCase&)>>> cases_;
  std::vector<SweepCase> results_;
  double wall_seconds_ = 0.0;
};

}  // namespace olympian::bench
