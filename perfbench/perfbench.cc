// perfbench: the repository benchmark program.
//
// Runs one named workload through the public APIs of serving::Experiment,
// serving::Cluster and core::Profiler / core::Scheduler, times it, checks
// its simulated output, and prints one JSON document on stdout.
// perfbench/run.py builds this binary, drives it, and turns the document
// into result files and the benchmark's one-line summary.
//
//   perfbench --workload olympian-mixed --seed 13 --seconds 10 --trace 0
//
// Workloads (perfbench/spec.json records why each one is here):
//   olympian-mixed  one server, one GPU, Olympian fair share; 14 closed-loop
//                   clients, 2 per model x 7 models at the paper's batch
//                   sizes, Q from Profiler::SelectQ at 2% (the Figure 16
//                   shape).
//   cluster-chaos   16 stock TF-Serving servers; 32 open-loop
//                   Poisson googlenet@10 clients, two homed per server;
//                   crash, inbound-partition and capacity-loss windows;
//                   phase collector, incident log and router registry on.
//                   Timed at shards=1; the reference pass and the traced
//                   run run it at shards=2.
//   stream-steady   4 stock servers at shards=1; one aggregate Poisson
//                   stream standing for 100k modeled clients, googlenet@10,
//                   no faults, no sinks.
//
// --trace 0 measures the end-to-end metrics. Set-up is repeated and its
// median reported. A reference pass then runs the workload once per pass
// seed (drawn from --seed); the virtual-time metrics pool its requests.
// Whole runs then repeat for --seconds, cycling through the pass seeds, each
// timed around the Run/RunStreams call alone and scaled by a host-speed
// calibration (see below); the medians are reported.
//
// --trace 1 is the separate traced run. It keeps spans in memory around the
// set-up calls, construction and Run, puts a timing proxy around
// graph::SchedulingHooks, reads the layers' public counters and the sharded
// engine's busy/barrier-wait accessors, and measures what the tracing and
// the observability sinks cost in wall time.
//
// Every run checks its simulated output: status counts sum to the requests
// attempted and agree with the serving counters, no GPU keeps a live job
// meter, the phase identity holds when phases are collected, every repeat
// replays the first bit-identically, and cluster-chaos replays identically
// at shards=2. A failed check is listed under "errors" and fails the run.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "core/profiler.h"
#include "core/scheduler.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/server.h"

// Heap allocations made anywhere in the process, counted by replacing the
// global operator new in this binary (the bench_micro idiom).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs the replaced operator new's inlined malloc with the free below
// and warns about a mismatch; the pairing is intentional here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace olympian;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- host-speed calibration ----------------------------------------------------

// On a shared host the speed at which this kind of code runs drifts with the
// neighbours' load (by up to ~1.8x over minutes on a 4-core cloud VM).
// Every timed section is therefore preceded by a fixed, benchmark-owned
// calibration loop with the simulator's access pattern (a timestamp heap,
// indirect calls, random updates over a few MB), and the section's wall time
// is reported scaled by kCalibrationReferenceS / (calibration time): the
// time it would have taken while the loop ran at its reference speed.
// Nothing in the loop depends on the code under test, so a change to that
// code moves the scaled time as it moves the raw time; the raw times are
// reported beside the scaled ones.
constexpr double kCalibrationReferenceS = 0.050;

// Set-up repeats: olympian-mixed's profiling pass, and construct-only
// repeats timing the cluster workloads' set-up.
constexpr int kSetupReps = 3;
constexpr int kConstructReps = 20;

double CalibrationSeconds() {
  using Fn = std::uint64_t (*)(std::uint64_t);
  static const Fn kFns[] = {[](std::uint64_t v) { return v * 3 + 1; },
                            [](std::uint64_t v) { return v ^ (v >> 7); },
                            [](std::uint64_t v) { return v + 0x9e37; }};
  // Preallocated once, so the loop's speed does not depend on the heap
  // state the previous simulation run left behind.
  constexpr std::size_t kSlots = 1 << 19;  // 4 MB of hash-table slots
  static std::vector<std::uint64_t> table(kSlots);
  static std::vector<std::uint64_t> heap = [] {
    std::vector<std::uint64_t> h;
    h.reserve(4096);
    return h;
  }();
  heap.clear();
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull, acc = 0, now = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    heap.push_back(now + (x & 0xffff));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() == heap.capacity()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      now = heap.back();
      heap.pop_back();
    }
    std::uint64_t& slot = table[(x >> 11) & (kSlots - 1)];
    slot = kFns[x % 3](slot + x);
    acc += slot;
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + acc;
  return SecondsSince(t0);
}

// Runs the calibration loop and returns the factor that scales a wall time
// measured right after it to the reference host speed.
double HostScale() { return kCalibrationReferenceS / CalibrationSeconds(); }

// --- spans -------------------------------------------------------------------

// In-memory span log of the traced run: one record per timed call at a layer
// boundary the benchmark reaches from outside. Self time is a span's total
// minus the part its children cover. Hook calls are far too many to keep one
// by one, so the timing proxy's per-method totals are attached to the Run
// span as aggregate children.
struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t calls = 1;
  double total_s = 0.0;
  double child_s = 0.0;
};

class SpanLog {
 public:
  int Begin(std::string name) {
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    starts_.push_back(Clock::now());
    return open_.back();
  }
  void End() {
    const int id = open_.back();
    spans_[id].total_s = SecondsSince(starts_.back());
    open_.pop_back();
    starts_.pop_back();
    if (spans_[id].parent >= 0) spans_[spans_[id].parent].child_s += spans_[id].total_s;
  }
  void AddAggregate(int parent, std::string name, std::uint64_t calls,
                    double total_s) {
    spans_.push_back({std::move(name), parent, calls, total_s, 0.0});
    spans_[parent].child_s += total_s;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Clock::time_point> starts_;
};

// Times the enclosing scope as a span; a null log makes it a no-op, so the
// untraced runs execute the same code without recording anything.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) log_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Timing proxy around the scheduler: forwards every hook and times each
// synchronous call (for Yield, the call that creates its coroutine).
class TimedHooks final : public graph::SchedulingHooks {
 public:
  enum Method { kRegister, kDeregister, kNeedsYield, kYield, kNodeComputed,
                kCancel, kDevice, kMethodCount };
  static constexpr std::array<const char*, kMethodCount> kNames = {
      "RegisterRun", "DeregisterRun", "NeedsYield", "Yield",
      "OnNodeComputed", "CancelRun", "OnDeviceDown/Up"};
  struct Stat {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  explicit TimedHooks(graph::SchedulingHooks& inner) : inner_(inner) {}

  void RegisterRun(graph::JobContext& ctx) override {
    Timed t(stats_[kRegister]);
    inner_.RegisterRun(ctx);
  }
  void DeregisterRun(graph::JobContext& ctx) override {
    Timed t(stats_[kDeregister]);
    inner_.DeregisterRun(ctx);
  }
  bool NeedsYield(const graph::JobContext& ctx) const override {
    Timed t(stats_[kNeedsYield]);
    return inner_.NeedsYield(ctx);
  }
  sim::Task Yield(graph::JobContext& ctx) override {
    Timed t(stats_[kYield]);
    return inner_.Yield(ctx);
  }
  void OnNodeComputed(graph::JobContext& ctx, const graph::Node& node) override {
    Timed t(stats_[kNodeComputed]);
    inner_.OnNodeComputed(ctx, node);
  }
  void CancelRun(graph::JobContext& ctx) override {
    Timed t(stats_[kCancel]);
    inner_.CancelRun(ctx);
  }
  void OnDeviceDown() override {
    Timed t(stats_[kDevice]);
    inner_.OnDeviceDown();
  }
  void OnDeviceUp() override {
    Timed t(stats_[kDevice]);
    inner_.OnDeviceUp();
  }
  void OnSample(metrics::MetricRegistry& registry, sim::TimePoint now,
                std::size_t device) override {
    inner_.OnSample(registry, now, device);
  }

  const std::array<Stat, kMethodCount>& stats() const { return stats_; }

 private:
  struct Timed {
    explicit Timed(Stat& s) : stat(s) {}
    ~Timed() {
      ++stat.calls;
      stat.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - t0)
                     .count();
    }
    Stat& stat;
    Clock::time_point t0 = Clock::now();
  };

  graph::SchedulingHooks& inner_;
  mutable std::array<Stat, kMethodCount> stats_{};
};

// --- one simulated run -----------------------------------------------------

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= v & 0xffu;
      h_ *= 1099511628211ull;
      v >>= 8;
    }
  }
  void Add(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

struct RunConfig {
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  bool sinks = false;
  SpanLog* spans = nullptr;  // non-null: the traced run
  bool construct_only = false;  // cluster workloads: stop after construction
};

struct RunResult {
  // Virtual-time outputs, one entry per request attempted.
  std::vector<double> latency_ms;
  std::vector<serving::RequestStatus> status;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  // Host cost.
  double construct_s = 0.0;
  double run_s = 0.0;
  std::uint64_t run_allocs = 0;
  // Failed output checks; empty when the run is correct.
  std::vector<std::string> errors;
  // Raw per-layer counters read through public accessors after the run.
  std::map<std::string, double> raw;
  // Per-request mean of each phase (ms), when phases were collected.
  std::map<std::string, double> phase_ms;
  // olympian-mixed only: max/min over clients of mean GPU duration per
  // quantum over full-occupancy quanta (0 elsewhere).
  double share_spread = 0.0;
  // Hook self time (s) summed over every call through the timing proxy.
  double hook_s = 0.0;
};

// Appends every request of `results` to `out`, folds them into the
// fingerprint, and checks the per-result invariants.
template <class Result>
void CollectRequests(const std::vector<Result>& results, Fnv1a& fp,
                     RunResult& out) {
  for (const Result& r : results) {
    fp.Add(static_cast<std::uint64_t>(r.finish_time.nanos()));
    if (r.request_latency_ms.size() != r.request_status.size()) {
      out.errors.push_back(r.name + ": latency and status counts differ");
    }
    for (std::size_t i = 0; i < r.request_status.size(); ++i) {
      const double ms =
          i < r.request_latency_ms.size() ? r.request_latency_ms[i] : 0.0;
      fp.Add(static_cast<std::uint64_t>(r.request_status[i]));
      fp.Add(ms);
      out.latency_ms.push_back(ms);
      out.status.push_back(r.request_status[i]);
    }
  }
}

// Status counts must sum to the requests attempted, and the serving layer's
// own outcome counters must agree with them.
void CheckConservation(std::size_t expected, std::uint64_t counted_by_layer,
                       RunResult& out) {
  std::array<std::uint64_t, 5> by_status{};
  for (const auto s : out.status) {
    const auto k = static_cast<std::size_t>(s);
    if (k < by_status.size()) {
      ++by_status[k];
    } else {
      out.errors.push_back("request with an unknown status");
    }
  }
  std::uint64_t sum = 0;
  for (const auto n : by_status) sum += n;
  if (sum != expected || out.status.size() != expected) {
    out.errors.push_back("status counts sum to " + std::to_string(sum) +
                         ", expected " + std::to_string(expected));
  }
  if (counted_by_layer != expected) {
    out.errors.push_back("serving counters total " +
                         std::to_string(counted_by_layer) + ", expected " +
                         std::to_string(expected));
  }
}

// Reads one server's layer counters into `raw` and checks that no GPU kept
// a live job meter.
void AddServerLayers(serving::Experiment& exp, RunResult& out) {
  auto& raw = out.raw;
  for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
    const gpusim::Gpu& gpu = exp.gpu(g);
    raw["gpu.kernels"] += static_cast<double>(gpu.kernels_completed());
    raw["gpu.kernels_failed"] += static_cast<double>(gpu.kernels_failed());
    raw["gpu.waves"] += static_cast<double>(gpu.waves_dispatched());
    raw["gpu.waves_coalesced"] += static_cast<double>(gpu.waves_coalesced());
    raw["gpu.queue_wait_us"] += gpu.TotalQueueWait().micros();
    raw["gpu.dequeued"] += static_cast<double>(gpu.kernels_dequeued());
    raw["gpu.busy_s"] += gpu.TotalBusy().seconds();
    raw["gpu.count"] += 1.0;
    if (gpu.live_job_meters() != 0) {
      out.errors.push_back("GPU kept " + std::to_string(gpu.live_job_meters()) +
                           " live job meters");
    }
    graph::Executor& ex = exp.executor(g);
    raw["graph.nodes"] += static_cast<double>(ex.nodes_executed());
    raw["graph.cancelled"] += static_cast<double>(ex.nodes_cancelled());
  }
  raw["graph.pool_items"] += static_cast<double>(exp.pool().items_executed());
  raw["graph.pool_peak_busy"] =
      std::max(raw["graph.pool_peak_busy"],
               static_cast<double>(exp.pool().peak_busy_workers()));
  const metrics::ServingCounters& c = exp.counters();
  raw["serving.requests"] += static_cast<double>(c.requests_total());
  raw["serving.retries"] += static_cast<double>(c.retries);
  raw["serving.failovers"] += static_cast<double>(c.requests_failed_over);
  raw["serving.hedges"] += static_cast<double>(c.hedges_launched);
  raw["serving.shed"] += static_cast<double>(c.requests_shed);
}

void ReadPhases(const metrics::PhaseCollector& phases, RunResult& out) {
  if (phases.mismatches() != 0) {
    out.errors.push_back(std::to_string(phases.mismatches()) +
                         " phase-sum mismatches");
  }
  std::array<double, metrics::kPhaseCount> ns{};
  for (const auto& [key, row] : phases.rows()) {
    for (int p = 0; p < metrics::kPhaseCount; ++p) {
      ns[static_cast<std::size_t>(p)] +=
          static_cast<double>(row.total_ns[static_cast<std::size_t>(p)]);
    }
  }
  const double n = static_cast<double>(phases.requests());
  for (int p = 0; p < metrics::kPhaseCount; ++p) {
    out.phase_ms[metrics::PhaseName(static_cast<metrics::Phase>(p))] =
        Ratio(ns[static_cast<std::size_t>(p)], n) / 1e6;
  }
}

// --- olympian-mixed -----------------------------------------------------

constexpr int kOlympianClientsPerModel = 2;
constexpr int kOlympianBatchesPerClient = 10;
constexpr double kOlympianTolerance = 0.020;

// Offline set-up of the Olympian server: profile every model, measure its
// Overhead-Q curve, select Q and derive the per-model thresholds.
struct OlympianSetup {
  std::vector<core::ModelProfile> profiles;
  std::vector<double> thresholds;
  sim::Duration q;
  double profile_s = 0.0;
  double curve_s = 0.0;
};

OlympianSetup SetupOlympian(SpanLog* spans) {
  ScopedSpan setup(spans, "setup");
  OlympianSetup s;
  core::Profiler profiler;
  for (const models::ModelSpec& spec : models::AllModels()) {
    auto t0 = Clock::now();
    {
      ScopedSpan span(spans, "Profiler::ProfileModel");
      s.profiles.push_back(profiler.ProfileModel(spec.name, spec.paper_batch));
    }
    s.profile_s += SecondsSince(t0);
    t0 = Clock::now();
    {
      ScopedSpan span(spans, "Profiler::ComputeOverheadQCurve");
      profiler.ComputeOverheadQCurve(s.profiles.back());
    }
    s.curve_s += SecondsSince(t0);
  }
  std::vector<const core::ModelProfile*> all;
  for (const auto& p : s.profiles) all.push_back(&p);
  {
    ScopedSpan span(spans, "Profiler::SelectQ");
    s.q = core::Profiler::SelectQ(all, kOlympianTolerance);
  }
  ScopedSpan span(spans, "Profiler::ThresholdFor");
  for (const auto& p : s.profiles) {
    s.thresholds.push_back(core::Profiler::ThresholdFor(p, s.q));
  }
  return s;
}

std::vector<serving::ClientSpec> OlympianClients() {
  std::vector<serving::ClientSpec> clients;
  for (const models::ModelSpec& spec : models::AllModels()) {
    for (int k = 0; k < kOlympianClientsPerModel; ++k) {
      clients.push_back({.model = spec.name,
                         .batch = spec.paper_batch,
                         .num_batches = kOlympianBatchesPerClient});
    }
  }
  return clients;
}

// Max/min over clients of the mean GPU duration per quantum, over quanta
// that ended with every client registered (Figure 16).
double ShareSpread(const core::Scheduler& sched, std::size_t clients) {
  std::map<gpusim::JobId, std::pair<double, int>> per_job;
  for (const auto& rec : sched.quantum_log()) {
    if (rec.active_jobs != clients) continue;
    auto& [sum, n] = per_job[rec.job];
    sum += rec.gpu_duration.micros();
    ++n;
  }
  double lo = 0.0, hi = 0.0;
  for (const auto& [job, acc] : per_job) {
    const double mean = acc.first / acc.second;
    lo = lo == 0.0 ? mean : std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  return per_job.size() == clients ? Ratio(hi, lo) : 0.0;
}

RunResult RunOlympianMixed(const OlympianSetup& setup, const RunConfig& cfg) {
  const auto clients = OlympianClients();
  RunResult out;
  metrics::MetricRegistry registry;
  metrics::PhaseCollector phases(metrics::PhaseCollector::Options{
      .slo_ms = 0.0, .registry = &registry});

  serving::ServerOptions opts;
  opts.seed = cfg.seed;
  if (cfg.sinks) {
    opts.observability.registry = &registry;
    opts.observability.phases = &phases;
  }
  auto t0 = Clock::now();
  std::unique_ptr<serving::Experiment> exp;
  std::unique_ptr<core::Scheduler> sched;
  {
    ScopedSpan span(cfg.spans, "construct");
    exp = std::make_unique<serving::Experiment>(opts);
    core::Scheduler::Options sopts;
    sopts.seed = cfg.seed * 1000003u + 99u;
    sched = std::make_unique<core::Scheduler>(
        exp->env(), exp->gpu(), core::MakePolicy("fair"), sopts);
    for (std::size_t i = 0; i < setup.profiles.size(); ++i) {
      sched->SetProfile(setup.profiles[i].key, &setup.profiles[i].cost,
                        setup.thresholds[i]);
    }
  }
  out.construct_s = SecondsSince(t0);
  TimedHooks proxy(*sched);
  exp->SetHooks(cfg.spans != nullptr ? static_cast<graph::SchedulingHooks*>(&proxy)
                                     : sched.get());

  std::vector<serving::ClientResult> results;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  t0 = Clock::now();
  {
    ScopedSpan span(cfg.spans, "Experiment::Run");
    results = exp->Run(clients);
  }
  out.run_s = SecondsSince(t0);
  out.run_allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  if (cfg.spans != nullptr) {
    const int run_span = static_cast<int>(cfg.spans->spans().size()) - 1;
    for (int m = 0; m < TimedHooks::kMethodCount; ++m) {
      const auto& st = proxy.stats()[static_cast<std::size_t>(m)];
      if (st.calls == 0) continue;
      cfg.spans->AddAggregate(run_span,
                              std::string("SchedulingHooks::") +
                                  TimedHooks::kNames[static_cast<std::size_t>(m)],
                              st.calls, static_cast<double>(st.ns) / 1e9);
      out.raw["core.hook_calls"] += static_cast<double>(st.calls);
      out.hook_s += static_cast<double>(st.ns) / 1e9;
    }
  }

  Fnv1a fp;
  CollectRequests(results, fp, out);
  out.events = exp->env().events_executed();
  fp.Add(out.events);
  out.fingerprint = fp.value();
  CheckConservation(clients.size() * kOlympianBatchesPerClient,
                    exp->counters().requests_total(), out);
  AddServerLayers(*exp, out);
  if (cfg.sinks) ReadPhases(phases, out);
  out.raw["core.switches"] = static_cast<double>(sched->switches());
  out.raw["sim.makespan_s"] = exp->makespan().seconds();
  out.share_spread = ShareSpread(*sched, clients.size());
  return out;
}

// --- cluster workloads ---------------------------------------------------

constexpr std::size_t kChaosServers = 16;
// Shard count of cluster-chaos's reference pass and traced run. Its timed
// repeats run unsharded: on a 4-vCPU VM shared with other load, sharded
// repeats came out bimodal (2-4x apart) at shards=3 and at shards=2, too
// noisy for an end-to-end bound.
constexpr std::size_t kChaosShards = 2;
constexpr int kChaosRequestsPerClient = 6;
constexpr double kChaosClientRps = 2.0;

constexpr std::size_t kStreamServers = 4;
constexpr int kStreamRequests = 160;
constexpr double kStreamRps = 15.0;
constexpr std::uint64_t kStreamModeledClients = 100000;

serving::ClientSpec GooglenetRequest(int count) {
  return serving::ClientSpec{
      .model = "googlenet", .batch = 10, .num_batches = count};
}

// The chaos schedule, spread over the arrival horizon: two crashes, an
// inbound partition and two capacity-loss (gray) windows, each on its own
// server and, at kChaosShards=2 (server s on shard s % 2), on both worker
// shards.
fault::ServerFaultPlan ChaosFaults() {
  const double horizon_s = kChaosRequestsPerClient / kChaosClientRps;
  const auto len = [&](double frac) {
    return sim::Duration::Seconds(frac * horizon_s);
  };
  const auto at = [&](double frac) { return sim::TimePoint() + len(frac); };
  fault::ServerFaultPlan plan;
  plan.Crash(at(0.10), len(0.12), /*server=*/0);
  plan.CapacityLoss(at(0.20), len(0.25), /*server=*/4, /*capacity=*/0.4);
  plan.Partition(at(0.35), len(0.10), /*server=*/8,
                 fault::PartitionDirection::kToServer);
  plan.Crash(at(0.55), len(0.10), /*server=*/13);
  plan.CapacityLoss(at(0.70), len(0.15), /*server=*/11, /*capacity=*/0.5);
  return plan;
}

serving::ClusterOptions ClusterBase(std::size_t servers, const RunConfig& cfg) {
  serving::ClusterOptions opts;
  opts.num_servers = servers;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = cfg.seed;
  opts.shards = cfg.shards;
  return opts;
}

// Reads the cluster-level layer counters shared by both cluster workloads.
void AddClusterLayers(serving::Cluster& cluster, RunResult& out) {
  for (std::size_t s = 0; s < cluster.num_servers(); ++s) {
    AddServerLayers(cluster.server(s), out);
  }
  auto& raw = out.raw;
  const sim::ShardedEngine& eng = cluster.engine();
  raw["shard.sync_windows"] = static_cast<double>(eng.sync_windows());
  raw["shard.hub_instants"] = static_cast<double>(eng.hub_instants());
  raw["shard.boundary_events"] = static_cast<double>(eng.boundary_events());
  double busy = 0.0, wait = 0.0, total = 0.0, worst = 0.0;
  for (std::size_t k = 0; k < eng.shards(); ++k) {
    busy += static_cast<double>(eng.shard_busy_wall_ns(k)) / 1e9;
    wait += static_cast<double>(eng.shard_barrier_wait_wall_ns(k)) / 1e9;
    const double ev = static_cast<double>(eng.shard_events(k));
    total += ev;
    worst = std::max(worst, ev);
  }
  raw["shard.busy_s"] = busy;
  raw["shard.wait_s"] = wait;
  raw["shard.imbalance"] =
      total > 0.0 ? worst * static_cast<double>(eng.shards()) / total : 1.0;
  const metrics::RouterCounters& rc = cluster.counters();
  raw["router.failovers"] = static_cast<double>(rc.requests_failed_over);
  raw["router.retries"] = static_cast<double>(rc.retries);
  raw["router.probes"] = static_cast<double>(rc.probes_sent);
  raw["router.server_down_events"] = static_cast<double>(rc.server_down_events);
  raw["sim.makespan_s"] = cluster.makespan().seconds();
}

// Runs one cluster workload: `run` issues the traffic on the constructed
// cluster and returns its per-client or per-stream results.
template <class Results>
RunResult RunCluster(serving::ClusterOptions opts, const RunConfig& cfg,
                     std::size_t expected,
                     const std::function<Results(serving::Cluster&)>& run) {
  RunResult out;
  metrics::MetricRegistry registry;
  metrics::PhaseCollector phases(metrics::PhaseCollector::Options{
      .slo_ms = 0.0, .registry = &registry});
  metrics::IncidentLog incidents;
  if (cfg.sinks) {
    incidents.Enable();
    opts.registry = &registry;
    opts.phases = &phases;
    opts.incidents = &incidents;
  }
  auto t0 = Clock::now();
  std::unique_ptr<serving::Cluster> cluster;
  {
    ScopedSpan span(cfg.spans, "construct");
    cluster = std::make_unique<serving::Cluster>(opts);
  }
  out.construct_s = SecondsSince(t0);
  if (cfg.construct_only) return out;

  Results results;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  t0 = Clock::now();
  {
    ScopedSpan span(cfg.spans, "Cluster::Run");
    results = run(*cluster);
  }
  out.run_s = SecondsSince(t0);
  out.run_allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  Fnv1a fp;
  CollectRequests(results, fp, out);
  out.events = cluster->engine().events_executed();
  fp.Add(out.events);
  out.fingerprint = fp.value();
  CheckConservation(expected, cluster->counters().requests_total(), out);
  AddClusterLayers(*cluster, out);
  if (cfg.sinks) ReadPhases(phases, out);
  return out;
}

RunResult RunClusterChaos(const RunConfig& cfg) {
  serving::ClusterOptions opts = ClusterBase(kChaosServers, cfg);
  opts.faults = ChaosFaults();
  serving::ClusterClientSpec client;
  client.request = GooglenetRequest(kChaosRequestsPerClient);
  client.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  client.arrivals.rate_rps = kChaosClientRps;
  const std::vector<serving::ClusterClientSpec> clients(2 * kChaosServers,
                                                        client);
  return RunCluster<std::vector<serving::ClusterClientResult>>(
      opts, cfg, clients.size() * kChaosRequestsPerClient,
      [&](serving::Cluster& c) { return c.Run(clients); });
}

RunResult RunStreamSteady(const RunConfig& cfg) {
  serving::ClusterStreamSpec stream;
  stream.request = GooglenetRequest(1);
  stream.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  stream.arrivals.rate_rps = kStreamRps;
  stream.modeled_clients = kStreamModeledClients;
  stream.num_requests = kStreamRequests;
  return RunCluster<std::vector<serving::ClusterStreamResult>>(
      ClusterBase(kStreamServers, cfg), cfg, kStreamRequests,
      [&](serving::Cluster& c) { return c.RunStreams({stream}); });
}

// --- workloads ---------------------------------------------------------------

// Pass p of a run: the same workload on a seed derived from the run seed
// (pass 0 uses the run seed itself).
RunConfig PassConfig(RunConfig cfg, int p) {
  cfg.seed += static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ull;
  return cfg;
}

struct Workload {
  std::string name;
  // Shard count of the reference pass and the traced run; the unsharded
  // timed repeats must fingerprint identically to the reference pass.
  std::size_t replay_shards = 1;
  bool sinks = false;
  // Runs per reference pass, each on its own seed drawn from the run seed;
  // the virtual-time metrics pool their requests.
  int passes = 1;
  // Set-up before Run (olympian-mixed only; it stores its result in the
  // state MakeWorkload was given). The cluster workloads set up nothing
  // beyond construction.
  std::function<void(SpanLog*)> setup;
  std::function<RunResult(const RunConfig&)> run;
};

Workload MakeWorkload(const std::string& name,
                      std::shared_ptr<OlympianSetup>& olympian) {
  if (name == "olympian-mixed") {
    return Workload{
        .name = name,
        .sinks = false,
        .passes = 2,
        .setup = [&olympian](SpanLog* spans) {
          olympian = std::make_shared<OlympianSetup>(SetupOlympian(spans));
        },
        .run = [&olympian](const RunConfig& cfg) {
          return RunOlympianMixed(*olympian, cfg);
        }};
  }
  if (name == "cluster-chaos") {
    return Workload{.name = name,
                    .replay_shards = kChaosShards,
                    .sinks = true,
                    .passes = 5,
                    .setup = nullptr,
                    .run = RunClusterChaos};
  }
  if (name == "stream-steady") {
    return Workload{.name = name,
                    .sinks = false,
                    .passes = 6,
                    .setup = nullptr,
                    .run = RunStreamSteady};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// The highest percentile of a fixed ladder with at least ten samples
// beyond it.
struct Tail {
  double percentile = 50.0;
  std::size_t beyond = 0;
  double value_ms = 0.0;
};

Tail TailOf(const std::vector<double>& sorted) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0,
                                       50.0};
  const std::size_t n = sorted.size();
  for (const double p : kLadder) {
    const auto at = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= at && n - at >= 10) return {p, n - at, Percentile(sorted, p)};
  }
  return {50.0, n / 2, Percentile(sorted, 50.0)};
}

struct VirtualSummary {
  double p50_ms = 0.0;
  Tail tail;
  double goodput = 0.0;
  double failed_frac = 0.0;
};

VirtualSummary Summarize(const RunResult& r, double limit_ms) {
  VirtualSummary s;
  // Latency percentiles cover the requests that were served (kOk, or
  // kFailedRetried: served after a retry). A failed or refused request
  // misses the latency limit, so it counts against goodput instead.
  std::vector<double> sorted;
  std::size_t good = 0, failed = 0;
  for (std::size_t i = 0; i < r.status.size(); ++i) {
    const bool ok = r.status[i] == serving::RequestStatus::kOk;
    failed += ok ? 0 : 1;
    good += ok && r.latency_ms[i] <= limit_ms ? 1 : 0;
    if (ok || r.status[i] == serving::RequestStatus::kFailedRetried) {
      sorted.push_back(r.latency_ms[i]);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  s.p50_ms = Percentile(sorted, 50.0);
  s.tail = TailOf(sorted);
  const double n = static_cast<double>(r.status.size());
  s.goodput = Ratio(static_cast<double>(good), n);
  s.failed_frac = Ratio(static_cast<double>(failed), n);
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Per-layer metrics of one traced run (see perfbench/spec.json for what
// each one should move, and on which workload).
std::vector<Metric> LayerMetrics(const RunResult& r, const RunResult& plain,
                                 const RunResult& flipped, bool sinks_on,
                                 const OlympianSetup* olympian) {
  const auto raw = [&](const char* k) {
    const auto it = r.raw.find(k);
    return it == r.raw.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(r.status.size());
  const double events = static_cast<double>(r.events);
  const double kernels = raw("gpu.kernels");
  const double waves = raw("gpu.waves");
  const double nodes = raw("graph.nodes");
  const double hook_calls = raw("core.hook_calls");
  // Sinks on vs off, whichever way round the workload runs them.
  const double on_s = sinks_on ? plain.run_s : flipped.run_s;
  const double off_s = sinks_on ? flipped.run_s : plain.run_s;
  const double sink_share = sinks_on ? Ratio(on_s - off_s, on_s) : 0.0;
  std::vector<Metric> m = {
      {"sim.events_per_request", Ratio(events, n), "count"},
      {"sim.events_per_wall_s", Ratio(events, plain.run_s), "1/s"},
      {"sim.allocs_per_event", Ratio(static_cast<double>(plain.run_allocs), events),
       "count"},
      {"shard.busy_frac",
       Ratio(raw("shard.busy_s"), raw("shard.busy_s") + raw("shard.wait_s")),
       "fraction"},
      {"shard.barrier_wait_ms", raw("shard.wait_s") * 1e3, "ms"},
      {"shard.sync_windows_per_request", Ratio(raw("shard.sync_windows"), n),
       "count"},
      {"shard.hub_instants_per_request", Ratio(raw("shard.hub_instants"), n),
       "count"},
      {"shard.boundary_events_per_request",
       Ratio(raw("shard.boundary_events"), n), "count"},
      {"shard.imbalance", r.raw.count("shard.imbalance") ? raw("shard.imbalance") : 1.0,
       "ratio"},
      {"gpusim.kernels_per_request", Ratio(kernels, n), "count"},
      {"gpusim.waves_per_kernel", Ratio(waves, kernels), "ratio"},
      {"gpusim.coalesced_frac", Ratio(raw("gpu.waves_coalesced"), waves),
       "fraction"},
      {"gpusim.kernels_failed", raw("gpu.kernels_failed"), "count"},
      {"gpusim.queue_wait_us", Ratio(raw("gpu.queue_wait_us"), raw("gpu.dequeued")),
       "us"},
      {"gpusim.utilization",
       Ratio(raw("gpu.busy_s"), raw("gpu.count") * raw("sim.makespan_s")),
       "fraction"},
      {"graph.nodes_per_request", Ratio(nodes, n), "count"},
      {"graph.pool_items_per_request", Ratio(raw("graph.pool_items"), n),
       "count"},
      {"graph.pool_peak_busy", raw("graph.pool_peak_busy"), "count"},
      {"graph.cancelled_frac",
       Ratio(raw("graph.cancelled"), nodes + raw("graph.cancelled")),
       "fraction"},
      {"core.hook_calls_per_request", Ratio(hook_calls, n), "count"},
      {"core.hook_ns_per_call", Ratio(r.hook_s * 1e9, hook_calls), "ns"},
      {"core.hook_share", Ratio(r.hook_s, r.run_s), "fraction"},
      {"core.switches_per_request", Ratio(raw("core.switches"), n), "count"},
      {"core.profile_s", olympian != nullptr ? olympian->profile_s : 0.0, "s"},
      {"core.curve_s", olympian != nullptr ? olympian->curve_s : 0.0, "s"},
      {"core.selected_q_us", olympian != nullptr ? olympian->q.micros() : 0.0,
       "us"},
      {"serving.attempts_per_request",
       Ratio(raw("serving.requests") + raw("serving.retries"), n), "count"},
      {"serving.retries", raw("serving.retries"), "count"},
      {"serving.failovers", raw("serving.failovers"), "count"},
      {"serving.hedges", raw("serving.hedges"), "count"},
      {"serving.shed", raw("serving.shed"), "count"},
      {"router.failovers", raw("router.failovers"), "count"},
      {"router.retries", raw("router.retries"), "count"},
      {"router.probes_per_request", Ratio(raw("router.probes"), n), "count"},
      {"router.server_down_events", raw("router.server_down_events"), "count"},
      {"cluster.construct_s", plain.construct_s, "s"},
  };
  // Phases come from whichever of the two runs collected them.
  const RunResult& with_phases = sinks_on ? r : flipped;
  for (int p = 0; p < metrics::kPhaseCount; ++p) {
    const char* name = metrics::PhaseName(static_cast<metrics::Phase>(p));
    const auto it = with_phases.phase_ms.find(name);
    m.push_back({std::string("phase.") + name + "_ms",
                 it == with_phases.phase_ms.end() ? 0.0 : it->second, "ms"});
  }
  m.push_back({"metrics.overhead_frac", Ratio(on_s - off_s, off_s), "fraction"});
  m.push_back({"run.unattributed_share",
               1.0 - Ratio(r.hook_s, r.run_s) - sink_share, "fraction"});
  return m;
}

// --- output ------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", " : "") + Quote(ms[i].name) + ": {\"value\": " +
         Num(ms[i].value) + ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  return s + "}";
}

std::string SamplesJson(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
  return s + "]";
}

std::string HostJson() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + Quote(std::string("GCC-compatible ") + __VERSION__) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") + "}";
}

bool TimingBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Virtual-time latency limit for goodput (the workload's, from spec.json).
  double latency_limit_ms = 0.0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--latency-limit-ms") {
      a.latency_limit_ms = std::stod(v);
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.latency_limit_ms > 0.0)) {
    throw std::invalid_argument("--latency-limit-ms must be positive");
  }
  return a;
}

// Runs checks shared by both modes on a repeat of the reference run.
void CheckRepeat(const RunResult& ref, RunResult& r) {
  if (r.fingerprint != ref.fingerprint) {
    r.errors.push_back("repeat fingerprint " + Hex(r.fingerprint) +
                       " differs from the first run's " + Hex(ref.fingerprint));
  }
}

struct Tally {
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void Add(const RunResult& r) {
    ++runs;
    if (!r.errors.empty()) ++failed;
    for (const auto& e : r.errors) {
      if (errors.size() < 20) errors.push_back(e);
    }
  }
  std::string Json() const {
    std::string s = "\"runs\": " + std::to_string(runs) +
                    ", \"failed_runs\": " + std::to_string(failed) +
                    ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      s += (i ? ", " : "") + Quote(errors[i]);
    }
    return s + "]";
  }
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!TimingBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a build without "
                 "optimisation and NDEBUG; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  std::shared_ptr<OlympianSetup> olympian;
  const Workload w = MakeWorkload(args.workload, olympian);
  const RunConfig base{.seed = args.seed,
                       .shards = args.trace ? w.replay_shards : 1,
                       .sinks = w.sinks};
  Tally tally;

  std::string body;
  if (!args.trace) {
    // Set-up, repeated; setup_s is the median of the scaled repeats. The
    // cluster workloads set up nothing beyond construction: theirs is timed
    // by construct-only repeats here and by every timed repeat below.
    std::vector<double> setup_s, setup_raw_s;
    for (int i = 0; i < (w.setup ? kSetupReps : kConstructReps); ++i) {
      const double scale = HostScale();
      const auto t0 = Clock::now();
      if (w.setup) {
        w.setup(nullptr);
        setup_raw_s.push_back(SecondsSince(t0));
      } else {
        RunConfig cfg = base;
        cfg.construct_only = true;
        setup_raw_s.push_back(w.run(cfg).construct_s);
      }
      setup_s.push_back(setup_raw_s.back() * scale);
    }
    // The reference pass: one run per pass seed, at the workload's replay
    // shard count. Caches fill and lazy set-up finishes here, before any
    // timing; the virtual-time metrics pool every pass's requests; every
    // (unsharded) timed repeat must replay its pass bit-identically. The
    // process high-water mark is read after it, so it covers set-up and the
    // runs, not allocator growth across the repeats.
    std::vector<RunResult> refs;
    RunResult pooled;
    Fnv1a run_fp;
    std::vector<double> spreads;
    for (int p = 0; p < w.passes; ++p) {
      RunConfig cfg = PassConfig(base, p);
      cfg.shards = w.replay_shards;
      refs.push_back(w.run(cfg));
      tally.Add(refs.back());
      const RunResult& r = refs.back();
      pooled.latency_ms.insert(pooled.latency_ms.end(), r.latency_ms.begin(),
                               r.latency_ms.end());
      pooled.status.insert(pooled.status.end(), r.status.begin(),
                           r.status.end());
      run_fp.Add(r.fingerprint);
      spreads.push_back(r.share_spread);
    }
    const double peak_rss_mb = PeakRssMb();
    // Timed repeats cycle through the passes for --seconds.
    std::vector<double> wall_us, wall_raw_us, allocs, scales;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; wall_us.empty() || SecondsSince(t0) < args.seconds;
         ++i) {
      const int p = static_cast<int>(i % refs.size());
      scales.push_back(HostScale());
      RunResult r = w.run(PassConfig(base, p));
      CheckRepeat(refs[static_cast<std::size_t>(p)], r);
      tally.Add(r);
      const double n = static_cast<double>(r.status.size());
      wall_raw_us.push_back(r.run_s * 1e6 / n);
      wall_us.push_back(wall_raw_us.back() * scales.back());
      allocs.push_back(static_cast<double>(r.run_allocs) / n);
      if (!w.setup) {
        setup_raw_s.push_back(r.construct_s);
        setup_s.push_back(r.construct_s * scales.back());
      }
    }
    const VirtualSummary v = Summarize(pooled, args.latency_limit_ms);
    std::vector<Metric> m = {
        {"wall_us_per_request", Median(wall_us), "us"},
        {"setup_s", Median(setup_s), "s"},
        {"wall_us_per_request_raw", Median(wall_raw_us), "us"},
        {"setup_s_raw", Median(setup_raw_s), "s"},
        {"host_scale", Median(scales), "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"allocs_per_request", Median(allocs), "count"},
        {"sim_p50_ms", v.p50_ms, "ms"},
        {"sim_tail_ms", v.tail.value_ms, "ms"},
        {"goodput", v.goodput, "fraction"},
        {"failed_frac", v.failed_frac, "fraction"},
    };
    if (Median(spreads) > 0.0) {
      m.push_back({"gpu_share_spread", Median(spreads), "ratio"});
    }
    body = "\"metrics\": " + MetricsJson(m) +
           ", \"sim_tail\": {\"percentile\": " + Num(v.tail.percentile) +
           ", \"samples_beyond\": " + std::to_string(v.tail.beyond) +
           ", \"samples\": " + std::to_string(pooled.status.size()) + "}" +
           ", \"samples\": {\"wall_us_per_request\": " + SamplesJson(wall_us) +
           ", \"wall_us_per_request_raw\": " + SamplesJson(wall_raw_us) +
           ", \"setup_s\": " + SamplesJson(setup_s) +
           ", \"setup_s_raw\": " + SamplesJson(setup_raw_s) +
           ", \"host_scale\": " + SamplesJson(scales) +
           ", \"allocs_per_request\": " + SamplesJson(allocs) + "}" +
           ", \"fingerprint\": " + Quote(Hex(run_fp.value())) +
           ", \"passes\": " + std::to_string(w.passes) +
           ", \"requests\": " + std::to_string(pooled.status.size());
  } else {
    SpanLog spans;
    if (w.setup) w.setup(&spans);
    // Untraced, traced and sinks-flipped runs alternate for --seconds. The
    // first traced run's spans are kept; later traced runs record into a
    // scratch log so the kept one stays one run long. The per-layer numbers
    // come from the median traced run. Host times of these runs are scaled
    // to the reference host speed like the end-to-end ones; the spans keep
    // raw wall time.
    SpanLog scratch;
    RunConfig flipped = base;
    flipped.sinks = !base.sinks;
    const auto scaled_run = [&](RunConfig cfg, SpanLog* log) {
      cfg.spans = log;
      const double scale = HostScale();
      RunResult r = w.run(cfg);
      r.run_s *= scale;
      r.construct_s *= scale;
      r.hook_s *= scale;
      return r;
    };
    RunResult ref = w.run(base);
    tally.Add(ref);
    std::vector<RunResult> plain_runs, traced_runs, flipped_runs;
    const auto t0 = Clock::now();
    while (plain_runs.empty() ||
           (SecondsSince(t0) < args.seconds && plain_runs.size() < 25)) {
      plain_runs.push_back(scaled_run(base, nullptr));
      traced_runs.push_back(
          scaled_run(base, traced_runs.empty() ? &spans : &scratch));
      flipped_runs.push_back(scaled_run(flipped, nullptr));
      CheckRepeat(ref, plain_runs.back());
      CheckRepeat(ref, traced_runs.back());
      tally.Add(plain_runs.back());
      tally.Add(traced_runs.back());
      tally.Add(flipped_runs.back());
    }
    const auto median_run = [](std::vector<RunResult>& runs) -> RunResult& {
      std::sort(runs.begin(), runs.end(),
                [](const RunResult& a, const RunResult& b) { return a.run_s < b.run_s; });
      return runs[runs.size() / 2];
    };
    RunResult& plain = median_run(plain_runs);
    RunResult& tr = median_run(traced_runs);
    RunResult& flip = median_run(flipped_runs);
    const std::vector<Metric> m =
        LayerMetrics(tr, plain, flip, base.sinks, olympian.get());
    std::string span_json = "[";
    const auto& all = spans.spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      span_json += std::string(i ? ", " : "") + "{\"name\": " + Quote(s.name) +
                   ", \"parent\": " + std::to_string(s.parent) +
                   ", \"calls\": " + std::to_string(s.calls) +
                   ", \"total_ms\": " + Num(s.total_s * 1e3) +
                   ", \"self_ms\": " + Num((s.total_s - s.child_s) * 1e3) + "}";
    }
    span_json += "]";
    body = "\"metrics\": " + MetricsJson(m) + ", \"spans\": " + span_json +
           ", \"traced_run_ms\": " + Num(tr.run_s * 1e3) +
           ", \"untraced_run_ms\": " + Num(plain.run_s * 1e3) +
           ", \"tracing_overhead_frac\": " +
           Num(Ratio(tr.run_s - plain.run_s, plain.run_s)) +
           ", \"fingerprint\": " + Quote(Hex(ref.fingerprint)) +
           ", \"requests\": " + std::to_string(ref.status.size());
  }
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"host\": %s, "
              "%s, %s}\n",
              Quote(w.name).c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, HostJson().c_str(), tally.Json().c_str(),
              body.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
