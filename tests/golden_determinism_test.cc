// Golden determinism regression test: the Fig-11 workload (homogeneous
// Inception clients, stock TF-Serving and Olympian fair sharing) replayed
// with a fixed seed must produce bit-identical per-client finish times,
// events_executed, and scheduler counters — both run-to-run within one build
// and against golden values recorded before the event-queue/allocator
// rewrite. This is the gate that lets the simulation kernel be optimized
// freely: any reordering of same-instant events or change in stochastic
// stream consumption shows up here as an exact mismatch.
//
// Runs in both CI jobs (Release and OLYMPIAN_SANITIZE=ON); sanitizers do not
// perturb virtual-clock arithmetic, so the same constants hold.
//
// To regenerate after an *intentional* semantic change, run with
// OLYMPIAN_GOLDEN_PRINT=1 and paste the emitted block below. Each pinned
// struct prints in the designated-initializer form its constant is written
// in, through the same PrintTo that gtest uses for a failing EXPECT_EQ, so a
// failure names the field that moved.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/router.h"
#include "serving/server.h"

namespace olympian {
namespace {

// Writes `{.name = value, ...}`: vectors as brace lists, hashes in hex.
class Designated {
 public:
  explicit Designated(std::ostream* os) : os_(*os) {}
  ~Designated() { os_ << '}'; }
  Designated(const Designated&) = delete;
  Designated& operator=(const Designated&) = delete;

  template <typename T>
  Designated& operator()(const char* name, const T& value) {
    Name(name);
    Put(value);
    return *this;
  }
  Designated& Hex(const char* name, std::uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    Name(name);
    os_ << buf;
    return *this;
  }

 private:
  void Name(const char* name) {
    os_ << (first_ ? "{." : ", .") << name << " = ";
    first_ = false;
  }
  template <typename T>
  void Put(const T& v) {
    os_ << v;
  }
  template <typename T>
  void Put(const std::vector<T>& v) {
    os_ << '{';
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? ", " : "") << v[i];
    os_ << '}';
  }

  std::ostream& os_;
  bool first_ = true;
};

// `const Type name{...};`, ready to paste over the constant.
template <typename Pin>
void PrintGolden(const char* type, const char* name, const Pin& pin) {
  std::printf("const %s %s%s;\n", type, name,
              ::testing::PrintToString(pin).c_str());
}

// Compares a pin in two parts, each failing with its own message: the event
// count first, then the trajectory, i.e. every other field, compared with
// the event count copied over. A change that removes events without moving
// a request fails only the first part; one that moves a request, the second.
template <typename Pin>
void ExpectPin(const Pin& got, const Pin& want, const std::string& what) {
  EXPECT_EQ(got.events, want.events) << what << ": event count moved";
  Pin trajectory = got;
  trajectory.events = want.events;
  EXPECT_EQ(trajectory, want) << what << ": trajectory moved";
}

struct GoldenRun {
  std::vector<std::int64_t> finish_ns;   // per-client finish times
  std::vector<std::int64_t> gpu_ns;      // per-client GPU durations
  std::vector<int> batches;              // per-client completed batches
  std::uint64_t events = 0;              // Environment::events_executed()
  std::uint64_t switches = 0;            // Olympian-only
  std::uint64_t quanta = 0;              // Olympian-only

  bool operator==(const GoldenRun&) const = default;
};

void PrintTo(const GoldenRun& g, std::ostream* os) {
  Designated{os}("finish_ns", g.finish_ns)("gpu_ns", g.gpu_ns)(
      "batches", g.batches)("events", g.events)("switches", g.switches)(
      "quanta", g.quanta);
}

constexpr int kClients = 10;
constexpr int kBatches = 2;
constexpr std::uint64_t kSeed = 5;

GoldenRun RunWorkload(bool olympian, bool observed = false) {
  std::vector<serving::ClientSpec> clients(
      kClients, serving::ClientSpec{.model = "inception-v4",
                                    .batch = 100,
                                    .num_batches = kBatches});
  serving::ServerOptions opts;
  opts.seed = kSeed;
  // Full observability: tracer on the executor, registry + sampler on the
  // serving layer. The sampler adds its own timer events (so
  // events_executed differs) but is strictly read-only and draws no
  // randomness — every simulation outcome must stay bit-identical.
  metrics::Tracer tracer(100000);
  metrics::MetricRegistry registry;
  if (observed) {
    opts.executor.tracer = &tracer;
    opts.observability.registry = &registry;
    opts.observability.sample_interval = sim::Duration::Millis(10);
  }
  serving::Experiment exp(opts);

  std::unique_ptr<core::Scheduler> sched;
  core::ModelProfile profile;
  if (olympian) {
    core::Profiler profiler;
    profile = profiler.ProfileModel("inception-v4", 100);
    const auto q = sim::Duration::Micros(1600);
    sched = std::make_unique<core::Scheduler>(
        exp.env(), exp.gpu(), std::make_unique<core::FairPolicy>());
    sched->SetProfile(profile.key, &profile.cost,
                      core::Profiler::ThresholdFor(profile, q));
    exp.SetHooks(sched.get());
  }

  const auto results = exp.Run(clients);
  GoldenRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.gpu_ns.push_back(r.gpu_duration.nanos());
    out.batches.push_back(r.batches_completed);
  }
  out.events = exp.env().events_executed();
  if (sched) {
    out.switches = sched->switches();
    out.quanta = sched->quanta_completed();
  }
  return out;
}

// Golden values recorded from the pre-rewrite simulation kernel
// (std::priority_queue event loop), seed 5, 10 clients x 2 batches.
const GoldenRun kGoldenBaseline{
    .finish_ns = {9068776858, 10960558313, 11354049113, 10220972098,
                  8912229488, 10659668123, 9711286909, 8228638535, 9828060530,
                  11338222049},
    .gpu_ns = {1134996471, 1134886510, 1135164404, 1134937902, 1134936901,
               1134930888, 1134938968, 1134993954, 1134789945, 1134941801},
    .batches = {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
    .events = 1111150,
    .switches = 0,
    .quanta = 0};

const GoldenRun kGoldenOlympian{
    .finish_ns = {11535181119, 11535835619, 11536476308, 11537126770,
                  11537792406, 11538439502, 11539101135, 11539751847,
                  11540391545, 11541038440},
    .gpu_ns = {1135041533, 1134626034, 1134901641, 1134560874, 1135277897,
               1134812960, 1135173941, 1134996082, 1135156183, 1135204132},
    .batches = {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
    .events = 1156570,
    .switches = 6781,
    .quanta = 6760};

bool PrintRequested() {
  const char* v = std::getenv("OLYMPIAN_GOLDEN_PRINT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(GoldenDeterminismTest, BaselineMatchesGoldenAndReplays) {
  const GoldenRun a = RunWorkload(/*olympian=*/false);
  const GoldenRun b = RunWorkload(/*olympian=*/false);
  ExpectPin(a, b, "same-seed replay within one build");
  if (PrintRequested()) {
    PrintGolden("GoldenRun", "kGoldenBaseline", a);
    return;
  }
  ExpectPin(a, kGoldenBaseline, "baseline run vs. golden values");
}

TEST(GoldenDeterminismTest, OlympianMatchesGoldenAndReplays) {
  const GoldenRun a = RunWorkload(/*olympian=*/true);
  const GoldenRun b = RunWorkload(/*olympian=*/true);
  ExpectPin(a, b, "same-seed replay within one build");
  if (PrintRequested()) {
    PrintGolden("GoldenRun", "kGoldenOlympian", a);
    return;
  }
  ExpectPin(a, kGoldenOlympian, "Olympian run vs. golden values");
}

// The Overhead-Q curve (paper Figure 8) of fig11's model and batch under
// default ProfilerOptions, and the quanta SelectQ derives from it. Every
// figure bench that selects Q reads such a curve, while olympian-mixed's
// perfbench fingerprint cannot see one: its SelectQ falls back to the
// largest swept Q. Points are compared bit-exactly.
// Recorded while the stock baseline still reran at every swept Q.
const std::vector<std::pair<std::int64_t, double>> kGoldenCurve = {
    {300000, 0x1.5d587a4b33b19p-5},  {500000, 0x1.f9f66ab075164p-6},
    {800000, 0x1.602031a9b9a63p-6},  {1200000, 0x1.1467bdf92d92p-6},
    {1600000, 0x1.0350ee10c7009p-6}, {2400000, 0x1.9f1de303fe7b8p-7},
    {3600000, 0x1.830da9c183eeep-7}, {5000000, 0x1.5e50975d27c56p-7}};
// 2.5% lies between the 500 and 800 us points; 2% between 800 and 1200 us.
constexpr std::int64_t kGoldenQAt2_5Pct = 687918;
constexpr std::int64_t kGoldenQAt2Pct = 929136;

TEST(GoldenDeterminismTest, OverheadQCurveMatchesGolden) {
  const core::Profiler profiler;
  core::ModelProfile profile = profiler.ProfileModel("inception-v4", 100);
  profiler.ComputeOverheadQCurve(profile);
  const std::int64_t q25 = core::Profiler::SelectQ({&profile}, 0.025).nanos();
  const std::int64_t q20 = core::Profiler::SelectQ({&profile}, 0.02).nanos();
  if (PrintRequested()) {
    std::printf("const std::vector<std::pair<std::int64_t, double>> "
                "kGoldenCurve = {\n");
    for (const auto& [q, o] : profile.overhead_q) {
      std::printf("    {%lld, %a},\n", static_cast<long long>(q.nanos()), o);
    }
    std::printf("};\nconstexpr std::int64_t kGoldenQAt2_5Pct = %lld;\n"
                "constexpr std::int64_t kGoldenQAt2Pct = %lld;\n",
                static_cast<long long>(q25), static_cast<long long>(q20));
    return;
  }
  ASSERT_EQ(profile.overhead_q.size(), kGoldenCurve.size());
  for (std::size_t i = 0; i < kGoldenCurve.size(); ++i) {
    EXPECT_EQ(profile.overhead_q[i].first.nanos(), kGoldenCurve[i].first)
        << "point " << i;
    EXPECT_EQ(profile.overhead_q[i].second, kGoldenCurve[i].second)
        << "point " << i << " (Q=" << kGoldenCurve[i].first << " ns)";
  }
  EXPECT_EQ(q25, kGoldenQAt2_5Pct);
  EXPECT_EQ(q20, kGoldenQAt2Pct);
}

// Observability must be invisible to the virtual clock: with the tracer,
// registry, and sampler all live, every simulation outcome — finish times,
// GPU durations, batch counts, scheduler switch/quantum counts — is
// bit-identical to the unobserved run. Only events_executed may differ
// (the sampler's own timer ticks are events), so it is excluded here.
TEST(GoldenDeterminismTest, ObservabilityLeavesOutcomesBitIdentical) {
  for (const bool olympian : {false, true}) {
    const GoldenRun plain = RunWorkload(olympian, /*observed=*/false);
    const GoldenRun observed = RunWorkload(olympian, /*observed=*/true);
    EXPECT_EQ(observed.finish_ns, plain.finish_ns) << "olympian=" << olympian;
    EXPECT_EQ(observed.gpu_ns, plain.gpu_ns) << "olympian=" << olympian;
    EXPECT_EQ(observed.batches, plain.batches) << "olympian=" << olympian;
    EXPECT_EQ(observed.switches, plain.switches) << "olympian=" << olympian;
    EXPECT_EQ(observed.quanta, plain.quanta) << "olympian=" << olympian;
    EXPECT_GT(observed.events, plain.events)
        << "sampler ticks should add events";
  }
}

// ---------------------------------------------------------------------------
// Single-server fault-path pins. The goldens above run fault-free with
// failover off, and the failover, retry and deadline tests compare a run
// with its own replay or check counts, so a change that moves both sides of
// such a comparison still passes. These pin absolute values for staged
// 2-GPU runs that, between them, drive every branch of the server's request
// loop: device failover with replica loads, an alloc-fault window on the
// failover target, hang escalation, retries to exhaustion, deadlines
// (mid-run and before a retry), and every device down.

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xffu;
    h *= 1099511628211ull;
    v >>= 8;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenServerRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  std::vector<std::int64_t> gpu_ns;     // per-client
  std::uint64_t requests = 0;  // FNV-1a over every request's latency, status
  std::uint64_t events = 0;
  std::uint64_t counters = 0;  // FNV-1a of ServingCounters::Print
  std::uint64_t blame = 0;     // FNV-1a of PhaseCollector::WriteBlameJson
  std::uint64_t trace = 0;     // FNV-1a of Tracer::WriteChromeTrace

  bool operator==(const GoldenServerRun&) const = default;
};

void PrintTo(const GoldenServerRun& g, std::ostream* os) {
  Designated{os}("finish_ns", g.finish_ns)("gpu_ns", g.gpu_ns)
      .Hex("requests", g.requests)("events", g.events)
      .Hex("counters", g.counters)
      .Hex("blame", g.blame)
      .Hex("trace", g.trace);
}

enum class ServerStaging {
  // Reset on GPU 0 with an alloc-fault window on GPU 1, the failover
  // target; later a hang on GPU 1 that escalates to down and fails back.
  kFailover,
  // Kernel failure -> retry into a hang on the same device -> reset kills
  // the attempt mid-kernel -> failover to the peer.
  kRetryThenFailover,
  // Failover off, under Olympian: kernel failures, retries to exhaustion
  // and deadlines on a small pool.
  kDegradation,
  // Open-loop clients with deadlines: a short hang on GPU 1, then every
  // device resets and the remaining requests are rejected.
  kHangThenAllDown,
};

sim::TimePoint AtMs(double ms) {
  return sim::TimePoint() + sim::Duration::Millis(ms);
}

// `sinks` installs the tracer and the phase collector; without them `blame`
// and `trace` hash empty exports.
GoldenServerRun RunServerStaging(ServerStaging staging, bool sinks,
                                 metrics::ServingCounters* counters) {
  metrics::Tracer tracer(2000000);
  metrics::PhaseCollector phases(
      metrics::PhaseCollector::Options{.slo_ms = 50.0});
  serving::ServerOptions opts;
  opts.num_gpus = 2;
  if (sinks) {
    opts.executor.tracer = &tracer;
    opts.observability.phases = &phases;
  }
  opts.failover.enabled = true;
  std::vector<serving::ClientSpec> clients;
  bool olympian = false;
  switch (staging) {
    case ServerStaging::kFailover:
      opts.seed = 99;
      opts.faults.DeviceReset(AtMs(600), sim::Duration::Millis(250), 0);
      opts.faults.AllocFault(AtMs(600), sim::Duration::Millis(30), 1);
      opts.faults.DeviceHang(AtMs(1200), sim::Duration::Millis(300), 1);
      opts.failover.health.hang_down_after = sim::Duration::Millis(10);
      clients = {{.model = "resnet-152", .batch = 20, .num_batches = 10},
                 {.model = "googlenet",
                  .batch = 20,
                  .num_batches = 16,
                  .deadline = sim::Duration::Millis(200)}};
      break;
    case ServerStaging::kRetryThenFailover:
      opts.seed = 23;
      opts.faults.KernelFailure(AtMs(595), /*stream=*/1, 0);
      opts.faults.DeviceHang(AtMs(600), sim::Duration::Millis(300), 0);
      opts.faults.DeviceReset(AtMs(650), sim::Duration::Seconds(100), 0);
      opts.failover.health.hang_down_after = sim::Duration::Seconds(10);
      opts.degradation.retry.base_backoff = sim::Duration::Millis(10);
      clients = {{.model = "resnet-152", .batch = 20, .num_batches = 10},
                 {.model = "googlenet", .batch = 20, .num_batches = 10}};
      break;
    case ServerStaging::kDegradation:
      opts.seed = 5;
      opts.failover.enabled = false;
      opts.pool_threads = 6;
      opts.degradation.retry.max_retries = 1;
      opts.degradation.retry.base_backoff = sim::Duration::Millis(40);
      for (int i = 0; i < 8; ++i) {
        opts.faults.KernelFailure(AtMs(100 + 60 * i), /*stream=*/i % 4,
                                  static_cast<std::size_t>(i % 2));
      }
      olympian = true;
      clients = {{.model = "resnet-152", .batch = 20, .num_batches = 6},
                 {.model = "googlenet", .batch = 20, .num_batches = 6},
                 {.model = "resnet-152",
                  .batch = 20,
                  .num_batches = 6,
                  .deadline = sim::Duration::Millis(250)},
                 {.model = "googlenet",
                  .batch = 20,
                  .num_batches = 6,
                  .deadline = sim::Duration::Millis(180)}};
      break;
    case ServerStaging::kHangThenAllDown:
      opts.seed = 17;
      opts.failover.health.hang_down_after = sim::Duration::Seconds(1);
      opts.faults.DeviceHang(AtMs(750), sim::Duration::Millis(30), 1);
      opts.faults.DeviceReset(AtMs(1000), sim::Duration::Seconds(10), 0);
      opts.faults.DeviceReset(AtMs(1000), sim::Duration::Seconds(10), 1);
      clients.assign(2, {.model = "googlenet",
                         .batch = 4,
                         .num_batches = 10,
                         .mean_interarrival = sim::Duration::Millis(150),
                         .deadline = sim::Duration::Millis(300)});
      break;
  }
  serving::Experiment exp(opts);
  core::Profiler profiler;
  std::vector<core::ModelProfile> profiles;
  std::vector<std::unique_ptr<core::Scheduler>> scheds;
  if (olympian) {
    profiles = {profiler.ProfileModel("resnet-152", 20),
                profiler.ProfileModel("googlenet", 20)};
    for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
      scheds.push_back(std::make_unique<core::Scheduler>(
          exp.env(), exp.gpu(g), std::make_unique<core::FairPolicy>()));
      for (const auto& p : profiles) {
        scheds.back()->SetProfile(
            p.key, &p.cost,
            core::Profiler::ThresholdFor(p, sim::Duration::Micros(500)));
      }
      exp.SetGpuHooks(g, scheds.back().get());
    }
  }
  const auto results = exp.Run(clients);
  GoldenServerRun out;
  out.requests = kFnvOffset;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.gpu_ns.push_back(r.gpu_duration.nanos());
    for (std::size_t i = 0; i < r.request_latency_ms.size(); ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &r.request_latency_ms[i], sizeof(bits));
      out.requests = Fnv1a(out.requests, bits);
      out.requests = Fnv1a(out.requests,
                           static_cast<std::uint64_t>(r.request_status[i]));
    }
  }
  out.events = exp.env().events_executed();
  std::ostringstream c, b, t;
  exp.counters().Print(c);
  phases.WriteBlameJson(b);
  tracer.WriteChromeTrace(t);
  out.counters = Fnv1a(c.str());
  out.blame = Fnv1a(b.str());
  out.trace = Fnv1a(t.str());
  if (counters != nullptr) *counters = exp.counters();
  return out;
}

// Recorded before the request loop was folded into one attempt tail.
const GoldenServerRun kGoldenServerFailover{
    .finish_ns = {2729512200, 2191265637},
    .gpu_ns = {2583685398, 2114670809},
    .requests = 0x9d6f0be80db0158c,
    .events = 1480104,
    .counters = 0xd97a983bc7a25618,
    .blame = 0xe21c62a1d7133832,
    .trace = 0xaee3064ac2e070de};
// Recorded on the code before the degraded-device hedge and the admission
// watermark were removed, with the stagings as above.
const GoldenServerRun kGoldenServerRetryThenFailover{
    .finish_ns = {2905460936, 1938600677},
    .gpu_ns = {2701376134, 1903240301},
    .requests = 0x5f48e579138d6a4f,
    .events = 1397037,
    .counters = 0xb70e74e48fc2a12d,
    .blame = 0x8c95a9cd871827f8,
    .trace = 0x4d8205e24d47ea57};
const GoldenServerRun kGoldenServerDegradation{
    .finish_ns = {2470669392, 1769006305, 1500160415, 1060389056},
    .gpu_ns = {1238432292, 778075386, 248475692, 81981196},
    .requests = 0x847a4d1d2f360e0b,
    .events = 650526,
    .counters = 0x97b726df0e73881a,
    .blame = 0x148cc73fcae45cee,
    .trace = 0xb5ba8bc50236fe8d};
// Recorded on the code before the circuit breaker, device health scoring
// and the score-triggered hedge were removed. Its staging then also set the
// degraded-device hedge, which never raced a leg in it: dropping that line
// left every value unchanged.
const GoldenServerRun kGoldenServerHangThenAllDown{
    .finish_ns = {2041853795, 1005046263},
    .gpu_ns = {525748348, 960094386},
    .requests = 0x13acad713724d540,
    .events = 766194,
    .counters = 0x9c1e49258a11feb2,
    .blame = 0x5c4b80aca0b1683e,
    .trace = 0x897a54e815e6619c};

TEST(GoldenDeterminismTest, ServerFaultPathsMatchGolden) {
  const std::tuple<ServerStaging, const char*, const GoldenServerRun*>
      stagings[] = {
          {ServerStaging::kFailover, "kGoldenServerFailover",
           &kGoldenServerFailover},
          {ServerStaging::kRetryThenFailover, "kGoldenServerRetryThenFailover",
           &kGoldenServerRetryThenFailover},
          {ServerStaging::kDegradation, "kGoldenServerDegradation",
           &kGoldenServerDegradation},
          {ServerStaging::kHangThenAllDown, "kGoldenServerHangThenAllDown",
           &kGoldenServerHangThenAllDown},
      };
  metrics::ServingCounters sum;
  for (const auto& [staging, name, golden] : stagings) {
    metrics::ServingCounters c;
    const GoldenServerRun run = RunServerStaging(staging, /*sinks=*/true, &c);
    if (PrintRequested()) {
      PrintGolden("GoldenServerRun", name, run);
    } else {
      ExpectPin(run, *golden, name);
      // The sinks only observe: without them every branch of the request
      // loop replays the same trajectory.
      const GoldenServerRun bare =
          RunServerStaging(staging, /*sinks=*/false, nullptr);
      EXPECT_EQ(bare.finish_ns, golden->finish_ns) << name << " without sinks";
      EXPECT_EQ(bare.gpu_ns, golden->gpu_ns) << name << " without sinks";
      EXPECT_EQ(bare.requests, golden->requests) << name << " without sinks";
      EXPECT_EQ(bare.events, golden->events) << name << " without sinks";
      EXPECT_EQ(bare.counters, golden->counters) << name << " without sinks";
    }
    for (const auto& f : metrics::ServingCounters::Fields()) {
      sum.*f.member += c.*f.member;
    }
  }
  // The pins are only worth something if the branches they guard fired.
  // Some timeouts must come from a deadline checked before a (re)admission
  // or a retry, not only from a watchdog cancelling a run.
  EXPECT_GT(sum.requests_timed_out, sum.deadline_cancellations);
  EXPECT_GT(sum.deadline_cancellations, 0u);
  EXPECT_GT(sum.requests_failed, 0u);
  EXPECT_GT(sum.retries, 0u);
  EXPECT_GT(sum.requests_rejected_no_device, 0u);
  EXPECT_GT(sum.requests_failed_over, 0u);
  EXPECT_GT(sum.replica_instantiations, 0u);
  EXPECT_GT(sum.transient_alloc_failures, 0u);
}

// ---------------------------------------------------------------------------
// Cluster-ON golden: the full cluster stack (router, probes, open-loop
// Poisson arrivals, a crash with failover) pinned the same way. The
// single-server goldens above run with the cluster disabled and must stay
// untouched by cluster work; this one pins the cluster trajectory itself.

// The router's health log as a pin: the edge count, the number of MTTR
// incidents, and an FNV-1a over every edge (server, from, to, instant) and
// then every incident's repair time. The cluster goldens pin only the edge
// count and the sum of detection latencies; this pins the edges themselves.
struct RouterLog {
  std::uint64_t edges = 0;
  std::uint64_t incidents = 0;
  std::uint64_t hash = kFnvOffset;

  bool operator==(const RouterLog&) const = default;
};

void PrintTo(const RouterLog& g, std::ostream* os) {
  Designated{os}("edges", g.edges)("incidents", g.incidents)
      .Hex("hash", g.hash);
}

RouterLog HashRouterLog(const serving::Router& router) {
  RouterLog out;
  for (const auto& t : router.transitions()) {
    ++out.edges;
    out.hash = Fnv1a(out.hash, t.target);
    out.hash = Fnv1a(out.hash, static_cast<std::uint64_t>(t.from));
    out.hash = Fnv1a(out.hash, static_cast<std::uint64_t>(t.to));
    out.hash = Fnv1a(out.hash, static_cast<std::uint64_t>(t.at.nanos()));
  }
  for (const serving::Outage& o : router.outages()) {
    ++out.incidents;
    out.hash = Fnv1a(out.hash, static_cast<std::uint64_t>(o.mttr().nanos()));
  }
  return out;
}

struct GoldenClusterRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  std::vector<int> completed;           // per-client served requests
  std::uint64_t events = 0;
  std::uint64_t routed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t transitions = 0;

  bool operator==(const GoldenClusterRun&) const = default;
};

void PrintTo(const GoldenClusterRun& g, std::ostream* os) {
  Designated{os}("finish_ns", g.finish_ns)("completed", g.completed)(
      "events", g.events)("routed", g.routed)("ok", g.ok)(
      "failed_over", g.failed_over)("transitions", g.transitions);
}

GoldenClusterRun RunClusterWorkload(RouterLog* log = nullptr) {
  serving::ClusterOptions opts;
  opts.num_servers = 2;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 7;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 6;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 150.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(4, c));
  GoldenClusterRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.env().events_executed();
  out.routed = cluster.counters().requests_routed;
  out.ok = cluster.counters().requests_ok;
  out.failed_over = cluster.counters().requests_failed_over;
  out.transitions = cluster.counters().server_transitions;
  if (log != nullptr) *log = HashRouterLog(cluster.router());
  return out;
}

const GoldenClusterRun kGoldenCluster{
    .finish_ns = {1169439626, 1055583791, 1173012036, 1053536204},
    .completed = {6, 6, 6, 6},
    .events = 3201689,
    .routed = 26,
    .ok = 24,
    .failed_over = 2,
    .transitions = 4};

TEST(GoldenDeterminismTest, ClusterMatchesGoldenAndReplays) {
  const GoldenClusterRun a = RunClusterWorkload();
  const GoldenClusterRun b = RunClusterWorkload();
  ExpectPin(a, b, "same-seed cluster replay within one build");
  if (PrintRequested()) {
    PrintGolden("GoldenClusterRun", "kGoldenCluster", a);
    return;
  }
  ExpectPin(a, kGoldenCluster, "cluster run vs. golden values");
}

// ---------------------------------------------------------------------------
// Sharded engine: partitioning the cluster across worker threads is a pure
// execution-strategy change — the virtual-time trajectory must be BIT-
// IDENTICAL to the single-queue run, for any shard count, on any host
// (thread scheduling must not leak into outcomes). A 4-server workload with
// a crash plus an inbound partition exercises hub instants (faults, probes,
// routing) interleaved with parallel windows (serving), cross-shard
// failover, and lost-request re-admission. `events` counts per-environment;
// summed across shards it too must match the unsharded count (same events,
// merely executed on different queues).

// Fault-path variants of the sharded workload (the default is the plain
// crash + inbound-partition run).
struct ClusterVariant {
  // Adds an alloc-fault window on every server (crash victims'
  // first-arrival tenants fail). The window opens 5 ms before the crash on
  // purpose: on a shared instant the sharded engine runs the hub's crash
  // before the server's fault, unlike shards=1, and the summed event count
  // differs by one.
  bool alloc_faults = false;
  bool failover = true;  // RouterOptions::failover
  // Installs a PhaseCollector and an IncidentLog, and checks that every
  // request's phase sum matched its latency and that an incident opened.
  bool sinks = false;
};

GoldenClusterRun RunShardedClusterWorkload(
    std::size_t shards, ClusterVariant variant = {},
    metrics::RouterCounters* counters = nullptr, RouterLog* log = nullptr) {
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 11;
  opts.shards = shards;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  opts.faults.Partition(sim::TimePoint() + sim::Duration::Millis(300),
                        sim::Duration::Millis(300), /*server=*/2,
                        fault::PartitionDirection::kToServer);
  if (variant.alloc_faults) {
    opts.server.faults.AllocFault(sim::TimePoint() + sim::Duration::Millis(95),
                                  sim::Duration::Millis(40));
  }
  opts.router.failover = variant.failover;
  metrics::PhaseCollector phases;
  metrics::IncidentLog incidents;
  if (variant.sinks) {
    opts.phases = &phases;
    opts.incidents = &incidents;
  }
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 5;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 120.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(8, c));
  GoldenClusterRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.engine().events_executed();
  out.routed = cluster.counters().requests_routed;
  out.ok = cluster.counters().requests_ok;
  out.failed_over = cluster.counters().requests_failed_over;
  out.transitions = cluster.counters().server_transitions;
  if (counters != nullptr) *counters = cluster.counters();
  if (log != nullptr) *log = HashRouterLog(cluster.router());
  if (variant.sinks) {
    EXPECT_EQ(phases.requests(), 40u);  // 8 clients x 5 requests
    EXPECT_EQ(phases.mismatches(), 0u);
    EXPECT_FALSE(incidents.incidents().empty());
  }
  return out;
}

// Absolute pins for the workload above and its fault-path variants. The
// shard-count pins compare runs with each other, so a change to code every
// shard count shares would move both sides and still pass; these pin values.
const GoldenClusterRun kGoldenShardedCluster{
    .finish_ns = {961891928, 823517020, 878444850, 802498387, 946666024,
                  822168740, 863506674, 801495179},
    .completed = {5, 5, 5, 5, 5, 5, 5, 5},
    .events = 4085189,
    .routed = 46,
    .ok = 40,
    .failed_over = 6,
    .transitions = 10};

TEST(GoldenDeterminismTest, ShardedClusterBitIdenticalToUnsharded) {
  const GoldenClusterRun seq = RunShardedClusterWorkload(1);
  const GoldenClusterRun par = RunShardedClusterWorkload(4);
  const GoldenClusterRun par2 = RunShardedClusterWorkload(4);
  if (PrintRequested()) {
    PrintGolden("GoldenClusterRun", "kGoldenShardedCluster", seq);
    PrintGolden("GoldenClusterRun", "kGoldenShardedCluster(par)", par);
    return;
  }
  ExpectPin(seq, kGoldenShardedCluster, "single-queue run vs. golden values");
  ExpectPin(par, par2,
            "same-seed 4-shard replay (thread scheduling must not leak into "
            "the trajectory)");
  ExpectPin(par, seq, "4-shard run vs. the single-queue run (same seed)");
}

TEST(GoldenDeterminismTest, ShardedClusterWithTwoShardsMatchesToo) {
  // A shard count that does not divide the server count: servers 0 and 2
  // share shard 0, servers 1 and 3 share shard 1.
  const GoldenClusterRun seq = RunShardedClusterWorkload(1);
  const GoldenClusterRun par = RunShardedClusterWorkload(2);
  ExpectPin(par, seq, "2-shard run vs. the single-queue run");
}

// Failed first-arrival tenants, with router failover on (free
// re-admission) and off (budgeted retries), at shards 1 and 4. Recorded on
// the code that still had the response-dropping partition, with the
// staging as above.
const GoldenClusterRun kGoldenAllocFaults{
    .finish_ns = {966392670, 824192799, 835388915, 840057881, 1002302908,
                  820401112, 850673088, 840850378},
    .completed = {5, 5, 5, 5, 5, 5, 5, 5},
    .events = 4162032,
    .routed = 49,
    .ok = 40,
    .failed_over = 5,
    .transitions = 14};
const GoldenClusterRun kGoldenAllocFaultsNoFailover{
    .finish_ns = {230800187, 691715372, 509375448, 733307371, 230800267,
                  693513868, 509909840, 733191152},
    .completed = {0, 5, 3, 5, 0, 5, 3, 5},
    .events = 1932832,
    .routed = 68,
    .ok = 26,
    .failed_over = 0,
    .transitions = 8};

TEST(GoldenDeterminismTest, ShardedClusterFaultPathsMatchGolden) {
  const ClusterVariant alloc{.alloc_faults = true};
  const ClusterVariant no_failover{.alloc_faults = true, .failover = false};
  const ClusterVariant alloc_sinks{.alloc_faults = true, .sinks = true};
  const ClusterVariant no_failover_sinks{
      .alloc_faults = true, .failover = false, .sinks = true};
  metrics::RouterCounters alloc_counters, no_failover_counters;
  const GoldenClusterRun a =
      RunShardedClusterWorkload(1, alloc, &alloc_counters);
  const GoldenClusterRun b =
      RunShardedClusterWorkload(1, no_failover, &no_failover_counters);
  if (PrintRequested()) {
    PrintGolden("GoldenClusterRun", "kGoldenAllocFaults", a);
    PrintGolden("GoldenClusterRun", "kGoldenAllocFaultsNoFailover", b);
    return;
  }
  ExpectPin(a, kGoldenAllocFaults, "kGoldenAllocFaults");
  ExpectPin(b, kGoldenAllocFaultsNoFailover, "kGoldenAllocFaultsNoFailover");
  ExpectPin(RunShardedClusterWorkload(4, alloc), kGoldenAllocFaults,
            "kGoldenAllocFaults at shards=4");
  ExpectPin(RunShardedClusterWorkload(4, no_failover),
            kGoldenAllocFaultsNoFailover,
            "kGoldenAllocFaultsNoFailover at shards=4");
  // The collector and the incident log only observe: installed, they leave
  // both trajectories on their pins at either shard count.
  for (const std::size_t shards : {1, 4}) {
    const std::string at = " with sinks at shards=" + std::to_string(shards);
    ExpectPin(RunShardedClusterWorkload(shards, alloc_sinks),
              kGoldenAllocFaults, "kGoldenAllocFaults" + at);
    ExpectPin(RunShardedClusterWorkload(shards, no_failover_sinks),
              kGoldenAllocFaultsNoFailover,
              "kGoldenAllocFaultsNoFailover" + at);
  }
  // The pins are only worth something if the branches they guard fired.
  // With failover on, crash victims and lost legs re-admit for free, so
  // budgeted retries certify that the alloc-fault window failed tenant
  // set-ups or legs.
  EXPECT_GT(alloc_counters.requests_lost_to_server, 0u);
  EXPECT_GT(alloc_counters.retries, 0u);
  EXPECT_GT(no_failover_counters.requests_failed, 0u);
}

// Sharded observability: a cluster run with a server-side tracer (banned in
// sharded mode before the private-accumulator merge) and a cluster registry
// must export byte-identical artifacts at any shard count. Compares the full
// Chrome trace JSON, Prometheus exposition, and JSON timeline strings.
struct GoldenObservabilityRun {
  GoldenClusterRun run;
  std::string chrome_trace;
  std::string prometheus;
  std::string timeline;

  bool operator==(const GoldenObservabilityRun&) const = default;
};

// `server_registry` stays empty: a cluster rejects a per-server registry.
// Its exports still lead each string, as when the cluster exported every
// server's counters into it, so the timeline pin recorded then still holds.
GoldenObservabilityRun RunShardedObservabilityWorkload(std::size_t shards) {
  metrics::Tracer tracer(200000);
  metrics::MetricRegistry server_registry;
  metrics::MetricRegistry cluster_registry;
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 11;
  opts.shards = shards;
  opts.server.executor.tracer = &tracer;
  opts.registry = &cluster_registry;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  opts.faults.Partition(sim::TimePoint() + sim::Duration::Millis(300),
                        sim::Duration::Millis(300), /*server=*/2,
                        fault::PartitionDirection::kToServer);
  // Alloc faults so the lifted per-request failure path runs under
  // observability too.
  opts.server.faults.AllocFault(
      sim::TimePoint() + sim::Duration::Millis(80),
      sim::Duration::Millis(250));
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 5;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 120.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(8, c));
  GoldenObservabilityRun out;
  for (const auto& r : results) {
    out.run.finish_ns.push_back(r.finish_time.nanos());
    out.run.completed.push_back(r.requests_completed);
  }
  out.run.events = cluster.engine().events_executed();
  out.run.routed = cluster.counters().requests_routed;
  out.run.ok = cluster.counters().requests_ok;
  out.run.failed_over = cluster.counters().requests_failed_over;
  out.run.transitions = cluster.counters().server_transitions;
  {
    std::ostringstream os;
    tracer.WriteChromeTrace(os);
    out.chrome_trace = os.str();
  }
  {
    std::ostringstream os;
    server_registry.WritePrometheus(os);
    os << "--- cluster ---\n";
    cluster_registry.WritePrometheus(os);
    out.prometheus = os.str();
  }
  {
    std::ostringstream os;
    server_registry.WriteJsonTimeline(os);
    cluster_registry.WriteJsonTimeline(os);
    out.timeline = os.str();
  }
  return out;
}

TEST(GoldenDeterminismTest, ShardedObservabilityExportsBitIdentical) {
  const GoldenObservabilityRun seq = RunShardedObservabilityWorkload(1);
  const GoldenObservabilityRun par = RunShardedObservabilityWorkload(4);
  EXPECT_GT(seq.chrome_trace.size(), 100u)
      << "trace export is vacuously empty";
  EXPECT_NE(seq.prometheus.find("olympian_router_requests_ok_total"),
            std::string::npos)
      << "router counters missing from the cluster registry export";
  ExpectPin(par.run, seq.run, "4-shard observed run vs. the single-queue run");
  EXPECT_EQ(par.chrome_trace, seq.chrome_trace)
      << "sharded Chrome trace diverged from the unsharded export";
  EXPECT_EQ(par.prometheus, seq.prometheus)
      << "sharded Prometheus export diverged from the unsharded export";
  EXPECT_EQ(par.timeline, seq.timeline)
      << "sharded JSON timeline diverged from the unsharded export";
}

// The same exports pinned absolutely: FNV-1a of the Prometheus text, the
// JSON timeline and the Chrome trace, plus events_executed. The test above
// only compares two shard counts with each other.
struct ObservabilityPin {
  std::uint64_t events = 0;
  std::uint64_t prometheus = 0;
  std::uint64_t timeline = 0;
  std::uint64_t trace = 0;

  bool operator==(const ObservabilityPin&) const = default;
};

void PrintTo(const ObservabilityPin& g, std::ostream* os) {
  Designated{os}("events", g.events)
      .Hex("prometheus", g.prometheus)
      .Hex("timeline", g.timeline)
      .Hex("trace", g.trace);
}

ObservabilityPin PinOf(const GoldenObservabilityRun& r) {
  return {r.run.events, Fnv1a(r.prometheus), Fnv1a(r.timeline),
          Fnv1a(r.chrome_trace)};
}

// `prometheus` re-pinned when the per-server counter lines left the server
// registry's export, and again when the always-zero server-hang and
// lost-response router counters left the cluster registry's export; the
// other fields were recorded before both.
const ObservabilityPin kGoldenObservability{
    .events = 523995,
    .prometheus = 0x263d33f08a8f7f8b,
    .timeline = 0x4fa63e730662897b,
    .trace = 0x8acea39de2de9562};

TEST(GoldenDeterminismTest, ShardedObservabilityExportsMatchGolden) {
  for (const std::size_t shards : {1, 4}) {
    const ObservabilityPin pin = PinOf(RunShardedObservabilityWorkload(shards));
    if (PrintRequested()) {
      std::printf("shards=%zu\n", shards);
      PrintGolden("ObservabilityPin", "kGoldenObservability", pin);
      continue;
    }
    ExpectPin(pin, kGoldenObservability,
              "kGoldenObservability at shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------------
// Wave-train coalescing: collapsing k identical back-to-back waves into one
// timer event is a pure event-count optimization — it must never move a
// finish time. The serving workload above never triggers it (production
// batches saturate the device and run exclusive), so this exercises the
// coalesced path directly: a long backdrop kernel pins most of the device
// while short kernels stream multi-wave trains through the leftover slots.

namespace {

struct TrainRun {
  std::vector<std::int64_t> done_ns;
  std::uint64_t waves_dispatched = 0;
  std::uint64_t waves_coalesced = 0;
  std::uint64_t kernels_completed = 0;
};

sim::Task OneKernel(gpusim::Gpu& gpu, sim::Environment& env,
                    gpusim::StreamId s, gpusim::KernelDesc d,
                    std::vector<std::int64_t>& done_ns, std::size_t slot) {
  co_await gpu.Submit(s, d);
  done_ns[slot] = (env.Now() - sim::TimePoint()).nanos();
}

TrainRun RunWaveTrains(bool coalesce, bool hang_mid_train) {
  sim::Environment env;
  gpusim::Gpu::Options o;
  o.spec = gpusim::GpuSpec{.name = "train-test",
                           .num_sms = 8,
                           .max_blocks_per_sm = 1,
                           .clock_scale = 1.0,
                           .memory_mb = 1000};
  o.clock_noise_sigma = 0.0;
  o.seed = 11;
  o.coalesce_wave_trains = coalesce;
  gpusim::Gpu gpu(env, o);
  const auto backdrop = gpu.CreateStream();
  const auto train = gpu.CreateStream();
  constexpr int kTrains = 40;
  std::vector<std::int64_t> done(kTrains + 1, -1);
  // Holds 6 of 8 slots for a long time so the train kernels below see a
  // steady 2 free slots — the full-refill precondition for coalescing.
  env.Spawn(OneKernel(gpu, env, backdrop,
                      gpusim::KernelDesc{.job = 0, .thread_blocks = 6,
                                         .block_work = sim::Duration::Millis(40)},
                      done, 0));
  // Each kernel is 7 blocks through 2 slots: waves of 2/2/2/1, the first
  // issue qualifying as a coalescible 3-wave train.
  for (int i = 0; i < kTrains; ++i) {
    env.Spawn(OneKernel(gpu, env, train,
                        gpusim::KernelDesc{.job = 1, .thread_blocks = 7,
                                           .block_work = sim::Duration::Micros(5)},
                        done, static_cast<std::size_t>(i) + 1));
  }
  if (hang_mid_train) {
    // Lands mid-train for several kernels; coalesced trains must split so
    // un-issued waves stall exactly as they would uncoalesced.
    env.ScheduleCallbackAt(
        sim::TimePoint() + sim::Duration::Micros(203),
        [](void* ctx, std::uint64_t) {
          static_cast<gpusim::Gpu*>(ctx)->Hang(sim::Duration::Micros(90));
        },
        &gpu, 0);
  }
  env.Run();
  return TrainRun{.done_ns = std::move(done),
                  .waves_dispatched = gpu.waves_dispatched(),
                  .waves_coalesced = gpu.waves_coalesced(),
                  .kernels_completed = gpu.kernels_completed()};
}

}  // namespace

TEST(GoldenDeterminismTest, WaveTrainCoalescingPreservesFinishTimes) {
  const TrainRun on = RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/false);
  const TrainRun off =
      RunWaveTrains(/*coalesce=*/false, /*hang_mid_train=*/false);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  EXPECT_EQ(off.waves_coalesced, 0u);
  // Semantic wave/kernel counts match; only timer events are elided.
  EXPECT_EQ(on.waves_dispatched, off.waves_dispatched);
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
  // And the coalesced path replays bit-identically.
  const TrainRun replay =
      RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/false);
  EXPECT_EQ(replay.done_ns, on.done_ns);
  EXPECT_EQ(replay.waves_coalesced, on.waves_coalesced);
}

TEST(GoldenDeterminismTest, HangSplitsTrainsWithoutMovingFinishTimes) {
  const TrainRun on = RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/true);
  const TrainRun off =
      RunWaveTrains(/*coalesce=*/false, /*hang_mid_train=*/true);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
}

// A fractional-capacity window landing mid-train is the same exactness
// obligation as a hang: trains split at the window-open edge
// (ThrottleCapacity) and are capped at the window-close edge
// (CoalescibleWaves), so no train ever spans a capacity change — the
// coalesced run must finish every kernel at the uncoalesced instant.
TEST(GoldenDeterminismTest, CapacityWindowSplitsTrainsWithoutMovingTimes) {
  const auto run = [](bool coalesce) {
    sim::Environment env;
    gpusim::Gpu::Options o;
    o.spec = gpusim::GpuSpec{.name = "train-test",
                             .num_sms = 8,
                             .max_blocks_per_sm = 1,
                             .clock_scale = 1.0,
                             .memory_mb = 1000};
    o.clock_noise_sigma = 0.0;
    o.seed = 11;
    o.coalesce_wave_trains = coalesce;
    gpusim::Gpu gpu(env, o);
    const auto backdrop = gpu.CreateStream();
    const auto train = gpu.CreateStream();
    constexpr int kTrains = 40;
    std::vector<std::int64_t> done(kTrains + 1, -1);
    env.Spawn(OneKernel(
        gpu, env, backdrop,
        gpusim::KernelDesc{.job = 0, .thread_blocks = 6,
                           .block_work = sim::Duration::Millis(40)},
        done, 0));
    for (int i = 0; i < kTrains; ++i) {
      env.Spawn(OneKernel(
          gpu, env, train,
          gpusim::KernelDesc{.job = 1, .thread_blocks = 7,
                             .block_work = sim::Duration::Micros(5)},
          done, static_cast<std::size_t>(i) + 1));
    }
    // Opens mid-train for several kernels, closes mid-train again 90us on.
    env.ScheduleCallbackAt(
        sim::TimePoint() + sim::Duration::Micros(203),
        [](void* ctx, std::uint64_t) {
          static_cast<gpusim::Gpu*>(ctx)->ThrottleCapacity(
              0.5, sim::Duration::Micros(90));
        },
        &gpu, 0);
    env.Run();
    return TrainRun{.done_ns = std::move(done),
                    .waves_dispatched = gpu.waves_dispatched(),
                    .waves_coalesced = gpu.waves_coalesced(),
                    .kernels_completed = gpu.kernels_completed()};
  };
  const TrainRun on = run(/*coalesce=*/true);
  const TrainRun off = run(/*coalesce=*/false);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  // waves_dispatched can legitimately differ: a split train returns its
  // un-run waves to the queue and they are counted again on re-dispatch
  // (same as the hang-split scenario above). Finish times are the
  // exactness obligation.
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
}

// ---------------------------------------------------------------------------
// Gray-failure golden: scoring, brownout, capacity losses, and jitter all
// ON — the new path pinned bit-exactly, at shards=1 and shards=4. The
// cluster goldens above run with scoring disabled and must stay untouched
// by this PR; this one pins the scored trajectory itself.

struct GoldenGrayRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  std::vector<int> completed;           // per-client served requests
  std::uint64_t events = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;               // requests_shed_brownout
  std::uint64_t degrades = 0;           // score_degrade_events
  std::uint64_t recovers = 0;           // score_recover_events
  std::uint64_t brownouts = 0;          // brownout_entries
  std::int64_t detection_ns = 0;        // sum of detection latencies

  bool operator==(const GoldenGrayRun&) const = default;
};

void PrintTo(const GoldenGrayRun& g, std::ostream* os) {
  Designated{os}("finish_ns", g.finish_ns)("completed", g.completed)(
      "events", g.events)("ok", g.ok)("shed", g.shed)("degrades", g.degrades)(
      "recovers", g.recovers)("brownouts", g.brownouts)(
      "detection_ns", g.detection_ns);
}

GoldenGrayRun RunGrayClusterWorkload(std::size_t shards,
                                     RouterLog* log = nullptr) {
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 17;
  opts.shards = shards;
  opts.router.score.enabled = true;
  opts.router.brownout.enabled = true;
  opts.router.brownout.enter_below = 0.80;
  opts.router.brownout.exit_above = 0.90;
  opts.faults.CapacityLoss(sim::TimePoint() + sim::Duration::Millis(100),
                           sim::Duration::Millis(250), /*server=*/0, 0.25);
  opts.faults.CapacityLoss(sim::TimePoint() + sim::Duration::Millis(120),
                           sim::Duration::Millis(250), /*server=*/1, 0.3);
  opts.faults.Jitter(sim::TimePoint() + sim::Duration::Millis(150),
                     sim::Duration::Millis(200), /*server=*/2, 5.0);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients;
  for (int i = 0; i < 8; ++i) {
    serving::ClusterClientSpec c;
    c.request.model = "googlenet";
    c.request.batch = 8;
    c.request.num_batches = 8;
    c.request.priority = i % 2;
    c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    c.arrivals.rate_rps = 15.0;
    clients.push_back(c);
  }
  const auto results = cluster.Run(clients);
  GoldenGrayRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.engine().events_executed();
  out.ok = cluster.counters().requests_ok;
  out.shed = cluster.counters().requests_shed_brownout;
  out.degrades = cluster.counters().score_degrade_events;
  out.recovers = cluster.counters().score_recover_events;
  out.brownouts = cluster.counters().brownout_entries;
  for (const sim::Duration d : cluster.router().detection_latencies()) {
    out.detection_ns += d.nanos();
  }
  if (log != nullptr) *log = HashRouterLog(cluster.router());
  return out;
}

const GoldenGrayRun kGoldenGray{
    .finish_ns = {885153784, 1279888020, 769712434, 1065424996, 912355800,
                  1271921622, 471160639, 1064546099},
    .completed = {4, 8, 4, 8, 4, 8, 2, 8},
    .events = 3128821,
    .ok = 46,
    .shed = 18,
    .degrades = 3,
    .recovers = 3,
    .brownouts = 1,
    .detection_ns = 137666666};

TEST(GoldenDeterminismTest, GrayClusterMatchesGoldenAndReplays) {
  const GoldenGrayRun a = RunGrayClusterWorkload(1);
  const GoldenGrayRun b = RunGrayClusterWorkload(1);
  ExpectPin(a, b, "same-seed gray-failure replay within one build");
  if (PrintRequested()) {
    PrintGolden("GoldenGrayRun", "kGoldenGray", a);
    return;
  }
  ExpectPin(a, kGoldenGray, "gray-failure run vs. golden values");
  // The scenario actually exercises the new machinery.
  EXPECT_GT(a.degrades, 0u);
  EXPECT_GT(a.brownouts, 0u);
  EXPECT_GT(a.detection_ns, 0);
}

TEST(GoldenDeterminismTest, GrayClusterShardedBitIdenticalToUnsharded) {
  const GoldenGrayRun seq = RunGrayClusterWorkload(1);
  const GoldenGrayRun par = RunGrayClusterWorkload(4);
  const GoldenGrayRun par2 = RunGrayClusterWorkload(4);
  ExpectPin(par, par2,
            "same-seed 4-shard gray replay (thread scheduling must not leak "
            "into the trajectory)");
  ExpectPin(par, seq, "4-shard gray run vs. the single-queue run (same seed)");
}

// ---------------------------------------------------------------------------
// Router health logs, edge by edge: the crash golden, the alloc-fault
// variant at shards 1 and 4, and the scored brownout run.

const RouterLog kGoldenCrashRouterLog{
    .edges = 4,
    .incidents = 1,
    .hash = 0x99b4c78785bdd5b3};
// Recorded with kGoldenAllocFaults.
const RouterLog kGoldenAllocFaultRouterLog{
    .edges = 14,
    .incidents = 2,
    .hash = 0xfca32edb61fe879f};
const RouterLog kGoldenGrayRouterLog{
    .edges = 6,
    .incidents = 0,
    .hash = 0x09cab94b6a5a8a9b};

TEST(GoldenDeterminismTest, RouterHealthLogsMatchGolden) {
  const ClusterVariant alloc{.alloc_faults = true};
  RouterLog crash, alloc1, alloc4, gray;
  RunClusterWorkload(&crash);
  RunShardedClusterWorkload(1, alloc, nullptr, &alloc1);
  RunShardedClusterWorkload(4, alloc, nullptr, &alloc4);
  RunGrayClusterWorkload(1, &gray);
  if (PrintRequested()) {
    PrintGolden("RouterLog", "kGoldenCrashRouterLog", crash);
    PrintGolden("RouterLog", "kGoldenAllocFaultRouterLog", alloc1);
    PrintGolden("RouterLog", "kGoldenAllocFaultRouterLog(shards=4)", alloc4);
    PrintGolden("RouterLog", "kGoldenGrayRouterLog", gray);
    return;
  }
  EXPECT_EQ(crash, kGoldenCrashRouterLog);
  EXPECT_EQ(alloc1, kGoldenAllocFaultRouterLog);
  EXPECT_EQ(alloc4, kGoldenAllocFaultRouterLog) << "shards=4";
  EXPECT_EQ(gray, kGoldenGrayRouterLog);
  // The edge counts agree with the server_transitions pins above.
  EXPECT_EQ(crash.edges, kGoldenCluster.transitions);
  EXPECT_EQ(alloc1.edges, kGoldenAllocFaults.transitions);
}

// ---------------------------------------------------------------------------
// Zoo graph pins. Every run executes one of the seven shared zoo graphs, so
// a change to the graph layout or the builder must leave each node's
// execution inputs as they were: device, CPU and kernel work parameters,
// in-degree, and the ordered out-edge list (child visit order sets RNG draw
// order). Hashed per graph with FNV-1a, one 64-bit word per value.

struct GoldenGraph {
  const char* model;
  std::size_t nodes;
  std::uint64_t hash;
};

std::uint64_t HashGraph(const graph::Graph& g) {
  std::uint64_t h = kFnvOffset;
  for (const graph::Node& n : g.nodes()) {
    h = Fnv1a(h, static_cast<std::uint64_t>(n.id));
    h = Fnv1a(h, static_cast<std::uint64_t>(n.device));
    h = Fnv1a(h, static_cast<std::uint64_t>(n.cpu_time.nanos()));
    h = Fnv1a(h, static_cast<std::uint64_t>(n.cpu_time_per_item.nanos()));
    h = Fnv1a(h, std::bit_cast<std::uint64_t>(n.blocks_base));
    h = Fnv1a(h, std::bit_cast<std::uint64_t>(n.blocks_per_item));
    h = Fnv1a(h, static_cast<std::uint64_t>(n.block_work.nanos()));
    h = Fnv1a(h, static_cast<std::uint64_t>(
                     g.in_degrees()[static_cast<std::size_t>(n.id)]));
    const auto outputs = g.outputs(n.id);
    h = Fnv1a(h, outputs.size());
    for (const graph::NodeId c : outputs) {
      h = Fnv1a(h, static_cast<std::uint64_t>(c));
    }
  }
  return h;
}

const GoldenGraph kGoldenGraphs[] = {
    {"inception-v4", 15599, 0xc8984b0c4b700b98ULL},
    {"googlenet", 18980, 0x119407ca97563936ULL},
    {"alexnet", 23774, 0xa43fbe5e4adad5d3ULL},
    {"vgg16", 11297, 0x2529740c32d574d8ULL},
    {"resnet-50", 14472, 0x7f054a310e599345ULL},
    {"resnet-101", 14034, 0xcd6948103925a9b1ULL},
    {"resnet-152", 12495, 0xcea39ed91ee96daeULL},
};

TEST(GoldenDeterminismTest, ZooGraphsMatchGolden) {
  const std::vector<models::ModelSpec>& zoo = models::AllModels();
  if (PrintRequested()) {
    std::printf("const GoldenGraph kGoldenGraphs[] = {\n");
    for (const models::ModelSpec& spec : zoo) {
      const graph::Graph& g = models::SharedModel(spec.name);
      std::printf("    {\"%s\", %zu, 0x%016llxULL},\n", spec.name.c_str(),
                  g.size(), static_cast<unsigned long long>(HashGraph(g)));
    }
    std::printf("};\n");
    return;
  }
  ASSERT_EQ(zoo.size(), std::size(kGoldenGraphs));
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const GoldenGraph& want = kGoldenGraphs[i];
    ASSERT_EQ(zoo[i].name, want.model);
    const graph::Graph& g = models::SharedModel(want.model);
    EXPECT_EQ(g.size(), want.nodes) << want.model;
    EXPECT_EQ(HashGraph(g), want.hash) << want.model;
  }
}

}  // namespace
}  // namespace olympian
