// Tests for the observability subsystem: the labeled metric registry and
// its Prometheus / JSON-timeline exports, the ServingCounters registry
// bridge, SLO report folding, the virtual-clock sampler, and — the
// acceptance scenario — end-to-end causal tracing of one request's
// retry -> failover -> hedge-win chain across device tracks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "json_reader.h"
#include "metrics/counters.h"
#include "metrics/registry.h"
#include "metrics/slo.h"
#include "metrics/trace.h"
#include "serving/server.h"

namespace olympian {
namespace {

using metrics::MetricRegistry;
using metrics::RequestStatus;
using metrics::ServingCounters;
using metrics::SloAccumulator;
using metrics::SloReport;
using metrics::Tracer;
using sim::Duration;
using sim::TimePoint;

// ---------------------------------------------------------------------------
// MetricRegistry: Prometheus exposition format

// Splits the exposition text into "name{labels} value" sample lines,
// skipping comments.
std::vector<std::pair<std::string, double>> PromSamples(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    out.emplace_back(line.substr(0, sp), std::stod(line.substr(sp + 1)));
  }
  return out;
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(RegistryTest, PrometheusExpositionShape) {
  MetricRegistry reg;
  reg.GetCounter("olympian_requests_total", {{"model", "resnet"}}).Inc(3);
  reg.GetCounter("olympian_requests_total", {{"model", "googlenet"}}).Inc(5);
  reg.GetSeries("olympian_gpu_utilization", {{"gpu", "0"}})
      .Sample(TimePoint() + Duration::Millis(1), 0.75);

  std::ostringstream os;
  reg.WritePrometheus(os);
  const std::string text = os.str();

  // One TYPE header per family, and label sets render sorted.
  EXPECT_NE(text.find("# TYPE olympian_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("olympian_requests_total{model=\"resnet\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("olympian_requests_total{model=\"googlenet\"} 5"),
            std::string::npos);
  // A time series exports its latest sample as a gauge.
  EXPECT_NE(text.find("olympian_gpu_utilization{gpu=\"0\"} 0.75"),
            std::string::npos);
  // Re-exporting is stable: the registry iterates a sorted map.
  std::ostringstream os2;
  reg.WritePrometheus(os2);
  EXPECT_EQ(text, os2.str());
}

TEST(RegistryTest, PrometheusHistogramBucketsAreCumulativeAndEndAtInf) {
  MetricRegistry reg;
  auto& h = reg.GetHistogram("olympian_request_latency_ms");
  const double values[] = {0.5, 2.0, 8.0, 40.0, 40.0, 1e9};
  for (const double v : values) h.Observe(v);

  std::ostringstream os;
  reg.WritePrometheus(os);
  const auto samples = PromSamples(os.str());

  double prev = 0.0;
  double inf_count = -1.0, total_count = -1.0, sum = -1.0;
  std::vector<std::string> buckets;
  for (const auto& [name, value] : samples) {
    if (name.find("_bucket{") != std::string::npos) {
      buckets.push_back(name);
      EXPECT_GE(value, prev) << "bucket counts must be cumulative: " << name;
      prev = value;
      if (name.find("le=\"+Inf\"") != std::string::npos) inf_count = value;
    } else if (name.find("_count") != std::string::npos) {
      total_count = value;
    } else if (name.find("_sum") != std::string::npos) {
      sum = value;
    }
  }
  // The +Inf bucket is the last and equals the total count; the 1e9
  // observation lands in the overflow slot, so this catches a lost tail.
  EXPECT_DOUBLE_EQ(inf_count, 6.0);
  EXPECT_DOUBLE_EQ(total_count, 6.0);
  EXPECT_NEAR(sum, 0.5 + 2.0 + 8.0 + 40.0 + 40.0 + 1e9, 1e-6);
  // The bucket layout is fixed and no golden covers it: 44 finite bounds
  // starting at 0.001 (growing x1.6), then +Inf, and the whole export text.
  ASSERT_EQ(buckets.size(), 45u);
  EXPECT_NE(buckets.front().find("le=\"0.001\""), std::string::npos)
      << buckets.front();
  EXPECT_NE(buckets.back().find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(Fnv1a(os.str()), 0xc23b0e245cef1f38ull);
}

TEST(RegistryTest, HistogramQuantilesBracketObservations) {
  MetricRegistry::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  double prev = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "quantiles must be monotone";
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // Log-bucketed estimate: p50 of 1..100 within a bucket's relative error.
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 50.0 * 0.6);
}

TEST(RegistryTest, JsonTimelineParsesAndRoundTripsPoints) {
  MetricRegistry reg;
  auto& s = reg.GetSeries("olympian_gpu_utilization", {{"gpu", "1"}});
  s.Sample(TimePoint() + Duration::Millis(1), 0.25);
  s.Sample(TimePoint() + Duration::Millis(2), 0.75);
  reg.GetSeries("olympian_pool_occupancy")
      .Sample(TimePoint() + Duration::Millis(1), 0.125);

  std::ostringstream os;
  reg.WriteJsonTimeline(os);
  const testjson::Value doc = testjson::Parse(os.str());
  const auto& series = doc.at("series").AsArray();
  ASSERT_EQ(series.size(), 2u);
  // Map-ordered: gpu_utilization before pool_occupancy.
  EXPECT_EQ(series[0].at("name").AsString(), "olympian_gpu_utilization");
  EXPECT_EQ(series[0].at("labels").at("gpu").AsString(), "1");
  const auto& points = series[0].at("points").AsArray();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].AsArray()[0].AsNumber(), 1e6);  // t_ns
  EXPECT_DOUBLE_EQ(points[0].AsArray()[1].AsNumber(), 0.25);
  EXPECT_DOUBLE_EQ(points[1].AsArray()[1].AsNumber(), 0.75);
  EXPECT_TRUE(series[1].at("labels").AsObject().empty());
}

// ---------------------------------------------------------------------------
// ServingCounters: deterministic Print and the registry bridge

TEST(ServingCountersTest, PrintIsDeterministicAndFollowsFieldOrder) {
  ServingCounters c;
  c.hedge_wins = 3;              // declared late
  c.kernel_failures_injected = 1;  // declared first
  c.requests_ok = 2;

  std::ostringstream a, b;
  c.Print(a);
  c.Print(b);
  EXPECT_EQ(a.str(), b.str());
  // Rows come out in Fields() declaration order regardless of assignment
  // order, and zero-valued counters are omitted.
  EXPECT_EQ(a.str(),
            "  kernel_failures_injected 1\n"
            "  requests_ok 2\n"
            "  hedge_wins 3\n");
}

TEST(ServingCountersTest, FieldsTableCoversEveryCounterExactlyOnce) {
  // The table is the single source of truth shared by Print, ExportTo, and
  // these tests; a field added to the struct but not the table would make
  // the bridge silently incomplete. Guard with a size check against the
  // struct layout.
  EXPECT_EQ(ServingCounters::Fields().size(),
            sizeof(ServingCounters) / sizeof(std::uint64_t));
  std::set<std::string> names;
  for (const auto& f : ServingCounters::Fields()) names.insert(f.name);
  EXPECT_EQ(names.size(), ServingCounters::Fields().size());
}

TEST(ServingCountersTest, RegistryBridgeIsIdempotent) {
  ServingCounters c;
  c.requests_ok = 7;
  c.retries = 2;

  MetricRegistry reg;
  c.ExportTo(reg);
  c.ExportTo(reg);  // periodic re-export must not double-count
  const auto* ok = reg.FindCounter("olympian_requests_ok_total");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value(), 7u);
  const auto* retries = reg.FindCounter("olympian_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->value(), 2u);
  // Every field is bridged, zero or not.
  EXPECT_EQ(reg.Counters().size(), ServingCounters::Fields().size());
}

// ---------------------------------------------------------------------------
// SLO report folding

TEST(SloTest, ReportFoldsOutcomesAndLatencies) {
  SloAccumulator acc;
  for (int i = 0; i < 96; ++i) {
    acc.Add("resnet", 10.0 + static_cast<double>(i % 5), RequestStatus::kOk);
  }
  acc.Add("resnet", 50.0, RequestStatus::kFailedRetried);
  acc.Add("resnet", 0.0, RequestStatus::kTimedOut);
  acc.Add("resnet", 0.0, RequestStatus::kRejected);
  acc.Add("resnet", 0.0, RequestStatus::kFailed);
  acc.Add("googlenet", 5.0, RequestStatus::kOk);

  const SloReport r = acc.Report(/*window_seconds=*/10.0);
  EXPECT_EQ(r.total, 101u);
  EXPECT_EQ(r.succeeded, 98u);  // 96 clean + 1 retried + googlenet
  EXPECT_EQ(r.retried_ok, 1u);
  EXPECT_EQ(r.timed_out, 1u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_NEAR(r.availability, 98.0 / 101.0, 1e-12);
  // Burn against the three-nines target.
  EXPECT_EQ(r.availability_target, 0.999);
  EXPECT_NEAR(r.error_budget_burn, (1.0 - 98.0 / 101.0) / (1.0 - 0.999), 1e-9);
  EXPECT_NEAR(r.goodput_rps, 98.0 / 10.0, 1e-12);
  // Latency statistics cover successes only: the retried request's 50ms is
  // in-population, the failures' 0ms placeholders are not.
  EXPECT_GT(r.p50_ms, 5.0);
  EXPECT_LE(r.p50_ms, 14.0);
  EXPECT_DOUBLE_EQ(r.max_ms, 50.0);
  EXPECT_GE(r.p99_ms, r.p95_ms);
  EXPECT_GE(r.p95_ms, r.p50_ms);
  // Per-model rows sorted by name.
  ASSERT_EQ(r.per_model.size(), 2u);
  EXPECT_EQ(r.per_model[0].model, "googlenet");
  EXPECT_EQ(r.per_model[1].model, "resnet");
  EXPECT_EQ(r.per_model[1].total, 100u);
}

TEST(SloTest, MergePoolsObservations) {
  SloAccumulator a, b, direct;
  a.Add("m", 10.0, RequestStatus::kOk);
  b.Add("m", 30.0, RequestStatus::kOk);
  b.Add("n", 0.0, RequestStatus::kFailed);
  direct.Add("m", 10.0, RequestStatus::kOk);
  direct.Add("m", 30.0, RequestStatus::kOk);
  direct.Add("n", 0.0, RequestStatus::kFailed);

  a.Merge(b);
  const SloReport merged = a.Report(5.0);
  const SloReport want = direct.Report(5.0);
  EXPECT_EQ(merged.total, want.total);
  EXPECT_EQ(merged.succeeded, want.succeeded);
  EXPECT_DOUBLE_EQ(merged.availability, want.availability);
  EXPECT_DOUBLE_EQ(merged.p50_ms, want.p50_ms);
  EXPECT_DOUBLE_EQ(merged.max_ms, want.max_ms);
  ASSERT_EQ(merged.per_model.size(), want.per_model.size());
}

TEST(SloTest, EmptyAccumulatorReportsPerfectAvailability) {
  const SloReport r = SloAccumulator().Report(1.0);
  EXPECT_EQ(r.total, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_DOUBLE_EQ(r.error_budget_burn, 0.0);
}

// ---------------------------------------------------------------------------
// Sampler integration: a live serving run populates the registry

TEST(ObservabilityTest, SamplerPopulatesSeriesHistogramAndCounters) {
  MetricRegistry reg;
  serving::ServerOptions opts;
  opts.num_gpus = 2;
  opts.observability.registry = &reg;
  opts.observability.sample_interval = Duration::Millis(20);
  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{.model = "resnet-152", .batch = 20, .num_batches = 2},
       serving::ClientSpec{.model = "googlenet", .batch = 20, .num_batches = 2}});

  // Per-device series exist and carry samples on the virtual clock.
  for (const char* gpu : {"0", "1"}) {
    const auto* util =
        reg.FindSeries("olympian_gpu_utilization", {{"gpu", gpu}});
    ASSERT_NE(util, nullptr) << "gpu " << gpu;
    EXPECT_FALSE(util->empty());
    EXPECT_NE(reg.FindSeries("olympian_gpu_pending_kernels", {{"gpu", gpu}}),
              nullptr);
  }
  const auto* occ = reg.FindSeries("olympian_pool_occupancy");
  ASSERT_NE(occ, nullptr);
  ASSERT_FALSE(occ->empty());
  // Samples are timestamped within the run and ordered.
  std::int64_t prev = -1;
  for (const auto& [t_ns, v] : occ->points()) {
    EXPECT_GT(t_ns, prev);
    prev = t_ns;
    EXPECT_GE(v, 0.0);
  }
  // The final tick can land up to one interval past the last client's
  // finish (the stop condition is checked before each sleep).
  EXPECT_LE(prev, exp.makespan().nanos() + Duration::Millis(20).nanos());

  // Request latencies flow into the labeled histogram...
  const auto* h = reg.FindHistogram("olympian_request_latency_ms",
                                    {{"model", "resnet-152"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  // ...and the final counter bridge ran.
  const auto* ok = reg.FindCounter("olympian_requests_ok_total");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value(), exp.counters().requests_ok);
  EXPECT_EQ(ok->value(), 4u);
}

TEST(ObservabilityTest, DisabledObservabilityTouchesNoRegistry) {
  serving::ServerOptions opts;
  serving::Experiment exp(opts);
  exp.Run({serving::ClientSpec{
      .model = "googlenet", .batch = 20, .num_batches = 1}});
  // Nothing to assert on a null registry beyond "it ran"; the golden
  // determinism suite asserts the stronger bit-identical property.
  EXPECT_GT(exp.counters().requests_ok, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: one request's retry -> failover -> hedge-win chain is a
// single flow across >= 2 device tracks, in the raw events and in the
// exported Chrome JSON.

TimePoint At(double ms) { return TimePoint() + Duration::Millis(ms); }

struct FlowHop {
  char ph;
  std::int64_t track;
  std::int64_t ts_ns;
  const char* name;
};

TEST(ObservabilityTest, HedgeWinChainConnectsDeviceTracks) {
  // The staging from FailoverTest.HedgeWinAdoptedWhenPrimaryDiesMidKernel:
  // a kernel failure pushes a retry into a hang window (degraded routing +
  // hedge on the healthy peer), then the primary device resets mid-kernel
  // and the hedge's result is adopted.
  Tracer tracer(400000);
  metrics::MetricRegistry reg;
  serving::ServerOptions opts;
  opts.num_gpus = 2;
  opts.failover.enabled = true;
  opts.executor.tracer = &tracer;
  opts.observability.registry = &reg;
  opts.observability.sample_interval = Duration::Millis(50);
  opts.faults.KernelFailure(At(595), /*stream=*/1, /*gpu_index=*/0);
  opts.faults.DeviceHang(At(600), Duration::Millis(300), /*gpu_index=*/0);
  opts.faults.DeviceReset(At(650), Duration::Seconds(100), /*gpu_index=*/0);
  opts.failover.health.hang_down_after = Duration::Seconds(10);
  opts.failover.hedge_when_degraded = true;
  opts.degradation.retry.base_backoff = Duration::Millis(10);
  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{.model = "resnet-152", .batch = 20, .num_batches = 10},
       serving::ClientSpec{.model = "googlenet", .batch = 20, .num_batches = 10}});
  // The staged request retried (kernel failure) and its hedge won (the
  // primary's death mid-kernel was absorbed, so no re-admission shows up
  // in requests_failed_over).
  ASSERT_GE(exp.counters().hedge_wins, 1u);
  ASSERT_GE(exp.counters().retries, 1u);
  ASSERT_GE(exp.counters().device_down_events, 1u);

  // Track (= JobContext::job) -> device, via the contexts the run created.
  std::map<std::int64_t, std::size_t> track_gpu;
  for (const auto& ctx : exp.job_contexts()) {
    track_gpu[static_cast<std::int64_t>(ctx->job)] =
        static_cast<std::size_t>(ctx->gpu_index);
  }

  // Group flow hops by flow id (= request id).
  std::map<std::uint64_t, std::vector<FlowHop>> flows;
  for (const auto& e : tracer.events()) {
    if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
      ASSERT_EQ(std::string_view(e.category), "request");
      flows[e.flow].push_back(FlowHop{e.ph, e.track, e.start_ns, e.name});
    }
  }
  ASSERT_FALSE(flows.empty());

  // Requests that hedged: the rids of "hedge-req-" attempt spans. (Plain
  // failover re-admissions also cross device tracks; the acceptance chain
  // must additionally contain the speculative leg.)
  std::set<std::uint64_t> hedged_rids;
  for (const auto& e : tracer.events()) {
    if (e.ph == 'X' && std::string_view(e.category) == "attempt" &&
        std::string_view(e.name) == "hedge-req-") {
      hedged_rids.insert(static_cast<std::uint64_t>(e.number));
    }
  }
  ASSERT_FALSE(hedged_rids.empty());

  // Find the hedge chain: a flow whose hops span >= 2 devices and whose
  // request hedged.
  std::uint64_t chain_id = 0;
  for (auto& [id, hops] : flows) {
    if (hedged_rids.count(id) == 0) continue;
    std::set<std::size_t> gpus;
    for (const auto& h : hops) {
      const auto it = track_gpu.find(h.track);
      ASSERT_NE(it, track_gpu.end()) << "flow hop on unknown track";
      gpus.insert(it->second);
    }
    if (gpus.size() >= 2) {
      chain_id = id;
      break;
    }
  }
  ASSERT_NE(chain_id, 0u) << "no hedged flow crossed device tracks";

  // The chain is well-formed: begins once, ends once, steps in between,
  // monotone in virtual time.
  const auto& hops = flows[chain_id];
  ASSERT_GE(hops.size(), 3u);
  EXPECT_EQ(hops.front().ph, 's');
  EXPECT_EQ(hops.back().ph, 'f');
  for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
    EXPECT_EQ(hops[i].ph, 't');
    EXPECT_GE(hops[i].ts_ns, hops[i - 1].ts_ns);
  }

  // Every admission hop coincides with the start of an "attempt" span on
  // the same track — the binding Perfetto uses to attach the arrows — and
  // at least one of those spans is the hedge's speculative leg on a
  // different device than the chain's origin.
  const std::size_t origin_gpu = track_gpu.at(hops.front().track);
  bool hedge_leg_elsewhere = false;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {  // all but the 'f'
    bool bound = false;
    for (const auto& e : tracer.events()) {
      if (e.ph != 'X' || std::string_view(e.category) != "attempt") continue;
      if (e.track == hops[i].track && e.start_ns == hops[i].ts_ns) {
        bound = true;
        if (std::string_view(e.name) == "hedge-req-" &&
            track_gpu.at(e.track) != origin_gpu) {
          hedge_leg_elsewhere = true;
        }
      }
    }
    EXPECT_TRUE(bound) << "flow hop " << i << " has no enclosing attempt span";
  }
  EXPECT_TRUE(hedge_leg_elsewhere)
      << "chain never reached a hedge attempt on another device";

  // The same chain survives the Chrome-trace export: parse the full JSON
  // with the strict reader and re-derive the multi-device flow.
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const testjson::Value doc = testjson::Parse(os.str());
  std::set<double> tids;
  int begins = 0, ends = 0;
  const std::string want_id = std::to_string(chain_id);
  for (const auto& e : doc.AsArray()) {
    const std::string& ph = e.at("ph").AsString();
    if (ph != "s" && ph != "t" && ph != "f") continue;
    if (e.at("id").AsString() != want_id) continue;
    tids.insert(e.at("tid").AsNumber());
    if (ph == "s") ++begins;
    if (ph == "f") {
      ++ends;
      EXPECT_EQ(e.at("bp").AsString(), "e");
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_GE(tids.size(), 2u) << "exported flow does not cross device tracks";

  // And the registry saw the same story: device 0 went down, the health
  // series sampled it, and the hedge counters bridged.
  const auto* hedge_wins = reg.FindCounter("olympian_hedge_wins_total");
  ASSERT_NE(hedge_wins, nullptr);
  EXPECT_EQ(hedge_wins->value(), exp.counters().hedge_wins);
  const auto* health0 = reg.FindSeries("olympian_device_health", {{"gpu", "0"}});
  ASSERT_NE(health0, nullptr);
  const bool saw_unhealthy =
      std::any_of(health0->points().begin(), health0->points().end(),
                  [](const auto& p) { return p.second != 0.0; });
  EXPECT_TRUE(saw_unhealthy) << "health series never left kHealthy";
}

TEST(ObservabilityTest, FlowHopsCarryCancelReasonDetails) {
  // A device loss mid-run: victims re-admit on the survivor, so their flow
  // chains carry a kStep annotated "failover", and every flow terminates
  // with an explicit outcome reason on its kEnd hop.
  Tracer tracer(400000);
  serving::ServerOptions opts;
  opts.num_gpus = 2;
  opts.failover.enabled = true;
  opts.executor.tracer = &tracer;
  opts.faults.DeviceReset(At(600), Duration::Seconds(100), /*gpu_index=*/0);
  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{.model = "resnet-152", .batch = 20,
                           .num_batches = 8},
       serving::ClientSpec{.model = "googlenet", .batch = 20,
                           .num_batches = 8}});
  ASSERT_GE(exp.counters().requests_failed_over, 1u);

  int begins = 0, ends = 0, failover_steps = 0, ok_ends = 0;
  for (const auto& e : tracer.events()) {
    if (e.ph == 's') {
      ++begins;
      // The first admission needs no reason; nothing went wrong yet.
      EXPECT_EQ(e.detail, nullptr);
    } else if (e.ph == 't') {
      ASSERT_NE(e.detail, nullptr) << "flow step without a reason";
      if (std::string_view(e.detail) == "failover") ++failover_steps;
    } else if (e.ph == 'f') {
      ++ends;
      ASSERT_NE(e.detail, nullptr) << "flow end without an outcome";
      if (std::string_view(e.detail) == "ok") ++ok_ends;
    }
  }
  EXPECT_EQ(begins, 16);  // one flow per request
  EXPECT_EQ(ends, 16);    // every flow terminates with an outcome
  EXPECT_GE(failover_steps, 1) << "no re-admission hop was annotated";
  EXPECT_GE(ok_ends, 1);

  // The annotation survives the Chrome export as args:{"reason":...}.
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const testjson::Value doc = testjson::Parse(os.str());
  int exported = 0;
  for (const auto& e : doc.AsArray()) {
    const std::string& ph = e.at("ph").AsString();
    if (ph != "t" && ph != "f") continue;
    if (e.contains("args") && e.at("args").contains("reason") &&
        e.at("args").at("reason").AsString() == "failover") {
      ++exported;
    }
  }
  EXPECT_GE(exported, 1) << "no exported hop carries the failover reason";
}

}  // namespace
}  // namespace olympian
