// Tests for the latency-anatomy subsystem (metrics/phase_account.h,
// metrics/incident.h): the cursor-based phase account and its hard
// accounting identity (phase sum == end-to-end latency, bit-exact in
// virtual time), the tail-blame collector, the incident state machine, and
// the byte-identical-across-shard-counts contract for both exports under a
// crash + partition + capacity chaos sweep.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "serving/cluster.h"
#include "serving/server.h"
#include "sim/time.h"

namespace olympian {
namespace {

using metrics::Phase;
using metrics::PhaseAccount;
using metrics::PhaseCollector;
using sim::Duration;
using sim::TimePoint;

TimePoint At(double ms) { return TimePoint() + Duration::Seconds(ms / 1e3); }

// ---------------------------------------------------------------------------
// PhaseAccount: the cursor mechanics.

TEST(PhaseAccountTest, ChargesTileTheLifetimeExactly) {
  PhaseAccount pa;
  pa.Start(At(10));
  pa.Charge(Phase::kRouterQueue, At(12));
  pa.Charge(Phase::kGpuCompute, At(15));
  pa.Charge(Phase::kResponseHop, At(15.5));
  EXPECT_EQ(pa.ns(Phase::kRouterQueue), Duration::Millis(2).nanos());
  EXPECT_EQ(pa.ns(Phase::kGpuCompute), Duration::Millis(3).nanos());
  EXPECT_EQ(pa.ns(Phase::kResponseHop), Duration::Micros(500).nanos());
  // The identity, bit-exact: phase sum == cursor - start.
  EXPECT_EQ(pa.TotalNs(), (pa.cursor() - pa.start()).nanos());
  EXPECT_EQ(pa.TotalNs(), (At(15.5) - At(10)).nanos());
}

TEST(PhaseAccountTest, ZeroWidthChargeIsANoOp) {
  PhaseAccount pa;
  pa.Start(At(5));
  pa.Charge(Phase::kAdmission, At(5));
  EXPECT_EQ(pa.TotalNs(), 0);
  EXPECT_EQ(pa.ns(Phase::kAdmission), 0);
}

TEST(PhaseAccountTest, StartResetsAPreviousLife) {
  PhaseAccount pa;
  pa.Start(At(0));
  pa.Charge(Phase::kBackoff, At(7));
  pa.Start(At(100));
  EXPECT_EQ(pa.TotalNs(), 0);
  EXPECT_EQ(pa.ns(Phase::kBackoff), 0);
  EXPECT_EQ(pa.start(), At(100));
}

TEST(PhaseAccountTest, SplitChargeDividesTheInterval) {
  PhaseAccount pa;
  pa.Start(At(0));
  pa.SplitCharge(Phase::kGpuCompute, Duration::Millis(3), Phase::kGpuQueue,
                 At(10));
  EXPECT_EQ(pa.ns(Phase::kGpuCompute), Duration::Millis(3).nanos());
  EXPECT_EQ(pa.ns(Phase::kGpuQueue), Duration::Millis(7).nanos());
  EXPECT_EQ(pa.TotalNs(), Duration::Millis(10).nanos());
}

TEST(PhaseAccountTest, SplitChargeClampsIntoTheInterval) {
  PhaseAccount pa;
  pa.Start(At(0));
  // More than the interval: everything lands on `a`, nothing on `rest`.
  pa.SplitCharge(Phase::kGpuCompute, Duration::Seconds(99), Phase::kGpuQueue,
                 At(2));
  EXPECT_EQ(pa.ns(Phase::kGpuCompute), Duration::Millis(2).nanos());
  EXPECT_EQ(pa.ns(Phase::kGpuQueue), 0);
  // Negative: everything lands on `rest`.
  pa.SplitCharge(Phase::kGpuCompute, Duration::Millis(-5), Phase::kGpuQueue,
                 At(3));
  EXPECT_EQ(pa.ns(Phase::kGpuQueue), Duration::Millis(1).nanos());
  EXPECT_EQ(pa.TotalNs(), Duration::Millis(3).nanos());
}

TEST(PhaseAccountTest, DominantTieBreaksTowardTheLowestIndex) {
  PhaseAccount pa;
  pa.Start(At(0));
  pa.Charge(Phase::kReload, At(4));       // 4ms
  pa.Charge(Phase::kGpuCompute, At(8));   // 4ms — tie
  EXPECT_EQ(pa.Dominant(), Phase::kReload);
  pa.Charge(Phase::kGpuCompute, At(9));   // now 5ms — wins outright
  EXPECT_EQ(pa.Dominant(), Phase::kGpuCompute);
}

// ---------------------------------------------------------------------------
// PhaseCollector: violation classification, identity verification, merge.

PhaseAccount OneChargeAccount(Phase p, double ms) {
  PhaseAccount pa;
  pa.Start(At(0));
  pa.Charge(p, At(ms));
  return pa;
}

TEST(PhaseCollectorTest, ClassifiesViolationsBySloAndOutcome) {
  PhaseCollector c(PhaseCollector::Options{.slo_ms = 100.0});
  c.Record(0, "m", OneChargeAccount(Phase::kGpuCompute, 50), /*ok=*/true,
           Duration::Millis(50));
  c.Record(0, "m", OneChargeAccount(Phase::kGpuQueue, 200), /*ok=*/true,
           Duration::Millis(200));
  c.Record(0, "m", OneChargeAccount(Phase::kBackoff, 30), /*ok=*/false,
           Duration::Millis(30));
  EXPECT_EQ(c.requests(), 3u);
  EXPECT_EQ(c.violations(), 2u);  // slow success + failure
  EXPECT_EQ(c.mismatches(), 0u);
  const auto& row = c.rows().at({0, "m"});
  EXPECT_EQ(row.dominant[static_cast<int>(Phase::kGpuQueue)], 1u);
  EXPECT_EQ(row.dominant[static_cast<int>(Phase::kBackoff)], 1u);
  // Violation-restricted sums exclude the fast success.
  EXPECT_EQ(row.violation_ns[static_cast<int>(Phase::kGpuCompute)], 0);
}

TEST(PhaseCollectorTest, CountsAccountingIdentityMismatches) {
  PhaseCollector c;
  // Phase sum says 10ms, measured latency says 11ms: a missed charge site.
  c.Record(1, "m", OneChargeAccount(Phase::kGpuCompute, 10), true,
           Duration::Millis(11));
  EXPECT_EQ(c.mismatches(), 1u);
  c.Record(1, "m", OneChargeAccount(Phase::kGpuCompute, 10), true,
           Duration::Millis(10));
  EXPECT_EQ(c.mismatches(), 1u);
}

TEST(PhaseCollectorTest, MergeFoldsRowsAndTotals) {
  PhaseCollector a(PhaseCollector::Options{.slo_ms = 100.0});
  PhaseCollector b(PhaseCollector::Options{.slo_ms = 100.0});
  a.Record(0, "m", OneChargeAccount(Phase::kGpuCompute, 50), true,
           Duration::Millis(50));
  b.Record(0, "m", OneChargeAccount(Phase::kGpuCompute, 200), true,
           Duration::Millis(200));
  b.Record(2, "n", OneChargeAccount(Phase::kReload, 10), false,
           Duration::Millis(10));
  a.MergeFrom(b);
  EXPECT_EQ(a.requests(), 3u);
  EXPECT_EQ(a.violations(), 2u);
  EXPECT_EQ(a.rows().size(), 2u);
  EXPECT_EQ(a.rows().at({0, "m"}).requests, 2u);
  EXPECT_EQ(a.rows().at({0, "m"})
                .total_ns[static_cast<int>(Phase::kGpuCompute)],
            Duration::Millis(250).nanos());
}

// ---------------------------------------------------------------------------
// The identity through the real single-server request path, faults and all.

TEST(PhaseAccountTest, IdentityHoldsThroughServerFaultsAndFailover) {
  PhaseCollector phases(PhaseCollector::Options{.slo_ms = 100.0});
  serving::ServerOptions opts;
  opts.seed = 23;
  opts.num_gpus = 2;
  opts.failover.enabled = true;
  opts.degradation.retry.base_backoff = Duration::Millis(10);
  opts.observability.phases = &phases;
  // The observability_tour staged outage: kernel failure -> retry into a
  // hang on the same device, reset -> mid-kernel kill -> failover to the
  // peer. Exercises the backoff and failover-readmit charges.
  opts.faults.KernelFailure(At(595), /*stream=*/1, /*gpu_index=*/0);
  opts.faults.DeviceHang(At(600), Duration::Millis(300), /*gpu_index=*/0);
  opts.faults.DeviceReset(At(650), Duration::Seconds(100), /*gpu_index=*/0);

  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{
           .model = "resnet-152", .batch = 20, .num_batches = 10},
       serving::ClientSpec{
           .model = "googlenet", .batch = 20, .num_batches = 10}});

  int total = 0;
  for (const auto& r : results) {
    total += static_cast<int>(r.request_status.size());
  }
  EXPECT_EQ(phases.requests(), static_cast<std::uint64_t>(total));
  EXPECT_GT(phases.requests(), 0u);
  // THE gate: every request's phase charges tile its lifetime bit-exactly.
  EXPECT_EQ(phases.mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Cluster chaos sweep: identity under crash + partition + capacity faults,
// and byte-identical blame/incident exports at shards=1 vs shards=4.

struct ChaosResult {
  std::string blame_json;
  std::string incidents_json;
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  std::uint64_t mismatches = 0;
  std::vector<metrics::IncidentLog::Incident> incidents;
};

ChaosResult RunChaosCluster(std::size_t shards) {
  PhaseCollector phases(PhaseCollector::Options{.slo_ms = 250.0});
  metrics::IncidentLog incidents;
  serving::ClusterOptions opts;
  opts.num_servers = 3;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 29;
  opts.shards = shards;
  opts.phases = &phases;
  opts.incidents = &incidents;
  opts.faults.CapacityLoss(At(300), Duration::Millis(800), /*server=*/2,
                           /*capacity=*/0.4);
  opts.faults.Crash(At(400), Duration::Millis(600), /*server=*/0);
  opts.faults.Partition(At(1200), Duration::Millis(500), /*server=*/1,
                        fault::PartitionDirection::kToServer);
  serving::Cluster cluster(opts);

  serving::ClusterClientSpec spec;
  spec.request.model = "googlenet";
  spec.request.batch = 10;
  spec.request.num_batches = 12;
  spec.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.arrivals.rate_rps = 100.0;
  cluster.Run(std::vector<serving::ClusterClientSpec>(6, spec));

  ChaosResult out;
  std::ostringstream blame, inc;
  phases.WriteBlameJson(blame);
  incidents.WriteJson(inc);
  out.blame_json = blame.str();
  out.incidents_json = inc.str();
  out.requests = phases.requests();
  out.violations = phases.violations();
  out.mismatches = phases.mismatches();
  out.incidents = incidents.incidents();
  return out;
}

TEST(PhaseAccountTest, ChaosSweepIdentityAndShardCountByteEquality) {
  const ChaosResult one = RunChaosCluster(1);
  EXPECT_GT(one.requests, 0u);
  EXPECT_GT(one.violations, 0u);
  EXPECT_EQ(one.mismatches, 0u);

  const ChaosResult four = RunChaosCluster(4);
  EXPECT_EQ(four.mismatches, 0u);
  // The exports are byte-identical at any shard count: the collector and
  // the incident log are fed hub-side in virtual-time order.
  EXPECT_EQ(one.blame_json, four.blame_json);
  EXPECT_EQ(one.incidents_json, four.incidents_json);
}

TEST(IncidentLogTest, CrashIncidentWalksTheFullStateMachine) {
  const ChaosResult run = RunChaosCluster(1);
  ASSERT_EQ(run.incidents.size(), 3u);
  const metrics::IncidentLog::Incident* crash = nullptr;
  for (const auto& inc : run.incidents) {
    if (inc.kind == "server-crash") crash = &inc;
  }
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->server, 0);
  // injected -> detected -> mitigated -> recovered, in order.
  EXPECT_GE(crash->detected_ns, crash->injected_ns);
  EXPECT_GE(crash->mitigated_ns, crash->detected_ns);
  EXPECT_GE(crash->recovered_ns, crash->mitigated_ns);
  EXPECT_EQ(crash->mitigation, "failover");
}

TEST(IncidentLogTest, ToleratedGrayFaultNeverDetects) {
  const ChaosResult run = RunChaosCluster(1);
  const metrics::IncidentLog::Incident* gray = nullptr;
  for (const auto& inc : run.incidents) {
    if (inc.kind == "capacity-loss") gray = &inc;
  }
  ASSERT_NE(gray, nullptr);
  // 40% capacity slows requests but keeps probes answering: the router
  // never marks the server unroutable, so the incident stays undetected —
  // exactly what "tolerated gray fault" means in the export.
  EXPECT_EQ(gray->detected_ns, -1);
  EXPECT_EQ(gray->mitigated_ns, -1);
  // Requests through the open window are still attributed.
  EXPECT_GT(gray->requests_impacted, 0u);
}

// Unit-level incident state machine, no cluster involved.
TEST(IncidentLogTest, BrownoutMitigatesEveryOpenDetectedIncident) {
  metrics::IncidentLog log;
  log.Enable();
  log.Inject(0, "crash", At(100), Duration::Millis(500));
  log.Inject(1, "hang", At(120), Duration::Millis(500));
  log.HealthChange(0, true, false, At(110));
  log.HealthChange(1, true, false, At(130));
  log.Mitigation(-1, "brownout", At(140));  // global: attaches to both
  log.HealthChange(0, false, true, At(700));
  log.Finalize();
  ASSERT_EQ(log.incidents().size(), 2u);
  EXPECT_EQ(log.incidents()[0].mitigation, "brownout");
  EXPECT_EQ(log.incidents()[1].mitigation, "brownout");
  EXPECT_EQ(log.incidents()[0].recovered_ns, (At(700) - TimePoint()).nanos());
  EXPECT_EQ(log.incidents()[1].recovered_ns, -1);  // never recovered
}

TEST(IncidentLogTest, DisabledLogIgnoresAllFeeds) {
  metrics::IncidentLog log;
  log.Inject(0, "crash", At(100), Duration::Millis(500));
  log.RequestOutcome(0, At(110), false);
  log.Finalize();
  EXPECT_TRUE(log.incidents().empty());
  EXPECT_EQ(log.total_requests(), 0u);
}

}  // namespace
}  // namespace olympian
