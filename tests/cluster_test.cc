// Tests for the cluster serving layer: the front-end router's health state
// machine, sticky-then-least-loaded routing, cross-server failover under
// crashes and partitions, open-loop arrival generators, and determinism of
// the whole stack across repeats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "metrics/counters.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "serving/arrivals.h"
#include "serving/cluster.h"
#include "serving/router.h"
#include "serving/server.h"
#include "sim/environment.h"
#include "sim/random.h"

namespace olympian {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint At(double ms) { return TimePoint() + Duration::Seconds(ms / 1e3); }

serving::ClusterClientSpec PoissonClient(const std::string& model,
                                         double rate_rps, int requests) {
  serving::ClusterClientSpec spec;
  spec.request.model = model;
  spec.request.batch = 10;
  spec.request.num_batches = requests;
  spec.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.arrivals.rate_rps = rate_rps;
  return spec;
}

serving::ClusterOptions SmallCluster(std::size_t num_servers) {
  serving::ClusterOptions opts;
  opts.num_servers = num_servers;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  return opts;
}

int CountAll(const std::vector<serving::ClusterClientResult>& results,
             serving::RequestStatus s) {
  int n = 0;
  for (const auto& r : results) n += r.CountStatus(s);
  return n;
}

int ServedAll(const std::vector<serving::ClusterClientResult>& results) {
  int n = 0;
  for (const auto& r : results) n += r.requests_completed;
  return n;
}

int TotalAll(const std::vector<serving::ClusterClientResult>& results) {
  int n = 0;
  for (const auto& r : results) n += static_cast<int>(r.request_status.size());
  return n;
}

// ---------------------------------------------------------------------------
// Router unit tests (fake transport; no servers involved).

struct FakeTransport final : serving::RouterTransport {
  explicit FakeTransport(sim::Environment& e) : env(e) {}
  sim::Task Probe(std::size_t server, bool& ok) override {
    (void)server;
    co_await env.Delay(rtt);
    ok = probe_ok;
  }
  bool HasUsableDevice(std::size_t server) const override {
    (void)server;
    return usable;
  }
  sim::Environment& env;
  bool probe_ok = true;
  bool usable = true;
  Duration rtt = Duration::Micros(100);
};

// The router probes every 20 ms and each fake probe takes 100 us, so the
// k-th probe of a run answers at k x 20.1 ms: 20.1, 40.2, 60.3, 80.4, ...
// A server goes down at its third consecutive error and is readmitted by
// its second consecutive probe success.

TEST(RouterTest, ConsecutiveProbeFailuresMarkServerDown) {
  sim::Environment env;
  FakeTransport transport(env);
  serving::RouterOptions ro;
  metrics::RouterCounters counters;
  metrics::IncidentLog incidents;
  serving::Router router(env, transport, 2, ro, counters, incidents);
  router.Start();

  transport.probe_ok = false;
  env.RunUntil(At(50));  // two failed probes per server: degraded only
  EXPECT_EQ(router.health(0), serving::Health::kDegraded);
  EXPECT_EQ(router.Route(0), 0u);
  env.RunUntil(At(70));  // the third failed probe marks them down
  EXPECT_EQ(router.health(0), serving::Health::kDown);
  EXPECT_EQ(router.health(1), serving::Health::kDown);
  EXPECT_EQ(router.Route(0), serving::Router::kNoServer);
  router.Stop();
  env.Run();
}

// A probe success that ends the outage must NOT readmit the server: it
// only moves it to recovering, where it takes no traffic until the warm-up
// hand-shake (a second consecutive probe success) completes, and the
// transition log records recovering -> healthy exactly once.
TEST(RouterTest, ProbeDuringRecoveringDoesNotReadmitEarly) {
  sim::Environment env;
  FakeTransport transport(env);
  serving::RouterOptions ro;
  metrics::RouterCounters counters;
  metrics::IncidentLog incidents;
  serving::Router router(env, transport, 2, ro, counters, incidents);
  router.Start();

  transport.probe_ok = false;
  env.RunUntil(At(70));  // third failure at 60.3 ms
  ASSERT_EQ(router.health(0), serving::Health::kDown);

  transport.probe_ok = true;
  env.RunUntil(At(90));  // first success at 80.4 ms: down -> recovering
  ASSERT_EQ(router.health(0), serving::Health::kRecovering)
      << "the success that ends the outage must not readmit before the "
         "warm-up hand-shake completes";
  EXPECT_FALSE(router.Routable(0));
  EXPECT_EQ(router.Route(0), serving::Router::kNoServer);

  env.RunUntil(At(110));  // second success at 100.5 ms readmits
  EXPECT_EQ(router.health(0), serving::Health::kHealthy);
  EXPECT_TRUE(router.Routable(0));

  int recovering_to_healthy = 0;
  for (const auto& t : router.transitions()) {
    if (t.target == 0 && t.from == serving::Health::kRecovering &&
        t.to == serving::Health::kHealthy) {
      ++recovering_to_healthy;
    }
  }
  EXPECT_EQ(recovering_to_healthy, 1);
  // Router-side MTTR covers the whole incident: down-mark to readmission
  // (40.2 ms), not just the recovering hand-shake (20.1 ms).
  ASSERT_GE(router.outages().size(), 1u);
  EXPECT_GT(router.outages()[0].mttr(), Duration::Millis(30));
  router.Stop();
  env.Run();
}

TEST(RouterTest, RelapseDuringRecoveryKeepsOneIncident) {
  sim::Environment env;
  FakeTransport transport(env);
  serving::RouterOptions ro;
  metrics::RouterCounters counters;
  metrics::IncidentLog incidents;
  serving::Router router(env, transport, 1, ro, counters, incidents);
  router.Start();

  transport.probe_ok = false;
  env.RunUntil(At(70));  // down at 60.3 ms
  ASSERT_EQ(router.health(0), serving::Health::kDown);
  transport.probe_ok = true;
  env.RunUntil(At(90));  // recovering at 80.4 ms
  ASSERT_EQ(router.health(0), serving::Health::kRecovering);
  transport.probe_ok = false;  // relapse before the hand-shake completes
  env.RunUntil(At(110));       // down again at 100.5 ms
  ASSERT_EQ(router.health(0), serving::Health::kDown);
  transport.probe_ok = true;
  env.RunUntil(At(150));  // recovering at 120.6 ms, readmitted at 140.7 ms
  ASSERT_EQ(router.health(0), serving::Health::kHealthy);
  // One outage episode, one MTTR incident, spanning the relapse: 80.4 ms
  // from the first down mark, where an episode restarted at the relapse
  // would read 40.2 ms.
  ASSERT_EQ(router.outages().size(), 1u);
  EXPECT_GT(router.outages()[0].mttr(), Duration::Millis(60));
  router.Stop();
  env.Run();
}

// Readmission resets the score. Without the reset, the error and RTT EWMAs
// carried through a scored outage would degrade the readmitted server again
// on its next probe, although every probe since readmission was fast.
TEST(RouterTest, ScoredOutageReadmitsWithoutReDegrading) {
  sim::Environment env;
  FakeTransport transport(env);
  serving::RouterOptions ro;
  ro.score.enabled = true;
  metrics::RouterCounters counters;
  metrics::IncidentLog incidents;
  serving::Router router(env, transport, 1, ro, counters, incidents);
  router.Start();

  env.RunUntil(At(100));  // learn the 100us baseline
  transport.rtt = Duration::Micros(400);
  env.RunUntil(At(200));
  ASSERT_EQ(router.health(0), serving::Health::kDegraded);
  transport.probe_ok = false;
  env.RunUntil(At(300));
  ASSERT_EQ(router.health(0), serving::Health::kDown);
  transport.probe_ok = true;
  transport.rtt = Duration::Micros(100);
  env.RunUntil(At(1600));
  router.Stop();
  env.Run();

  using H = serving::Health;
  std::vector<std::pair<H, H>> edges;
  for (const auto& t : router.transitions()) edges.emplace_back(t.from, t.to);
  const std::vector<std::pair<H, H>> want = {{H::kHealthy, H::kDegraded},
                                             {H::kDegraded, H::kDown},
                                             {H::kDown, H::kRecovering},
                                             {H::kRecovering, H::kHealthy}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(counters.score_degrade_events, 1u);
  EXPECT_EQ(counters.score_recover_events, 0u);
  EXPECT_EQ(router.outages().size(), 1u);
}

TEST(RouterTest, StickyThenLeastLoadedRouting) {
  sim::Environment env;
  FakeTransport transport(env);
  serving::RouterOptions ro;
  metrics::RouterCounters counters;
  metrics::IncidentLog incidents;
  serving::Router router(env, transport, 3, ro, counters, incidents);
  router.Start();  // the clock never reaches the first probe: drive by hand

  // Sticky: the home wins while routable, regardless of load.
  router.OnRequestStart(0);
  router.OnRequestStart(0);
  EXPECT_EQ(router.Route(0), 0u);
  // Home down: least-loaded routable server wins; ties break on index.
  for (int i = 0; i < 3; ++i) router.OnRequestError(0);
  ASSERT_EQ(router.health(0), serving::Health::kDown);
  router.OnRequestStart(1);
  EXPECT_EQ(router.Route(0), 2u);  // server 2 has 0 outstanding, 1 has 1
  router.OnRequestStart(2);
  router.OnRequestStart(2);
  EXPECT_EQ(router.Route(0), 1u);
  router.Stop();
  env.Run();
}

// ---------------------------------------------------------------------------
// Arrival generator tests.

TEST(ArrivalsTest, PoissonGapsAreReproducibleAndPositive) {
  serving::ArrivalSpec spec;
  spec.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.rate_rps = 200.0;
  serving::ArrivalProcess a(spec);
  serving::ArrivalProcess b(spec);
  sim::Rng ra(42), rb(42);
  TimePoint prev;
  for (int i = 0; i < 200; ++i) {
    const TimePoint ta = a.Next(ra);
    EXPECT_EQ(ta, b.Next(rb));
    EXPECT_GT(ta, prev);
    prev = ta;
  }
  // 200 draws at 200 rps land around t=1s (loose 3x bounds).
  EXPECT_GT(prev, TimePoint() + Duration::Seconds(0.33));
  EXPECT_LT(prev, TimePoint() + Duration::Seconds(3.0));
}

TEST(ArrivalsTest, PoissonRejectsRateThatIsNotPositive) {
  serving::ArrivalSpec spec;
  spec.kind = serving::ArrivalSpec::Kind::kPoisson;
  for (const double rate : {0.0, -5.0, std::nan("")}) {
    spec.rate_rps = rate;
    EXPECT_THROW(serving::ArrivalProcess{spec}, std::invalid_argument)
        << rate;
  }
}

// ---------------------------------------------------------------------------
// Cluster end-to-end tests.

TEST(ClusterTest, FaultFreeClusterServesEveryRequest) {
  serving::ClusterOptions opts = SmallCluster(2);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients(
      4, PoissonClient("googlenet", 200.0, 6));
  const auto results = cluster.Run(clients);
  EXPECT_EQ(ServedAll(results), TotalAll(results));
  EXPECT_EQ(cluster.counters().requests_ok, 24u);
  EXPECT_EQ(cluster.counters().requests_failed_over, 0u);
  // No faults: the router's health view never leaves healthy.
  EXPECT_TRUE(cluster.router().transitions().empty());
  // Requests stayed home (sticky routing): no lazy tenant instantiation.
  EXPECT_EQ(cluster.counters().tenant_instantiations, 0u);
}

TEST(ClusterTest, CrashFailoverServesThroughOutage) {
  serving::ClusterOptions opts = SmallCluster(3);
  opts.faults.Crash(At(30), Duration::Millis(80), /*server=*/0);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients(
      6, PoissonClient("googlenet", 150.0, 25));
  const auto results = cluster.Run(clients);
  // Every request lands despite the crash: victims re-admit on survivors.
  EXPECT_EQ(ServedAll(results), TotalAll(results));
  EXPECT_EQ(CountAll(results, serving::RequestStatus::kFailed), 0);
  EXPECT_EQ(CountAll(results, serving::RequestStatus::kRejected), 0);
  EXPECT_EQ(cluster.counters().server_crashes, 1u);
  EXPECT_GT(cluster.counters().requests_failed_over, 0u);
  // Failover re-admissions are free: no budgeted retries were consumed by
  // the crash (the in-server device pipeline rejects promptly).
  EXPECT_EQ(cluster.counters().retries, 0u);
  // The crashed server's home clients had tenants instantiated elsewhere.
  EXPECT_GT(cluster.counters().tenant_instantiations, 0u);
  // The router saw the server go down.
  EXPECT_GE(cluster.counters().server_down_events, 1u);
}

TEST(ClusterTest, StaticRoutingBaselineDegradesUnderCrash) {
  serving::ClusterOptions opts = SmallCluster(3);
  opts.router.failover = false;  // static pin: no failover, budget retries only
  opts.faults.Crash(At(30), Duration::Millis(80), /*server=*/0);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients(
      6, PoissonClient("googlenet", 150.0, 25));
  const auto results = cluster.Run(clients);
  // Clients homed on server 0 lose requests issued during the outage.
  EXPECT_LT(ServedAll(results), TotalAll(results));
  EXPECT_GT(CountAll(results, serving::RequestStatus::kRejected) +
                CountAll(results, serving::RequestStatus::kFailed),
            0);
  EXPECT_EQ(cluster.counters().requests_failed_over, 0u);
  // Clients homed on the surviving servers are unaffected.
  for (const auto& r : results) {
    if (r.home_server != 0) {
      EXPECT_EQ(r.requests_completed,
                static_cast<int>(r.request_status.size()))
          << r.name;
    }
  }
}

TEST(ClusterTest, PartitionDropsTrafficThenFailsOver) {
  serving::ClusterOptions opts = SmallCluster(2);
  // A request is ~140ms at this sim's scale, so the window must span
  // several requests: sends into the partition are dropped until the
  // router marks the server down, and the heal leaves time to readmit.
  // Down-marking takes three errors (~30 ms apart for failed probes), and
  // the 130 ms onset lets at least one request be *sent* into the
  // partition while the server is still routable, exercising the lost-leg
  // path rather than only the probe path.
  opts.faults.Partition(At(130), Duration::Millis(1200), /*server=*/0,
                        fault::PartitionDirection::kToServer);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients(
      4, PoissonClient("googlenet", 150.0, 20));
  const auto results = cluster.Run(clients);
  EXPECT_EQ(ServedAll(results), TotalAll(results));
  EXPECT_GT(cluster.counters().requests_lost_to_server, 0u);
  EXPECT_GT(cluster.counters().requests_failed_over, 0u);
  EXPECT_GT(cluster.counters().probe_failures, 0u);
  // The partition healed: the router readmitted the server.
  EXPECT_GE(cluster.counters().server_readmissions, 1u);
}

TEST(ClusterTest, DeterministicAcrossRepeats) {
  const auto run = [] {
    serving::ClusterOptions opts = SmallCluster(3);
    opts.seed = 17;
    opts.faults.Crash(At(25), Duration::Millis(60), /*server=*/1);
    opts.faults.Partition(At(60), Duration::Millis(30), /*server=*/2,
                          fault::PartitionDirection::kToServer);
    serving::Cluster cluster(opts);
    std::vector<serving::ClusterClientSpec> clients(
        5, PoissonClient("googlenet", 120.0, 12));
    return std::make_pair(cluster.Run(clients),
                          cluster.counters().requests_total());
  };
  const auto [a, total_a] = run();
  const auto [b, total_b] = run();
  EXPECT_EQ(total_a, total_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << a[i].name;
    ASSERT_EQ(a[i].request_latency_ms, b[i].request_latency_ms) << a[i].name;
    ASSERT_EQ(a[i].request_status.size(), b[i].request_status.size());
    for (std::size_t r = 0; r < a[i].request_status.size(); ++r) {
      EXPECT_EQ(a[i].request_status[r], b[i].request_status[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded execution: the same cluster scenarios with the servers partitioned
// across engine shards. Golden bit-identity against the single-queue path is
// pinned in golden_determinism_test; these cover the cluster-level contracts
// on top of it.

TEST(ClusterTest, CrossShardFailoverSpendsNoRetryBudget) {
  // Two servers on two different shards. Server 0 crashes mid-traffic: its
  // victims must re-admit on server 1 — which lives on ANOTHER shard — via
  // the free-failover contract, crossing the shard boundary both ways.
  serving::ClusterOptions opts = SmallCluster(2);
  opts.shards = 2;
  opts.faults.Crash(At(30), Duration::Millis(80), /*server=*/0);
  serving::Cluster cluster(opts);
  ASSERT_EQ(cluster.shards(), 2u);
  std::vector<serving::ClusterClientSpec> clients(
      4, PoissonClient("googlenet", 150.0, 20));
  const auto results = cluster.Run(clients);
  // Every request lands despite the crash.
  EXPECT_EQ(ServedAll(results), TotalAll(results));
  EXPECT_EQ(CountAll(results, serving::RequestStatus::kFailed), 0);
  EXPECT_EQ(CountAll(results, serving::RequestStatus::kRejected), 0);
  // Victims crossed shards: failover fired, and it was free (no budgeted
  // retries), with lazy tenant instantiation on the survivor's shard.
  EXPECT_GT(cluster.counters().requests_failed_over, 0u);
  EXPECT_EQ(cluster.counters().retries, 0u);
  EXPECT_GT(cluster.counters().tenant_instantiations, 0u);
  // The engine actually ran parallel windows and crossed boundaries.
  EXPECT_GT(cluster.engine().sync_windows(), 0u);
  EXPECT_GT(cluster.engine().boundary_events(), 0u);
}

TEST(ClusterTest, FailoverTenantAddedUnderInFlightRequests) {
  // Server 0 crashes, so each of its clients' first arrival on server 1
  // adds a tenant there while server 1's own requests are suspended in
  // their retry loops (a kernel-failure storm keeps them retrying). Those
  // requests read their tenant again after every await, so adding tenants
  // must never move existing ones.
  serving::ClusterOptions opts = SmallCluster(2);
  opts.faults.Crash(At(100), Duration::Millis(400), /*server=*/0);
  opts.server.degradation.retry.max_retries = 50;
  for (double t = 90; t < 400; t += 2) {
    for (gpusim::StreamId s = 1; s <= 4; ++s) {
      opts.server.faults.KernelFailure(At(t), s);
    }
  }
  serving::Cluster cluster(opts);
  const auto results = cluster.Run(std::vector<serving::ClusterClientSpec>(
      4, PoissonClient("googlenet", 100.0, 8)));
  EXPECT_EQ(TotalAll(results), 32);
  EXPECT_GT(cluster.counters().tenant_instantiations, 0u);
  EXPECT_GT(cluster.server(1).counters().retries, 0u);
  EXPECT_EQ(cluster.server(1).num_tenants(), 4u);
}

// Returns the invalid_argument message `f` throws ("" if none).
template <typename F>
std::string InvalidArgumentMessage(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ClusterTest, ShardedModeRejectsUnpartitionableState) {
  // Previously-banned state now shards: alloc faults and a server-side
  // tracer both construct at shards=2.
  serving::ClusterOptions lifted = SmallCluster(2);
  lifted.shards = 2;
  lifted.server.faults.AllocFault(At(10), Duration::Millis(5));
  metrics::Tracer tracer(1000);
  lifted.server.executor.tracer = &tracer;
  EXPECT_NO_THROW(serving::Cluster{lifted});
  // Cluster servers never run Experiment::Run, so a per-server registry,
  // phase collector or sampler would be silently ignored: the constructor
  // rejects each one with the same message, naming the field group and the
  // cluster-level fix.
  metrics::MetricRegistry registry;
  metrics::PhaseCollector phases;
  for (int field = 0; field < 3; ++field) {
    SCOPED_TRACE(field);
    serving::ClusterOptions opts = SmallCluster(2);
    serving::ObservabilityOptions& o = opts.server.observability;
    if (field == 0) o.registry = &registry;
    if (field == 1) o.phases = &phases;
    if (field == 2) o.sample_interval = Duration::Millis(10);
    const std::string msg =
        InvalidArgumentMessage([&] { serving::Cluster cluster(opts); });
    EXPECT_NE(msg.find("ClusterOptions::server.observability"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("ClusterOptions::registry or ClusterOptions::phases"),
              std::string::npos)
        << msg;
  }
  // The single-server legacy open loop would silently run closed-loop in a
  // cluster, so Run rejects it and names the arrival generator as the fix.
  serving::ClusterClientSpec legacy;
  legacy.request.model = "googlenet";
  legacy.request.num_batches = 2;
  legacy.request.mean_interarrival = Duration::Millis(10);
  {
    serving::Cluster cluster(SmallCluster(2));
    const std::string msg =
        InvalidArgumentMessage([&] { cluster.Run({legacy}); });
    EXPECT_NE(msg.find("ClusterClientSpec::arrivals"), std::string::npos)
        << msg;
  }
  // A negative request count is rejected up front, naming the stream.
  serving::ClusterStreamSpec negative;
  negative.request.model = "googlenet";
  negative.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  negative.arrivals.rate_rps = 100.0;
  negative.num_requests = -1;
  {
    serving::Cluster cluster(SmallCluster(2));
    const std::string msg =
        InvalidArgumentMessage([&] { cluster.RunStreams({negative}); });
    EXPECT_NE(msg.find("stream 0 (googlenet)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("num_requests = -1"), std::string::npos) << msg;
  }
  // A stream's arrivals come from its generator alone, so the legacy open
  // loop on its request template is rejected rather than silently ignored.
  serving::ClusterStreamSpec legacy_stream = negative;
  legacy_stream.num_requests = 5;
  legacy_stream.request.mean_interarrival = Duration::Millis(10);
  {
    serving::Cluster cluster(SmallCluster(2));
    const std::string msg =
        InvalidArgumentMessage([&] { cluster.RunStreams({legacy_stream}); });
    EXPECT_NE(msg.find("stream 0 (googlenet)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("request.mean_interarrival"), std::string::npos) << msg;
  }
}

// A fault on a server the cluster does not have is rejected when the
// cluster is built, before any server starts serving or any probe loop runs.
TEST(ClusterTest, ConstructorRejectsFaultOnMissingServer) {
  serving::ClusterOptions opts = SmallCluster(2);
  opts.faults.Crash(At(10), Duration::Millis(5), /*server=*/2);
  try {
    serving::Cluster cluster(opts);
    ADD_FAILURE() << "a crash on server 2 of 2 constructed";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("server 2"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterTest, ShardedAllocFaultMatchesUnshardedTrajectory) {
  // Server 0 crashes while every server's device sits in an alloc-fault
  // window: the crash victims fail over to server 1, whose first-arrival
  // tenant instantiation hits TransientAllocFailure — the exact path that
  // used to be banned in sharded mode. The sharded run must replay the
  // unsharded trajectory bit-for-bit, including the budgeted retries the
  // alloc failures cost.
  const auto run = [](std::size_t shards) {
    serving::ClusterOptions opts = SmallCluster(2);
    opts.seed = 23;
    opts.shards = shards;
    opts.faults.Crash(At(30), Duration::Millis(80), /*server=*/0);
    opts.server.faults.AllocFault(At(25), Duration::Millis(120));
    serving::Cluster cluster(opts);
    std::vector<serving::ClusterClientSpec> clients(
        4, PoissonClient("googlenet", 150.0, 20));
    auto results = cluster.Run(clients);
    return std::make_pair(std::move(results), cluster.counters().retries);
  };
  const auto [unsharded, retries1] = run(1);
  const auto [sharded, retries2] = run(2);
  // The scenario only proves the lift if instantiation actually failed:
  // crashes alone fail over for free, so budgeted retries certify alloc
  // failures fired.
  EXPECT_GT(retries1, 0u);
  EXPECT_EQ(retries1, retries2);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (std::size_t i = 0; i < unsharded.size(); ++i) {
    EXPECT_EQ(unsharded[i].finish_time, sharded[i].finish_time);
    ASSERT_EQ(unsharded[i].request_latency_ms, sharded[i].request_latency_ms);
    ASSERT_EQ(unsharded[i].request_status.size(),
              sharded[i].request_status.size());
    for (std::size_t r = 0; r < unsharded[i].request_status.size(); ++r) {
      EXPECT_EQ(unsharded[i].request_status[r], sharded[i].request_status[r]);
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregate arrival streams: one generator standing in for a population.

TEST(ArrivalsTest, AggregateStreamDrawsReproducibleClientIds) {
  serving::ArrivalSpec spec;
  spec.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.rate_rps = 500.0;
  serving::AggregateArrivalProcess a(spec, 1000000);
  serving::AggregateArrivalProcess b(spec, 1000000);
  sim::Rng ra(5), rb(5);
  TimePoint prev;
  for (int i = 0; i < 300; ++i) {
    const TimePoint t = a.Next(ra);
    const std::uint64_t id = a.NextClient(ra);
    EXPECT_EQ(t, b.Next(rb));
    EXPECT_EQ(id, b.NextClient(rb));
    EXPECT_GT(t, prev);
    EXPECT_LT(id, 1000000u);
    prev = t;
  }
}

TEST(ClusterTest, StreamRunServesAggregateTraffic) {
  metrics::MetricRegistry registry;
  serving::ClusterOptions opts = SmallCluster(2);
  opts.registry = &registry;
  serving::Cluster cluster(opts);
  serving::ClusterStreamSpec stream;
  stream.request.model = "googlenet";
  stream.request.batch = 10;
  stream.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  stream.arrivals.rate_rps = 200.0;
  stream.modeled_clients = 100000;  // population >> in-flight requests
  stream.num_requests = 40;
  const auto results = cluster.RunStreams({stream});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].requests_completed, 40);
  EXPECT_EQ(results[0].request_status.size(), 40u);
  for (const double ms : results[0].request_latency_ms) EXPECT_GT(ms, 0.0);
  // Ids spread across both servers' homes, so both served traffic.
  EXPECT_EQ(cluster.counters().requests_ok, 40u);
  // Stream requests land in the cluster latency histogram like client
  // requests, each exactly once.
  const auto* hist = registry.FindHistogram(
      "olympian_cluster_request_latency_ms", {{"model", "googlenet"}});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 40u);
  const auto& ms = results[0].request_latency_ms;
  EXPECT_EQ(hist->min(), *std::min_element(ms.begin(), ms.end()));
  EXPECT_EQ(hist->max(), *std::max_element(ms.begin(), ms.end()));
}

// With no clients or streams there is no last one to stop the router's and
// the servers' probe loops, so both entry points must stop them up front.
TEST(ClusterTest, EmptyWorkloadsReturn) {
  serving::Cluster clients_cluster(SmallCluster(2));
  EXPECT_TRUE(clients_cluster.Run({}).empty());
  serving::Cluster streams_cluster(SmallCluster(2));
  EXPECT_TRUE(streams_cluster.RunStreams({}).empty());
}

TEST(ClusterTest, StreamRunIsBitIdenticalAcrossShardCounts) {
  const auto run = [](std::size_t shards) {
    serving::ClusterOptions opts = SmallCluster(2);
    opts.seed = 23;
    opts.shards = shards;
    opts.faults.Crash(At(50), Duration::Millis(60), /*server=*/1);
    serving::Cluster cluster(opts);
    serving::ClusterStreamSpec stream;
    stream.request.model = "googlenet";
    stream.request.batch = 10;
    stream.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    stream.arrivals.rate_rps = 150.0;
    stream.modeled_clients = 50000;
    stream.num_requests = 30;
    return cluster.RunStreams({stream});
  };
  const auto seq = run(1);
  const auto par = run(2);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].finish_time, par[i].finish_time);
    EXPECT_EQ(seq[i].requests_completed, par[i].requests_completed);
    ASSERT_EQ(seq[i].request_latency_ms, par[i].request_latency_ms);
    for (std::size_t r = 0; r < seq[i].request_status.size(); ++r) {
      EXPECT_EQ(seq[i].request_status[r], par[i].request_status[r]);
    }
  }
}

TEST(ClusterTest, RandomServerFaultPlanIsSeedStable) {
  fault::ServerFaultPlan::RandomOptions ro;
  ro.num_servers = 4;
  ro.expected_crashes = 2.0;
  ro.expected_partitions = 2.0;
  const auto a = fault::ServerFaultPlan::Random(ro, 99);
  const auto b = fault::ServerFaultPlan::Random(ro, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].server, b.events()[i].server);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  // Sorted by time, servers in range.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a.events()[i - 1].at, a.events()[i].at);
  }
  for (const auto& e : a.events()) EXPECT_LT(e.server, 4u);
}

}  // namespace
}  // namespace olympian
