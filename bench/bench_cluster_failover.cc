// Cluster availability under server crashes and network partitions, with
// the front-end router's cross-server failover on vs off.
//
// Three single-GPU servers, six open-loop Poisson clients (two homed per
// server), and an explicit server-level fault schedule: two staggered
// process crashes plus an inbound partition. With failover the router
// detects each incident (probe heartbeats + consecutive errors), re-routes
// victims to survivors without spending their retry budget, and readmits
// the server after the warm-up hand-shake; the static baseline pins every
// client to its home server and degrades in proportion to the faulted
// share of demand.
//
// Headline gate (CI cluster-chaos-smoke): availability >= 99% with
// failover under the full crash+partition sweep, router MTTR p95 bounded,
// and a same-seed determinism repeat that must be bit-identical. Scalars
// land in BENCH_cluster_failover.json; the router-side per-incident MTTR
// distribution is embedded under "histograms".

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "serving/cluster.h"

using namespace olympian;

namespace {

sim::TimePoint At(double ms) {
  return sim::TimePoint() + sim::Duration::Millis(ms);
}

constexpr int kClients = 6;
constexpr int kRequests = 15;

// Everything a determinism repeat must reproduce bit-for-bit.
struct ClusterRun {
  std::vector<serving::ClusterClientResult> clients;
  metrics::RouterCounters counters;
  std::vector<serving::Outage> outages;
  sim::Duration makespan;
};

ClusterRun RunCluster(bool failover, bool crash, bool partition,
                      bench::SweepCase* record_engine = nullptr,
                      metrics::PhaseCollector* phases = nullptr) {
  serving::ClusterOptions opts;
  opts.num_servers = 3;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 29;
  opts.router.failover = failover;
  opts.phases = phases;
  // A request is ~140ms at this sim's scale; windows span several requests
  // and never overlap on the same server, so a survivor always exists.
  if (crash) {
    opts.faults.Crash(At(400), sim::Duration::Millis(600), /*server=*/0);
    opts.faults.Crash(At(1800), sim::Duration::Millis(500), /*server=*/1);
  }
  if (partition) {
    opts.faults.Partition(At(900), sim::Duration::Millis(700), /*server=*/2,
                          fault::PartitionDirection::kToServer);
  }
  serving::Cluster cluster(opts);

  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = kRequests;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 100.0;
  ClusterRun run;
  run.clients =
      cluster.Run(std::vector<serving::ClusterClientSpec>(kClients, c));
  run.counters = cluster.counters();
  run.outages = cluster.router().outages();
  run.makespan = cluster.makespan();
  if (record_engine != nullptr) record_engine->RecordEngine(cluster.engine());
  return run;
}

double Metric(const bench::SweepCase& r, const std::string& key) {
  for (const auto& [k, v] : r.metrics) {
    if (k == key) return v;
  }
  return 0.0;
}

bool SameRun(const ClusterRun& a, const ClusterRun& b) {
  if (a.clients.size() != b.clients.size()) return false;
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    if (a.clients[i].finish_time != b.clients[i].finish_time) return false;
    if (a.clients[i].request_latency_ms != b.clients[i].request_latency_ms) {
      return false;
    }
    if (a.clients[i].request_status != b.clients[i].request_status) {
      return false;
    }
  }
  if (a.outages != b.outages) return false;
  if (a.makespan != b.makespan) return false;
  for (const auto& f : metrics::RouterCounters::Fields()) {
    if (a.counters.*(f.member) != b.counters.*(f.member)) return false;
  }
  return true;
}

double Availability(const ClusterRun& run) {
  int total = 0, served = 0;
  for (const auto& r : run.clients) {
    total += static_cast<int>(r.request_status.size());
    served += r.requests_completed;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(served) / static_cast<double>(total);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Cluster availability under crashes + partitions: router failover",
      "robustness extension");

  struct Case {
    const char* name;
    bool failover;
    bool crash;
    bool partition;
  };
  const Case kCases[] = {
      {"no-fault-failover", true, false, false},
      {"crash-static", false, true, false},
      {"crash-failover", true, true, false},
      {"chaos-static", false, true, true},
      {"chaos-failover", true, true, true},
  };

  bench::SweepRunner sweep("cluster_failover");
  for (const Case& cfg : kCases) {
    sweep.Add(cfg.name, [cfg](bench::SweepCase& out) {
      // Latency anatomy: every request charges its lifetime to phases; the
      // per-(server, model) blame table rides into BENCH_*.json as "blame".
      auto phases = std::make_shared<metrics::PhaseCollector>(
          metrics::PhaseCollector::Options{.slo_ms = 250.0});
      const ClusterRun run = RunCluster(cfg.failover, cfg.crash,
                                        cfg.partition, &out, phases.get());
      out.phases = phases;
      // The accounting identity (phase sum == end-to-end latency, bit-exact
      // in virtual time) must hold for every request, faults and all.
      out.Set("phase_mismatches", static_cast<double>(phases->mismatches()));
      out.Set("availability", Availability(run));

      metrics::Series latency;
      for (const auto& r : run.clients) {
        for (const double ms : r.request_latency_ms) latency.Add(ms);
      }
      out.Set("p99_ms", latency.Percentile(99));
      out.Set("makespan_s", run.makespan.seconds());
      const auto& c = run.counters;
      out.Set("failed_over", static_cast<double>(c.requests_failed_over));
      out.Set("requests_failed",
              static_cast<double>(c.requests_failed +
                                  c.requests_rejected_no_server));
      out.Set("lost_to_server", static_cast<double>(c.requests_lost_to_server));
      out.Set("down_events", static_cast<double>(c.server_down_events));
      out.Set("readmissions", static_cast<double>(c.server_readmissions));

      // Router-side per-incident MTTR (down-mark to readmission, detection
      // latency included) as a distribution.
      metrics::MetricRegistry::Histogram mttr_hist;
      for (const serving::Outage& o : run.outages) {
        mttr_hist.Observe(o.mttr().millis());
      }
      out.Set("mttr_p95_ms",
              mttr_hist.count() > 0 ? mttr_hist.Quantile(0.95) : 0.0);
      out.histograms = std::make_shared<bench::Json>(
          bench::Json::Object().Set("router_mttr_ms",
                                    bench::HistogramJson(mttr_hist)));

      // The chaos-failover headline additionally proves determinism: the
      // same seed must replay bit-identically (statuses, latencies,
      // per-incident MTTRs, every router counter).
      if (cfg.failover && cfg.crash && cfg.partition) {
        const ClusterRun repeat =
            RunCluster(cfg.failover, cfg.crash, cfg.partition);
        out.Set("determinism_ok", SameRun(run, repeat) ? 1.0 : 0.0);
      }
    });
  }

  const auto& results = sweep.RunAll();
  metrics::Table t({"Case", "Availability", "p99 (ms)", "Failed over",
                    "Failed", "Down events", "MTTR p95 (ms)"});
  for (const auto& r : results) {
    t.AddRow({r.name, metrics::Table::Pct(Metric(r, "availability")),
              metrics::Table::Num(Metric(r, "p99_ms"), 0),
              metrics::Table::Num(Metric(r, "failed_over"), 0),
              metrics::Table::Num(Metric(r, "requests_failed"), 0),
              metrics::Table::Num(Metric(r, "down_events"), 0),
              metrics::Table::Num(Metric(r, "mttr_p95_ms"), 0)});
    if (std::string(r.name).find("failover") != std::string::npos &&
        Metric(r, "availability") < 0.99) {
      std::cout << "WARNING: " << r.name << " availability "
                << Metric(r, "availability") << " below the 99% gate\n";
    }
  }
  t.Print(std::cout);
  std::cout << "\n3 single-GPU servers, 6 Poisson clients (2 homed per\n"
               "server), 15 requests each. Faults: 600ms crash on server 0\n"
               "at t=400ms, 500ms crash on server 1 at t=1.8s, 700ms inbound\n"
               "partition on server 2 at t=900ms. Availability = fraction of\n"
               "requests ending kOk or kFailedRetried.\n";
  return 0;
}
