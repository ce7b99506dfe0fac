// Scaling of the sharded simulation engine inside ONE cluster experiment:
// the same chaos workload partitioned across 1/2/4/8 engine shards, at 4 and
// 16 servers. This is the perf sweep behind the sharded-engine work — the
// other benches parallelize across independent runs; this one parallelizes
// within a single run.
//
// Per (servers, shards) case: events, wall-clock run time, events/s, the
// per-shard event split (imbalance = max/mean, via RecordEngine), and a
// trajectory fingerprint (FNV-1a over every request's finish time, latency
// and status). All shard counts of one server count must fingerprint
// identically — the conservative engine is bit-exact, so parallelism is
// free of replay drift; main() checks this and the speedup table prints
// shards=1 as the denominator.
//
// A final case exercises the aggregate arrival path at population scale:
// one open-loop stream standing in for 1,000,000 modeled clients (memory is
// O(1) in the population — one generator, not one process per client).
//
// Cases run serially by default (OLYMPIAN_BENCH_THREADS=1 unless the caller
// overrides): the engine's own worker threads must not compete with sweep
// workers, or the within-run speedup measurement is noise.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness.h"
#include "metrics/table.h"
#include "serving/cluster.h"

using namespace olympian;

namespace {

sim::TimePoint At(double ms) {
  return sim::TimePoint() + sim::Duration::Millis(ms);
}

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
constexpr std::size_t kServerCounts[] = {4, 16};

struct ScaleRun {
  double secs = 0.0;
  std::uint64_t events = 0;
  std::uint64_t sync_windows = 0;
  std::uint64_t boundary_events = 0;
  std::uint32_t fingerprint = 0;
  std::size_t shards = 0;
};

std::uint32_t Fnv1a(std::uint32_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint32_t>(v & 0xffu);
    h *= 16777619u;
    v >>= 8;
  }
  return h;
}

// The chaos workload: crashes and a partition spread over distinct servers
// (and, at shards > 1, distinct shards), two open-loop clients homed per
// server. Identical virtual trajectory for every shard count.
ScaleRun RunScaleCase(std::size_t servers, std::size_t shards,
                      bench::SweepCase* record) {
  serving::ClusterOptions opts;
  opts.num_servers = servers;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 41;
  opts.shards = shards;
  opts.faults.Crash(At(150), sim::Duration::Millis(400), /*server=*/0);
  opts.faults.Partition(At(450), sim::Duration::Millis(350),
                        /*server=*/servers - 1,
                        fault::PartitionDirection::kToServer);
  if (servers > 4) {
    opts.faults.Crash(At(900), sim::Duration::Millis(300), /*server=*/7);
  }

  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 6;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 120.0;

  const auto t0 = std::chrono::steady_clock::now();
  serving::Cluster cluster(opts);
  const auto results = cluster.Run(
      std::vector<serving::ClusterClientSpec>(2 * servers, c));
  ScaleRun out;
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  out.events = cluster.engine().events_executed();
  out.sync_windows = cluster.engine().sync_windows();
  out.boundary_events = cluster.engine().boundary_events();
  out.shards = cluster.shards();
  std::uint32_t h = 2166136261u;
  for (const auto& r : results) {
    h = Fnv1a(h, static_cast<std::uint64_t>(r.finish_time.nanos()));
    for (std::size_t i = 0; i < r.request_status.size(); ++i) {
      h = Fnv1a(h, static_cast<std::uint64_t>(r.request_status[i]));
      double ms = i < r.request_latency_ms.size() ? r.request_latency_ms[i]
                                                  : 0.0;
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(ms));
      __builtin_memcpy(&bits, &ms, sizeof(bits));
      h = Fnv1a(h, bits);
    }
  }
  out.fingerprint = h;

  if (record != nullptr) {
    record->RecordEngine(cluster.engine());
    record->Set("servers", static_cast<double>(servers));
    record->Set("events", static_cast<double>(out.events));
    record->Set("run_seconds", out.secs);
    record->Set("events_per_s",
                out.secs > 0 ? static_cast<double>(out.events) / out.secs
                             : 0.0);
    record->Set("fingerprint", static_cast<double>(out.fingerprint));
  }
  return out;
}

// Aggregate arrivals at population scale: one stream modeling 1M clients.
void RunMillionClientCase(bench::SweepCase& out) {
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 53;
  opts.shards = 4;

  serving::ClusterStreamSpec s;
  s.request.model = "googlenet";
  s.request.batch = 10;
  s.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  s.arrivals.rate_rps = 400.0;
  s.modeled_clients = 1'000'000;
  s.num_requests = 2000;

  const auto t0 = std::chrono::steady_clock::now();
  serving::Cluster cluster(opts);
  const auto results = cluster.RunStreams({s});
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  out.RecordEngine(cluster.engine());
  int ok = 0;
  for (const auto st : results.at(0).request_status) {
    ok += st == serving::RequestStatus::kOk ||
          st == serving::RequestStatus::kFailedRetried;
  }
  out.Set("modeled_clients", static_cast<double>(s.modeled_clients));
  out.Set("requests", static_cast<double>(results.at(0).request_status.size()));
  out.Set("req_ok", ok);
  out.Set("run_seconds", secs);
  out.Set("events", static_cast<double>(cluster.engine().events_executed()));
  out.Set("events_per_s",
          secs > 0
              ? static_cast<double>(cluster.engine().events_executed()) / secs
              : 0.0);
}

double Metric(const bench::SweepCase& r, const std::string& key) {
  for (const auto& [k, v] : r.metrics) {
    if (k == key) return v;
  }
  return 0.0;
}

}  // namespace

int main() {
  // Engine worker threads do the parallelism here; sweep-level concurrency
  // would corrupt the speedup columns. Respect an explicit override.
  setenv("OLYMPIAN_BENCH_THREADS", "1", /*overwrite=*/0);

  bench::PrintHeader(
      "Sharded engine scaling: one cluster run across engine shards",
      "perf extension");

  bench::SweepRunner sweep("cluster_scale");
  for (const std::size_t servers : kServerCounts) {
    for (const std::size_t shards : kShardCounts) {
      const std::string name = "servers" + std::to_string(servers) +
                               "-shards" + std::to_string(shards);
      sweep.Add(name, [servers, shards](bench::SweepCase& out) {
        RunScaleCase(servers, shards, &out);
      });
    }
  }
  sweep.Add("stream-1M-clients", RunMillionClientCase);

  const auto& results = sweep.RunAll();

  // Speedup table, shards=1 of each server count as the denominator, plus
  // the bit-identity check (fingerprints must match across shard counts).
  std::map<double, double> base_secs;
  std::map<double, double> base_fp;
  bool identical = true;
  for (const auto& r : results) {
    if (Metric(r, "shards") == 1.0) {
      base_secs[Metric(r, "servers")] = Metric(r, "run_seconds");
      base_fp[Metric(r, "servers")] = Metric(r, "fingerprint");
    }
  }
  metrics::Table t({"Case", "Shards", "Events", "Events/s", "Wall (s)",
                    "Speedup", "Imbalance", "Identical"});
  for (const auto& r : results) {
    if (r.name == "stream-1M-clients") continue;
    const double servers = Metric(r, "servers");
    const double secs = Metric(r, "run_seconds");
    const bool same = Metric(r, "fingerprint") == base_fp[servers];
    identical = identical && same;
    t.AddRow({r.name, metrics::Table::Num(Metric(r, "shards"), 0),
              metrics::Table::Num(Metric(r, "events"), 0),
              metrics::Table::Num(Metric(r, "events_per_s"), 0),
              metrics::Table::Num(secs, 2),
              metrics::Table::Num(secs > 0 ? base_secs[servers] / secs : 0.0,
                                  2),
              metrics::Table::Num(Metric(r, "imbalance"), 3),
              same ? "yes" : "NO"});
  }
  t.Print(std::cout);
  const auto& m = results.back();
  std::cout << "\nAggregate stream: " << Metric(m, "requests")
            << " requests drawn from " << Metric(m, "modeled_clients")
            << " modeled clients (" << Metric(m, "req_ok") << " ok, "
            << Metric(m, "events_per_s") << " events/s, shards="
            << Metric(m, "shards") << ").\n";
  if (!identical) {
    std::cout << "ERROR: sharded trajectories diverged from shards=1 — the "
                 "conservative engine must be bit-exact.\n";
    return 1;
  }
  std::cout << "All shard counts replay the shards=1 trajectory "
               "bit-identically.\nSpeedup is bounded by physical cores; on a "
               "single hardware thread it degrades to ~1x.\n";
  return 0;
}
