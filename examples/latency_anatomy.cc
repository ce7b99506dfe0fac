// Latency anatomy: where did the time actually go, and who is to blame for
// the tail?
//
// A three-server cluster takes a staged gray-failure drill — a fractional
// capacity loss (the gray fault: the server is up but slow), a full process
// crash, and an inbound network partition — while every request carries a
// PhaseAccount that charges each virtual-time interval of its life to
// exactly one phase (router queue, network hops, admission, reload, batcher
// wait, GPU queue vs compute, backoff, failover re-admission, ...). The
// phase sum equals the end-to-end latency bit-exactly in virtual time; this
// binary exits nonzero if even one request violates the identity.
//
// On top of the per-request accounts:
//   * the PhaseCollector folds SLO-violating requests into a per-(server,
//     model) tail-blame table — which phase dominated each violation;
//   * the IncidentLog correlates each injected fault with the router's
//     detection, the mitigation that shifted traffic (failover/brownout),
//     and recovery, with per-incident request impact and goodput dip;
//   * the engine's wall-clock accessors show, for sharded runs, where the
//     physical threads spent their wall time (busy vs barrier wait); the
//     table goes to stderr.
//
// Artifacts (written to the working directory):
//   <prefix>_blame.json      tail-blame table (integer-ns, byte-stable)
//   <prefix>_incidents.json  incident timelines (integer-ns, byte-stable)
//   <prefix>_trace.json      Chrome trace: request flows + incident spans
//                            + sampled series as counter charts
//
//   $ ./examples/latency_anatomy [shards] [prefix]
//
// A shard count that is not a whole positive integer prints `error: …` and
// exits 1, and so does an artifact that cannot be written.
//
// The blame and incident exports are fed hub-side in virtual-time order, so
// they are byte-identical at any shard count — run with shards=1 and
// shards=4 and diff the files. Only the engine introspection (stderr)
// differs: it reports physical wall time, which IS shard-count-dependent.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "serving/cluster.h"

using namespace olympian;

int main(int argc, char** argv) {
  std::size_t shards = 1;
  if (argc > 1) {
    // One whole token, so a typo such as "4x" or "abc" is rejected rather
    // than run at another shard count.
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, shards);
    if (ec != std::errc() || ptr != end || shards == 0) {
      std::fprintf(stderr,
                   "error: shard count must be a positive integer, got '%s'\n",
                   argv[1]);
      return 1;
    }
  }
  const std::string prefix = argc > 2 ? argv[2] : "latency_anatomy";
  const sim::TimePoint t0;

  metrics::Tracer tracer(300000);
  metrics::MetricRegistry registry;
  metrics::PhaseCollector phases(
      metrics::PhaseCollector::Options{.slo_ms = 250.0, .registry = &registry});
  metrics::IncidentLog incidents;

  serving::ClusterOptions opts;
  opts.num_servers = 3;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.server.executor.tracer = &tracer;
  // Request-level trace only: per-node spans would be ~20k events per
  // request and drown the flows/incidents/counters this drill is about.
  opts.server.executor.trace_node_spans = false;
  opts.seed = 29;
  opts.shards = shards;
  opts.registry = &registry;
  opts.phases = &phases;
  opts.incidents = &incidents;

  // The staged drill. Server 2 goes gray first — still up, answering
  // probes, but at 40% speed — then server 0 crashes outright, and server 1
  // is partitioned inbound while 0 is still recovering.
  opts.faults.CapacityLoss(t0 + sim::Duration::Millis(300),
                           sim::Duration::Millis(800), /*server=*/2,
                           /*capacity=*/0.4);
  opts.faults.Crash(t0 + sim::Duration::Millis(400),
                    sim::Duration::Millis(600), /*server=*/0);
  opts.faults.Partition(t0 + sim::Duration::Millis(1200),
                        sim::Duration::Millis(500), /*server=*/1,
                        fault::PartitionDirection::kToServer);

  serving::Cluster cluster(opts);

  serving::ClusterClientSpec spec;
  spec.request.model = "googlenet";
  spec.request.batch = 10;
  spec.request.num_batches = 12;
  spec.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.arrivals.rate_rps = 100.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(6, spec));

  int total = 0, served = 0;
  for (const auto& r : results) {
    total += static_cast<int>(r.request_status.size());
    served += r.requests_completed;
  }
  std::printf("served %d/%d requests, makespan %.3f s\n", served, total,
              cluster.makespan().seconds());

  // The tail-blame table: per server, where violating requests spent their
  // time and which phase dominated.
  std::printf("\ntail blame (SLO %.0f ms): %llu requests, %llu violations, "
              "%llu identity mismatches\n",
              phases.slo_ms(),
              static_cast<unsigned long long>(phases.requests()),
              static_cast<unsigned long long>(phases.violations()),
              static_cast<unsigned long long>(phases.mismatches()));
  for (const auto& [key, row] : phases.rows()) {
    std::printf("  server %d %-10s %3llu req %3llu viol", key.first,
                key.second.c_str(),
                static_cast<unsigned long long>(row.requests),
                static_cast<unsigned long long>(row.violations));
    if (row.violations > 0) {
      int best = 0;
      for (int i = 1; i < metrics::kPhaseCount; ++i) {
        if (row.dominant[static_cast<std::size_t>(i)] >
            row.dominant[static_cast<std::size_t>(best)])
          best = i;
      }
      std::printf("  dominant: %s",
                  metrics::PhaseName(static_cast<metrics::Phase>(best)));
    }
    std::printf("\n");
  }

  // Incident timelines: injection -> detection -> mitigation -> recovery.
  std::printf("\nincidents:\n");
  for (const auto& inc : incidents.incidents()) {
    std::printf("  srv%d %-9s injected %7.3fs", inc.server, inc.kind.c_str(),
                inc.injected_ns / 1e9);
    if (inc.detected_ns >= 0) {
      std::printf("  detected +%.3fs",
                  (inc.detected_ns - inc.injected_ns) / 1e9);
    } else {
      std::printf("  tolerated (never detected)");
    }
    if (inc.mitigated_ns >= 0) {
      std::printf("  mitigated +%.3fs (%s)",
                  (inc.mitigated_ns - inc.injected_ns) / 1e9,
                  inc.mitigation.c_str());
    }
    if (inc.recovered_ns >= 0) {
      std::printf("  recovered +%.3fs",
                  (inc.recovered_ns - inc.injected_ns) / 1e9);
    }
    std::printf("  [%llu req, %llu failed, goodput dip %.3f]\n",
                static_cast<unsigned long long>(inc.requests_impacted),
                static_cast<unsigned long long>(inc.failures_impacted),
                inc.goodput_dip);
  }

  // Each artifact is closed and checked, so a file that could not be
  // written fails the run instead of being reported as written.
  const auto write = [&prefix](const char* suffix, const auto& emit) {
    const std::string path = prefix + suffix;
    std::ofstream os(path);
    emit(os);
    os.close();
    if (os) return true;
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  };
  // One Perfetto timeline with everything on it: request flows, incident
  // spans on the incident track, sampled series as counter charts.
  incidents.Annotate(tracer);
  metrics::ExportCountersToTrace(registry, tracer);
  if (!write("_blame.json",
             [&](std::ostream& os) { phases.WriteBlameJson(os); }) ||
      !write("_incidents.json",
             [&](std::ostream& os) { incidents.WriteJson(os); }) ||
      !write("_trace.json",
             [&](std::ostream& os) { tracer.WriteChromeTrace(os); })) {
    return 1;
  }
  std::printf("\nwrote %s_blame.json, %s_incidents.json, %s_trace.json "
              "(%zu events, %llu dropped)\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str(), tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()));

  // Engine introspection is wall-clock — shard-count-dependent by nature —
  // so it goes to stderr, keeping stdout byte-identical at any shard count.
  std::fprintf(stderr, "\nengine introspection (%zu shard%s):\n",
               cluster.shards(), cluster.shards() == 1 ? "" : "s");
  const auto& eng = cluster.engine();
  for (std::size_t k = 0; k < eng.shards(); ++k) {
    std::fprintf(stderr,
                 "  shard %zu: %llu events, %llu windows, busy %.3f ms, "
                 "barrier wait %.3f ms\n",
                 k, static_cast<unsigned long long>(eng.shard_events(k)),
                 static_cast<unsigned long long>(eng.shard_windows_run(k)),
                 eng.shard_busy_wall_ns(k) / 1e6,
                 eng.shard_barrier_wait_wall_ns(k) / 1e6);
  }

  // The accounting identity is the contract: phase sum == latency for every
  // single request, bit-exact in virtual time, faults and failovers
  // included. CI runs this binary at shards=1 and shards=4 and byte-diffs
  // the blame/incident exports.
  if (phases.mismatches() != 0) {
    std::fprintf(stderr, "FAIL: %llu phase-sum mismatches\n",
                 static_cast<unsigned long long>(phases.mismatches()));
    return 1;
  }
  return 0;
}
