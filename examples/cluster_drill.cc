// Cluster drill: three single-GPU servers behind the front-end router, an
// open-loop Poisson client population, and a server-level fault schedule —
// a full process crash plus an inbound network partition.
//
// Watch the router's transition log: the crashed server stops answering
// probe heartbeats, walks kHealthy -> kDegraded -> kDown, and its in-flight
// victims fail over to the survivors WITHOUT spending their retry budget
// (the first arrival on a non-home server pays parameter streaming +
// warm-up). After the outage the server must string together consecutive
// probe successes (kRecovering) before the router routes to it again.
// The partitioned server looks identical from the router's seat — it only
// sees silence — which is exactly the point: the router's failure model is
// inferred, not confessed.
//
//   $ ./examples/cluster_drill
//
// Run it twice — the output is bit-identical: servers, router, probes, and
// faults all share one virtual clock.

#include <cstdio>
#include <iostream>
#include <vector>

#include "fault/fault.h"
#include "serving/cluster.h"

using namespace olympian;

int main() {
  const sim::TimePoint t0;

  serving::ClusterOptions opts;
  opts.num_servers = 3;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 29;
  // Server 0 crashes at t=400ms for 600ms (process gone: probes and
  // requests time out). Server 2 is partitioned router->server at t=900ms
  // for 700ms (requests vanish in flight; the router sees probe timeouts).
  opts.faults.Crash(t0 + sim::Duration::Millis(400),
                    sim::Duration::Millis(600), /*server=*/0);
  opts.faults.Partition(t0 + sim::Duration::Millis(900),
                        sim::Duration::Millis(700), /*server=*/2,
                        fault::PartitionDirection::kToServer);

  serving::Cluster cluster(opts);

  // Six clients, two homed per server, each an open-loop Poisson source.
  serving::ClusterClientSpec spec;
  spec.request.model = "googlenet";
  spec.request.batch = 10;
  spec.request.num_batches = 12;
  spec.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  spec.arrivals.rate_rps = 100.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(6, spec));

  std::printf("%-10s %-6s %-8s %s\n", "client", "home", "served",
              "request statuses");
  for (const auto& r : results) {
    std::printf("%-10s srv%-3zu %d/%-6d ", r.name.c_str(), r.home_server,
                r.requests_completed,
                static_cast<int>(r.request_status.size()));
    for (const auto s : r.request_status) {
      std::printf("%s ", serving::ToString(s));
    }
    std::printf("\n");
  }

  std::printf("\nrouter health transitions:\n");
  for (const auto& t : cluster.router().transitions()) {
    std::printf("  %8.3f s  srv%zu  %-10s -> %s\n", (t.at - t0).seconds(),
                t.target, serving::ToString(t.from), serving::ToString(t.to));
  }

  std::printf("\nrouter MTTR incidents (down-mark to readmission):\n");
  for (const serving::Outage& o : cluster.router().outages()) {
    std::printf("  %.3f s\n", o.mttr().seconds());
  }

  std::printf("\nmakespan %.3f s\n", cluster.makespan().seconds());
  std::printf("\nrouter counters:\n");
  cluster.counters().Print(std::cout);
  return 0;
}
