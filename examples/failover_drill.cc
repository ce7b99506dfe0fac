// Failover drill: a two-GPU server loses a device mid-run, fails the
// victims over to the surviving replica, and readmits the device after a
// full recovery pipeline (driver re-init, parameter reload over PCIe,
// warm-up probes).
//
// Watch the health transition log: GPU 0 goes kDown at the reset, its
// in-flight requests are cancelled with a failover reason (no retry budget
// spent) and re-admitted on GPU 1 — the first arrival pays replica
// instantiation for its model there — and after the outage GPU 0 walks
// kDown -> kRecovering -> kHealthy and takes traffic again.
//
//   $ ./examples/failover_drill
//
// Run it twice — the output is bit-identical: the health monitor, placer,
// and recovery pipeline all live on the virtual clock.

#include <cstdio>
#include <iostream>
#include <vector>

#include "fault/fault.h"
#include "serving/health.h"
#include "serving/server.h"

using namespace olympian;

int main() {
  const sim::TimePoint t0;

  serving::ServerOptions opts;
  opts.seed = 23;
  opts.num_gpus = 2;
  opts.failover.enabled = true;
  // GPU 0 resets at t=600ms and stays down for 500ms. Recovery then
  // re-initializes the driver, reloads the parameters resident on the
  // device, and runs warm-up probes before readmission.
  opts.faults.DeviceReset(t0 + sim::Duration::Millis(600),
                          sim::Duration::Millis(500), /*gpu_index=*/0);

  serving::Experiment exp(opts);

  // Two tenants per device; distinct models, so the failover has to
  // instantiate the victim's model on the survivor.
  std::vector<serving::ClientSpec> tenants;
  for (int i = 0; i < 4; ++i) {
    tenants.push_back(serving::ClientSpec{
        .model = i % 2 == 0 ? "resnet-152" : "googlenet",
        .batch = 20,
        .num_batches = 8});
  }
  const auto results = exp.Run(tenants);

  std::printf("%-14s %-6s %-9s %s\n", "client", "home", "batches",
              "request statuses");
  for (const auto& r : results) {
    std::printf("%-14s gpu%-3zu %d/%-7d ", r.name.c_str(), r.gpu_index,
                r.batches_completed,
                static_cast<int>(r.request_status.size()));
    for (const auto s : r.request_status) {
      std::printf("%s ", serving::ToString(s));
    }
    std::printf("\n");
  }

  std::printf("\nhealth transitions:\n");
  for (const auto& t : exp.health()->transitions()) {
    std::printf("  %8.3f s  gpu%zu  %-10s -> %s\n",
                (t.at - t0).seconds(), t.target, serving::ToString(t.from),
                serving::ToString(t.to));
  }
  std::printf("\nmakespan %.3f s, MTTR(gpu0) %.3f s, replicas loaded %llu\n",
              exp.makespan().seconds(), exp.health()->Mttr(0).seconds(),
              static_cast<unsigned long long>(exp.placer()->replicas_loaded()));
  std::printf("\ncounters:\n");
  exp.counters().Print(std::cout);
  return 0;
}
