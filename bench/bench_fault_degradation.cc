// Graceful-degradation sweep: how request outcomes and makespan degrade as
// the injected fault rate rises. Four tenants with request deadlines run
// under the Olympian fair scheduler on a two-GPU server with device
// failover while a seeded random FaultPlan throws kernel failures, device
// hangs, and allocation faults at both devices.
//
// Expected shape: goodput (ok + failed_retried) decays gradually with the
// fault rate — never a cliff or a stall — and every request still ends in a
// definite terminal state, so the outcome columns always sum to the total.
//
// Each scale is one sweep case in BENCH_fault_degradation.json: outcome
// counters, an SLO block (RecordStatuses), and the health monitor's
// per-incident repair-time distribution (hangs outliving the escalation
// budget go kDown and come back through the recovery pipeline) embedded
// under "histograms" as device_mttr_ms.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness.h"
#include "metrics/stats.h"
#include "metrics/table.h"

using namespace olympian;

namespace {

double Metric(const bench::SweepCase& r, const std::string& key) {
  for (const auto& [k, v] : r.metrics) {
    if (k == key) return v;
  }
  return 0.0;
}

}  // namespace

int main() {
  bench::PrintHeader("Request outcomes vs injected fault rate",
                     "robustness extension");

  const double kScales[] = {0.0, 1.0, 2.0, 4.0, 8.0};

  bench::SweepRunner sweep("fault_degradation");
  for (const double scale : kScales) {
    const std::string name = "scale-" + metrics::Table::Num(scale, 0);
    sweep.Add(name, [scale](bench::SweepCase& out) {
      serving::ServerOptions opts;
      opts.seed = 41;
      opts.num_gpus = 2;
      opts.degradation.retry.max_retries = 3;
      // Health monitor on: long hangs escalate kDegraded -> kDown, victims
      // fail over to the sibling device, and the repaired device comes
      // back through the recovery pipeline — producing the per-incident
      // repair times recorded below.
      opts.failover.enabled = true;
      if (scale > 0.0) {
        fault::FaultPlan::RandomOptions ro;
        ro.horizon = sim::Duration::Seconds(20.0);
        ro.num_gpus = 2;
        ro.expected_kernel_failures = 4.0 * scale;
        ro.expected_hangs = 1.0 * scale;
        ro.mean_hang = sim::Duration::Millis(400);
        ro.expected_alloc_faults = 2.0 * scale;
        ro.mean_alloc_window = sim::Duration::Millis(20);
        opts.faults = fault::FaultPlan::Random(ro, 1234);
      }

      // Every case builds its own profiler/scheduler: sweep cases run on
      // worker threads and must not share a ProfileCache.
      bench::ProfileCache profiles;
      const auto& profile = profiles.Get("resnet-152", 20);
      const auto q = sim::Duration::Micros(800);

      serving::Experiment exp(opts);
      core::Scheduler sched(exp.env(), exp.gpu(),
                            std::make_unique<core::FairPolicy>());
      sched.SetProfile(profile.key, &profile.cost,
                       core::Profiler::ThresholdFor(profile, q));
      exp.SetHooks(&sched);

      serving::ClientSpec tenant{.model = "resnet-152", .batch = 20,
                                 .num_batches = 8};
      tenant.deadline = sim::Duration::Seconds(3.0);
      const auto results =
          exp.Run(std::vector<serving::ClientSpec>(4, tenant));
      out.RecordStatuses(results);

      int ok = 0, retried = 0, timed_out = 0, failed = 0, rejected = 0;
      for (const auto& r : results) {
        ok += r.CountStatus(serving::RequestStatus::kOk);
        retried += r.CountStatus(serving::RequestStatus::kFailedRetried);
        timed_out += r.CountStatus(serving::RequestStatus::kTimedOut);
        failed += r.CountStatus(serving::RequestStatus::kFailed);
        rejected += r.CountStatus(serving::RequestStatus::kRejected);
      }
      out.Set("fault_scale", scale);
      out.Set("ok", static_cast<double>(ok));
      out.Set("retried", static_cast<double>(retried));
      out.Set("timed_out", static_cast<double>(timed_out));
      out.Set("failed", static_cast<double>(failed));
      out.Set("rejected", static_cast<double>(rejected));
      out.Set("goodput", static_cast<double>(ok + retried) /
                             static_cast<double>(ok + retried + timed_out +
                                                 failed + rejected));
      out.Set("retries", static_cast<double>(exp.counters().retries));
      out.Set("makespan_s", exp.makespan().seconds());

      // Per-incident repair times (down -> readmitted) from the device
      // health monitor, as a distribution rather than one mean.
      metrics::MetricRegistry::Histogram mttr;
      if (exp.health() != nullptr) {  // nullptr unless failover.enabled
        for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
          for (const serving::Outage& o : exp.health()->outages()) {
            if (o.target == g) mttr.Observe(o.mttr().millis());
          }
        }
      }
      out.Set("down_events",
              static_cast<double>(exp.counters().device_down_events));
      out.Set("mttr_p95_ms", mttr.count() > 0 ? mttr.Quantile(0.95) : 0.0);
      out.histograms = std::make_shared<bench::Json>(
          bench::Json::Object().Set("device_mttr_ms",
                                    bench::HistogramJson(mttr)));
    });
  }

  const auto& results = sweep.RunAll();
  metrics::Table t({"Fault scale", "ok", "retried", "timed out", "failed",
                    "rejected", "retries", "MTTR p95 (ms)", "makespan (s)"});
  for (const auto& r : results) {
    t.AddRow({metrics::Table::Num(Metric(r, "fault_scale"), 1),
              metrics::Table::Num(Metric(r, "ok"), 0),
              metrics::Table::Num(Metric(r, "retried"), 0),
              metrics::Table::Num(Metric(r, "timed_out"), 0),
              metrics::Table::Num(Metric(r, "failed"), 0),
              metrics::Table::Num(Metric(r, "rejected"), 0),
              metrics::Table::Num(Metric(r, "retries"), 0),
              metrics::Table::Num(Metric(r, "mttr_p95_ms"), 0),
              metrics::Table::Num(Metric(r, "makespan_s"), 3)});
  }
  t.Print(std::cout);
  std::cout << "\n4 clients x 8 requests on a 2-GPU server with device\n"
               "failover, 3s deadlines, <=3 retries per request; faults\n"
               "drawn from a seeded random plan (scale multiplies the base\n"
               "rates). Outcome columns sum to 32.\n";
  return 0;
}
