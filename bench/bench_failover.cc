// Failover sweep: request availability under device outages, with the
// health-aware failover subsystem on vs off, at matched fault schedules.
//
// Two devices, four tenants (two homed per device), and an escalating
// number of device resets with real outages. Without failover a request
// pinned to a dead device burns its retry budget and fails; with failover
// the victims re-admit to the surviving replica (paying reload + warm-up
// on the virtual clock) and recovery readmits the device after the outage.
//
// Expected shape: availability — the (ok + retried) fraction — stays at
// 1.0 with failover across every fault rate and decays without it; the
// failover column of the makespan shows the migration + recovery cost.
// Per-case scalars land in BENCH_failover.json.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness.h"
#include "metrics/stats.h"
#include "metrics/table.h"

using namespace olympian;

namespace {

// `resets` device outages, alternating across both devices, spaced so they
// never overlap (at least one replica always survives).
fault::FaultPlan OutagePlan(int resets) {
  fault::FaultPlan plan;
  for (int k = 0; k < resets; ++k) {
    plan.DeviceReset(sim::TimePoint() + sim::Duration::Millis(300 + 700 * k),
                     sim::Duration::Millis(400),
                     /*gpu_index=*/static_cast<std::size_t>(k % 2));
  }
  return plan;
}

std::vector<serving::ClientSpec> Tenants() {
  std::vector<serving::ClientSpec> clients;
  for (int i = 0; i < 4; ++i) {
    // Alternating models so a failover must instantiate the victim's model
    // on the surviving device (reload + warm-up are part of the cost).
    clients.push_back(serving::ClientSpec{
        .model = i % 2 == 0 ? "resnet-152" : "googlenet",
        .batch = 20,
        .num_batches = 8});
  }
  return clients;
}

}  // namespace

int main() {
  bench::PrintHeader("Availability under device outages: failover on vs off",
                     "robustness extension");

  const int kRates[] = {0, 1, 2, 4};
  bench::SweepRunner sweep("failover");
  for (const int resets : kRates) {
    for (const bool failover : {false, true}) {
      const std::string name = "resets-" + std::to_string(resets) +
                               (failover ? "-failover" : "-static");
      sweep.Add(name, [resets, failover](bench::SweepCase& out) {
        serving::ServerOptions opts;
        opts.seed = 83;
        opts.num_gpus = 2;
        opts.degradation.retry.max_retries = 3;
        opts.faults = OutagePlan(resets);
        opts.failover.enabled = failover;
        // Live observability: sample device health / utilization / queue
        // depth on the virtual clock and embed the timeline in the
        // artifact, so an outage is visible as a dip in the series.
        metrics::MetricRegistry registry;
        opts.observability.registry = &registry;
        opts.observability.sample_interval = sim::Duration::Millis(50);
        serving::Experiment exp(opts);
        const auto results = exp.Run(Tenants());
        out.timeline =
            std::make_shared<bench::Json>(bench::TimelineJson(registry));

        int total = 0, served = 0;
        metrics::Series latency;
        for (const auto& r : results) {
          total += static_cast<int>(r.request_status.size());
          served += r.CountStatus(serving::RequestStatus::kOk) +
                    r.CountStatus(serving::RequestStatus::kFailedRetried);
          for (const double ms : r.request_latency_ms) latency.Add(ms);
        }
        out.Set("availability", total == 0 ? 0.0
                                           : static_cast<double>(served) /
                                                 static_cast<double>(total));
        out.Set("p99_ms", latency.Percentile(99));
        out.Set("makespan_s", exp.makespan().seconds());
        out.Set("failed_over",
                static_cast<double>(exp.counters().requests_failed_over));
        out.Set("down_events",
                static_cast<double>(exp.counters().device_down_events));
        // MTTR as a distribution, not just a mean: every completed
        // recovery's down -> readmitted interval feeds a log-bucketed
        // histogram, so the artifact carries per-incident repair times
        // (p95 as a scalar, full buckets under "histograms").
        double mttr_ms = 0.0;
        metrics::MetricRegistry::Histogram mttr_hist;
        if (exp.health() != nullptr) {
          sim::Duration mttr;
          int downed = 0;
          for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
            bool readmitted = false;
            for (const serving::Outage& o : exp.health()->outages()) {
              if (o.target != g) continue;
              readmitted = true;
              mttr_hist.Observe(o.mttr().millis());
            }
            if (readmitted) {
              mttr += exp.health()->Mttr(g);
              ++downed;
            }
          }
          if (downed > 0) mttr_ms = (mttr / downed).millis();
        }
        out.Set("mttr_ms", mttr_ms);
        out.Set("mttr_p95_ms",
                mttr_hist.count() > 0 ? mttr_hist.Quantile(0.95) : 0.0);
        out.histograms = std::make_shared<bench::Json>(
            bench::Json::Object().Set("mttr_ms",
                                      bench::HistogramJson(mttr_hist)));
        out.RecordStatuses(results);
      });
    }
  }

  const auto& results = sweep.RunAll();
  metrics::Table t({"Outages", "Failover", "Availability", "p99 (ms)",
                    "Makespan (s)", "Failed over", "MTTR (ms)",
                    "MTTR p95 (ms)"});
  std::size_t idx = 0;
  for (const int resets : kRates) {
    double avail[2] = {0.0, 0.0};
    for (const bool failover : {false, true}) {
      const auto& r = results[idx++];
      avail[failover ? 1 : 0] = r.metrics[0].second;
      t.AddRow({metrics::Table::Num(resets, 0), failover ? "on" : "off",
                metrics::Table::Pct(r.metrics[0].second),
                metrics::Table::Num(r.metrics[1].second, 0),
                metrics::Table::Num(r.metrics[2].second, 2),
                metrics::Table::Num(r.metrics[3].second, 0),
                metrics::Table::Num(r.metrics[5].second, 0),
                metrics::Table::Num(r.metrics[6].second, 0)});
    }
    if (resets > 0 && avail[1] <= avail[0]) {
      std::cout << "WARNING: failover did not improve availability at "
                << resets << " outages\n";
    }
  }
  t.Print(std::cout);
  std::cout << "\n2 GPUs, 4 tenants (2 per device), 8 requests each, 400ms\n"
               "outages alternating across devices. Availability = fraction\n"
               "of requests ending kOk or kFailedRetried.\n";
  return 0;
}
