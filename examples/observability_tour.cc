// Observability tour: every layer of the metrics subsystem exercised in one
// fault-injected run, with artifacts written for offline inspection.
//
// A two-GPU server under Olympian fair scheduling takes a staged outage on
// GPU 0: a kernel failure forces a retry, a hang window degrades the device
// (so the retry hedges on the healthy peer), and a device reset then kills
// the wedged attempt mid-kernel — the hedge's result is adopted. The full
// observability stack watches:
//
//   * the Tracer records node/attempt/token spans and chains the request's
//     retry -> failover -> hedge-win admissions into one flow across both
//     device tracks;
//   * the MetricRegistry collects labeled counters, request-latency
//     histograms, and the virtual-clock sampler's windowed series
//     (utilization, queue depth, health and pool state);
//   * the SLO layer folds per-request outcomes into availability, latency
//     quantiles, error-budget burn, and goodput.
//
// Artifacts (written to the working directory):
//   observability_trace.json     Chrome trace — load into https://ui.perfetto.dev
//   observability_metrics.prom   Prometheus text exposition
//   observability_timeline.json  sampled series as a JSON timeline
//
//   $ ./examples/observability_tour
//
// An artifact that cannot be written prints `error: cannot write <path>`
// and exits 1.
//
// Deterministic: run it twice and every byte of every artifact is identical.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "metrics/registry.h"
#include "metrics/slo.h"
#include "metrics/trace.h"
#include "serving/server.h"

using namespace olympian;

int main() {
  const sim::TimePoint t0;
  // Sized for the full run plus the post-run counter export: the staged
  // outage produces ~335k node/attempt spans, and truncation here would eat
  // the counter events appended after the run.
  metrics::Tracer tracer(400000);
  metrics::MetricRegistry registry;

  serving::ServerOptions opts;
  opts.seed = 23;
  opts.num_gpus = 2;
  opts.failover.enabled = true;
  opts.failover.hedge_when_degraded = true;
  opts.failover.health.hang_down_after = sim::Duration::Seconds(10);
  opts.degradation.retry.base_backoff = sim::Duration::Millis(10);
  opts.executor.tracer = &tracer;
  opts.observability.registry = &registry;
  opts.observability.sample_interval = sim::Duration::Millis(10);
  // The staged outage: retry -> degraded routing + hedge -> device death.
  opts.faults.KernelFailure(t0 + sim::Duration::Millis(595), /*stream=*/1,
                            /*gpu_index=*/0);
  opts.faults.DeviceHang(t0 + sim::Duration::Millis(600),
                         sim::Duration::Millis(300), /*gpu_index=*/0);
  opts.faults.DeviceReset(t0 + sim::Duration::Millis(650),
                          sim::Duration::Seconds(100), /*gpu_index=*/0);

  serving::Experiment exp(opts);

  // Olympian fair scheduling on both devices, with token tenures traced.
  core::Profiler profiler;
  auto p_resnet = profiler.ProfileModel("resnet-152", 20);
  auto p_google = profiler.ProfileModel("googlenet", 20);
  core::Scheduler::Options sopts;
  sopts.tracer = &tracer;
  std::vector<std::unique_ptr<core::Scheduler>> scheds;
  for (std::size_t i = 0; i < exp.num_gpus(); ++i) {
    auto s = std::make_unique<core::Scheduler>(
        exp.env(), exp.gpu(i), std::make_unique<core::FairPolicy>(), sopts);
    // Either model may land on either device after a failover.
    s->SetProfile(p_resnet.key, &p_resnet.cost,
                  core::Profiler::ThresholdFor(p_resnet,
                                               sim::Duration::Micros(500)));
    s->SetProfile(p_google.key, &p_google.cost,
                  core::Profiler::ThresholdFor(p_google,
                                               sim::Duration::Micros(500)));
    exp.SetGpuHooks(i, s.get());
    scheds.push_back(std::move(s));
  }

  const auto results = exp.Run(
      {serving::ClientSpec{.model = "resnet-152", .batch = 20, .num_batches = 10},
       serving::ClientSpec{.model = "googlenet", .batch = 20, .num_batches = 10}});

  // Fold per-request outcomes into the SLO view.
  metrics::SloAccumulator slo;
  double window_s = 0.0;
  for (const auto& r : results) {
    window_s = std::max(window_s, r.finish_time.seconds());
    for (std::size_t i = 0; i < r.request_status.size(); ++i) {
      slo.Add(r.model, r.request_latency_ms[i], r.request_status[i]);
    }
  }

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

  std::printf("\nSLO report (window %.3f s):\n", window_s);
  slo.Report(window_s).Print(std::cout);

  std::printf("\ncounters:\n");
  exp.counters().Print(std::cout);

  // Each artifact is closed and checked, so a file that could not be
  // written fails the run instead of being reported as written.
  const auto write = [](const char* path, const auto& emit) {
    std::ofstream os(path);
    emit(os);
    os.close();
    if (os) return true;
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return false;
  };
  // Fold the sampler's series into the trace as 'C' counter events, so
  // utilization / queue depth / health render as charts on the same
  // Perfetto timeline as the span flows.
  metrics::ExportCountersToTrace(registry, tracer);
  if (!write("observability_trace.json",
             [&](std::ostream& os) { tracer.WriteChromeTrace(os); }) ||
      !write("observability_metrics.prom",
             [&](std::ostream& os) { registry.WritePrometheus(os); }) ||
      !write("observability_timeline.json",
             [&](std::ostream& os) { registry.WriteJsonTimeline(os); })) {
    return 1;
  }
  std::printf(
      "\nwrote observability_trace.json (%zu events, %llu dropped), "
      "observability_metrics.prom, observability_timeline.json\n",
      tracer.size(), static_cast<unsigned long long>(tracer.dropped()));
  std::printf(
      "open the trace in https://ui.perfetto.dev — the req-N flow arrows "
      "chain one request across both device tracks\n");
  return 0;
}
