// Schedule tracing: run three concurrent jobs under Olympian fair sharing
// with execution tracing enabled, and export a Chrome trace-event JSON you
// can load into chrome://tracing or https://ui.perfetto.dev.
//
//   $ ./examples/schedule_trace [output.json]
//
// A trace file that cannot be written prints `error: cannot write <path>`
// and exits 1.
//
// Tracks: tid -1 shows the scheduler's token tenures; tids 0..2 show each
// job's node executions. The timeline makes the paper's mechanism visible:
// during job k's tenure only job k's nodes run, except for short "overflow"
// node completions right after each token switch (Figures 10/15).

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "metrics/trace.h"
#include "serving/server.h"

using namespace olympian;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "/tmp/olympian_trace.json";

  core::Profiler profiler;
  const auto profile = profiler.ProfileModel("resnet-152", 32);

  metrics::Tracer tracer(/*max_events=*/150000);
  serving::ServerOptions opts;
  opts.seed = 97;
  opts.executor.tracer = &tracer;

  serving::Experiment exp(opts);
  core::Scheduler::Options sopts;
  sopts.tracer = &tracer;
  core::Scheduler scheduler(exp.env(), exp.gpu(),
                            std::make_unique<core::FairPolicy>(), sopts);
  scheduler.SetProfile(
      profile.key, &profile.cost,
      core::Profiler::ThresholdFor(profile, sim::Duration::Micros(1200)));
  exp.SetHooks(&scheduler);

  const auto results = exp.Run(std::vector<serving::ClientSpec>(
      3, {.model = "resnet-152", .batch = 32, .num_batches = 2}));

  std::ofstream os(path);
  tracer.WriteChromeTrace(os);
  os.close();
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return 1;
  }

  std::printf("ran %zu clients; %llu token switches; %zu trace events%s\n",
              results.size(),
              static_cast<unsigned long long>(scheduler.switches()),
              tracer.size(), tracer.full() ? " (cap reached)" : "");
  std::printf("wrote %s — open it in chrome://tracing or ui.perfetto.dev\n",
              path);
  std::printf("tid -1 = scheduler token tenures, tid 0..2 = per-job nodes\n");
  return 0;
}
