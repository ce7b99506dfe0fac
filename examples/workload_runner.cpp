// Workload runner: execute a declarative workload spec and report per-client
// outcomes — operators compare policies by editing a text file, not code.
//
//   $ ./examples/workload_runner my_workload.spec
//   $ ./examples/workload_runner            # runs a built-in demo spec
//
// Spec format: see serving/workload_spec.h. The runner profiles every
// (model, batch) pair it needs, derives thresholds from the spec's quantum,
// and prints finish times, GPU durations, and utilization.

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "serving/workload_spec.h"

using namespace olympian;

namespace {

constexpr const char* kDemoSpec = R"(
# Demo: a gold tenant with double weight vs three standard tenants.
seed 11
policy weighted-fair
quantum-us 1600
client inception-v4 batch=100 n=6 weight=2
client resnet-152  batch=100 n=6
client resnet-50   batch=100 n=6
client googlenet   batch=100 n=6
)";

void Run(const serving::WorkloadSpec& spec) {
  serving::Experiment exp(spec.ToServerOptions());

  // Profile every distinct (model, batch) pair; install per-device
  // schedulers if a policy is requested.
  std::vector<std::unique_ptr<core::Scheduler>> schedulers;
  std::vector<core::ModelProfile> profiles;
  if (spec.policy != "none") {
    core::Profiler profiler;
    std::map<std::string, bool> seen;
    for (const auto& c : spec.clients) {
      const auto key = models::ModelKey(c.model, c.batch);
      if (!seen.emplace(key, true).second) continue;
      profiles.push_back(profiler.ProfileModel(c.model, c.batch));
      std::printf("profiled %-20s C/D=%.2f\n", key.c_str(),
                  profiles.back().CostAccumulationRate());
    }
    for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
      schedulers.push_back(std::make_unique<core::Scheduler>(
          exp.env(), exp.gpu(g), core::MakePolicy(spec.policy)));
      for (const auto& p : profiles) {
        schedulers.back()->SetProfile(
            p.key, &p.cost, core::Profiler::ThresholdFor(p, spec.quantum));
      }
      exp.SetGpuHooks(g, schedulers.back().get());
    }
  }

  const auto results = exp.Run(spec.clients);

  metrics::Table t({"Client", "GPU", "Weight", "Prio", "Finish (s)",
                    "GPU dur (s)", "p95 latency (ms)"});
  for (const auto& r : results) {
    metrics::Series lat;
    for (double v : r.request_latency_ms) lat.Add(v);
    const auto& c = spec.clients[static_cast<std::size_t>(&r - &results[0])];
    t.AddRow({r.name, std::to_string(r.gpu_index), std::to_string(c.weight),
              std::to_string(c.priority),
              metrics::Table::Num(r.finish_time.seconds(), 2),
              metrics::Table::Num(r.gpu_duration.seconds(), 2),
              lat.empty() ? "-" : metrics::Table::Num(lat.Percentile(95), 0)});
  }
  t.Print(std::cout);
  std::printf("\npolicy=%s quantum=%lldus utilization=%.1f%%\n",
              spec.policy.c_str(),
              static_cast<long long>(spec.quantum.micros()),
              exp.utilization() * 100);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const serving::WorkloadSpec spec =
        argc > 1 ? serving::WorkloadSpec::LoadFile(argv[1])
                 : serving::WorkloadSpec::ParseString(kDemoSpec);
    // An unknown policy name throws here, before any model is profiled.
    if (spec.policy != "none") core::MakePolicy(spec.policy);
    Run(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
