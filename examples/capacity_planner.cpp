// Capacity planner: answers the operator question "how many concurrent
// clients of model M at batch B can this server sustain, and what limits
// it?" — the §4.3 scaling analysis as a reusable tool.
//
// For each candidate client count the planner runs a short workload and
// reports whether it completed, ran out of device memory, or stalled on the
// thread pool (Olympian's suspended gangs hold pool threads).
//
//   $ ./examples/capacity_planner [model] [batch]
//
// A batch that is not a whole positive integer, or an unknown model, prints
// `error: …` and exits 1.

#include <charconv>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "serving/server.h"

using namespace olympian;

namespace {

const char* Probe(const std::string& model, int batch, int clients,
                  bool olympian, const core::ModelProfile& profile) {
  serving::ServerOptions opts;
  opts.seed = 71;
  serving::Experiment exp(opts);
  std::unique_ptr<core::Scheduler> sched;
  if (olympian) {
    sched = std::make_unique<core::Scheduler>(
        exp.env(), exp.gpu(), std::make_unique<core::FairPolicy>());
    sched->SetProfile(
        profile.key, &profile.cost,
        core::Profiler::ThresholdFor(profile, sim::Duration::Micros(1600)));
    exp.SetHooks(sched.get());
  }
  try {
    exp.Run(std::vector<serving::ClientSpec>(
        static_cast<std::size_t>(clients),
        {.model = model, .batch = batch, .num_batches = 1}));
    return "ok";
  } catch (const gpusim::OutOfDeviceMemory&) {
    return "OUT OF MEMORY";
  } catch (const serving::ServerStalled&) {
    return "THREAD POOL EXHAUSTED";
  }
}

// Parses the batch argument as one whole token, so a typo such as "10x" is
// rejected rather than run as batch 10.
int ParseBatch(const std::string& text) {
  int batch = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, batch);
  if (ec != std::errc() || ptr != end || batch < 1) {
    throw std::invalid_argument("batch must be a positive integer, got '" +
                                text + "'");
  }
  return batch;
}

void Plan(const std::string& model, int batch) {
  core::Profiler profiler;
  const auto profile = profiler.ProfileModel(model, batch);
  const auto& spec = models::GetModel(model);
  std::printf("capacity plan for %s @ batch %d\n", model.c_str(), batch);
  std::printf("  device: %s, %lld MB; model params %lld MB; "
              "activations %lld MB/client\n\n",
              gpusim::GpuSpec::Gtx1080Ti().name.c_str(),
              static_cast<long long>(gpusim::GpuSpec::Gtx1080Ti().memory_mb),
              static_cast<long long>(spec.params_mb),
              static_cast<long long>(spec.ClientMemoryMb(batch)));

  std::printf("%-10s %-22s %s\n", "clients", "TF-Serving", "Olympian (fair)");
  int last_ok_tfs = 0, last_ok_oly = 0;
  for (int n = 10; n <= 120; n += 10) {
    const char* tfs = Probe(model, batch, n, false, profile);
    const char* oly = Probe(model, batch, n, true, profile);
    std::printf("%-10d %-22s %s\n", n, tfs, oly);
    if (std::string(tfs) == "ok") last_ok_tfs = n;
    if (std::string(oly) == "ok") last_ok_oly = n;
  }
  std::printf("\nmax sustained clients: TF-Serving %d, Olympian %d\n",
              last_ok_tfs, last_ok_oly);
  std::printf("(paper §4.3: TF-Serving ~100 Inception clients, memory-"
              "limited;\n Olympian 40-60, thread-pool-limited.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string model = argc > 1 ? argv[1] : "inception-v4";
    const int batch = argc > 2 ? ParseBatch(argv[2]) : 100;
    Plan(model, batch);  // an unknown model throws before any output
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
