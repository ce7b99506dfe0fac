#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/cost_model.h"
#include "serving/server.h"
#include "sim/time.h"

namespace olympian::core {

// The offline profile of one (model, batch) pair, plus its Overhead-Q curve
// (paper Figure 8) once computed.
struct ModelProfile {
  std::string model;
  int batch = 0;
  std::string key;  // models::ModelKey(model, batch)
  graph::CostProfile cost;

  // (quantum Q, measured overhead) points, ascending in Q.
  std::vector<std::pair<sim::Duration, double>> overhead_q;

  double TotalCost() const { return cost.TotalCost(); }
  sim::Duration GpuDuration() const { return cost.gpu_duration; }
  double CostAccumulationRate() const { return cost.CostAccumulationRate(); }
};

struct ProfilerOptions {
  // Solo runs averaged into one profile (DNN execution is predictable, so a
  // few suffice — paper §4.4 measures ~2% run-to-run stddev).
  int profile_runs = 3;
  std::uint64_t seed = 7;
  // Server configuration profiles are taken under. Profiling runs offline —
  // in their own private simulation with an idle GPU — mirroring the paper.
  // It must carry no sinks (registry, phase collector, tracer): a curve's
  // experiments run on several threads at once, and the constructor
  // rejects them.
  serving::ServerOptions server;
};

// Olympian's offline profiler (paper §3.2, Figure 7).
//
// For each model it measures, with exclusive GPU access:
//   * per-node costs (Tensorflow cost-model equivalent), summing to C_j,
//   * the GPU duration D_j (Figure 5 union),
// and derives the cost-accumulation rate C_j / D_j. Given a desired quantum
// Q, the scheduler threshold is T_j = Q * C_j / D_j. The Overhead-Q curve
// is measured by running two instances of the model under Olympian's fair
// scheduler vs. stock TF-Serving and comparing finish times.
class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  // Solo profiling of (model, batch). Deterministic given options.seed.
  ModelProfile ProfileModel(const std::string& model, int batch) const;

  // Fills `profile.overhead_q` by measurement over the fixed Q sweep
  // (300us .. 5ms): one two-instance Olympian experiment per point, each
  // compared with one stock TF-Serving baseline shared by the whole curve.
  // The nine experiments run on up to three threads, the caller's among
  // them; the curve is bit-identical at any thread count. If any
  // experiment throws, the lowest one's exception (the baseline first,
  // then ascending Q) is rethrown here after every thread has joined, and
  // `profile.overhead_q` keeps its old value.
  void ComputeOverheadQCurve(ModelProfile& profile) const;

  // The operator-facing knob (paper §3.2 "Determining Q"): smallest Q whose
  // measured overhead is within `tolerance` for *every* profile (i.e. the
  // max over models of each model's smallest acceptable Q). Curves must
  // have been computed. Falls back to the largest swept Q.
  static sim::Duration SelectQ(const std::vector<const ModelProfile*>& profiles,
                               double tolerance);

  // Scheduler threshold T_j for a chosen quantum.
  static double ThresholdFor(const ModelProfile& profile, sim::Duration q);

  // Cross-batch linear regression (paper Figure 20): synthesize a profile
  // for `target_batch` from two measured profiles of the same model.
  static ModelProfile Interpolate(const ModelProfile& a, const ModelProfile& b,
                                  int target_batch);

  const ProfilerOptions& options() const { return options_; }

 private:
  ProfilerOptions options_;
};

}  // namespace olympian::core
