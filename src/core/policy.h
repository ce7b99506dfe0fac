#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpusim/kernel.h"
#include "graph/hooks.h"

namespace olympian::core {

// Scheduler-side state for one registered job.
struct JobEntry {
  gpusim::JobId id = gpusim::kNoJob;
  graph::JobContext* ctx = nullptr;
  // Cost-accumulation threshold T_j = Q * C_j / D_j (paper §3.2).
  double threshold = 0.0;
  // Quanta left in the job's current turn (weighted fair sharing).
  int turn_remaining = 0;
};

// A pluggable scheduling policy (paper §3.4). Called by the scheduler with
// the registered jobs in registration order whenever the token must move:
// on quantum expiry, job arrival to an idle GPU, or token-holder departure.
//
// `current` is the job releasing the token (kNoJob if it just deregistered
// or the GPU was idle). Returns the next token holder, or kNoJob.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual std::string name() const = 0;
  virtual gpusim::JobId NextJob(std::vector<JobEntry>& jobs,
                                gpusim::JobId current) = 0;
};

// Round-robin, one quantum per turn: equal GPU shares (paper Figure 11).
class FairPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "fair"; }
  gpusim::JobId NextJob(std::vector<JobEntry>& jobs,
                        gpusim::JobId current) override;
};

// Round-robin where a job with weight w receives w consecutive quanta per
// turn (paper Figure 17).
class WeightedFairPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "weighted-fair"; }
  gpusim::JobId NextJob(std::vector<JobEntry>& jobs,
                        gpusim::JobId current) override;
};

// Highest-priority job first; equal-priority jobs round-robin among
// themselves (paper Figure 18).
class PriorityPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "priority"; }
  gpusim::JobId NextJob(std::vector<JobEntry>& jobs,
                        gpusim::JobId current) override;
};

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name);

}  // namespace olympian::core
