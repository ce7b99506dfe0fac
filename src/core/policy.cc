#include "core/policy.h"

#include <algorithm>
#include <stdexcept>

namespace olympian::core {

namespace {

// Index of `id` in registration order, or -1.
int IndexOf(const std::vector<JobEntry>& jobs, gpusim::JobId id) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

// Next index after `from` (circular); `from` may be -1 (start at 0).
std::size_t NextIndex(std::size_t size, int from) {
  return static_cast<std::size_t>(from + 1) % size;
}

}  // namespace

gpusim::JobId FairPolicy::NextJob(std::vector<JobEntry>& jobs,
                                  gpusim::JobId current) {
  if (jobs.empty()) return gpusim::kNoJob;
  const int cur = IndexOf(jobs, current);
  return jobs[NextIndex(jobs.size(), cur)].id;
}

gpusim::JobId WeightedFairPolicy::NextJob(std::vector<JobEntry>& jobs,
                                          gpusim::JobId current) {
  if (jobs.empty()) return gpusim::kNoJob;
  const int cur = IndexOf(jobs, current);
  if (cur >= 0) {
    JobEntry& e = jobs[static_cast<std::size_t>(cur)];
    if (--e.turn_remaining > 0) return e.id;  // continue this job's turn
  }
  JobEntry& next = jobs[NextIndex(jobs.size(), cur)];
  next.turn_remaining = std::max(1, next.ctx->weight);
  return next.id;
}

gpusim::JobId PriorityPolicy::NextJob(std::vector<JobEntry>& jobs,
                                      gpusim::JobId current) {
  if (jobs.empty()) return gpusim::kNoJob;
  int best = jobs[0].ctx->priority;
  for (const JobEntry& e : jobs) best = std::max(best, e.ctx->priority);
  // Round-robin among the highest-priority jobs, starting after `current`.
  const int cur = IndexOf(jobs, current);
  const int n = static_cast<int>(jobs.size());
  for (int step = 1; step <= n; ++step) {
    const JobEntry& e = jobs[static_cast<std::size_t>((cur + step) % n)];
    if (e.ctx->priority == best) return e.id;
  }
  return gpusim::kNoJob;  // unreachable
}

std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name) {
  if (name == "fair") return std::make_unique<FairPolicy>();
  if (name == "weighted-fair") return std::make_unique<WeightedFairPolicy>();
  if (name == "priority") return std::make_unique<PriorityPolicy>();
  throw std::invalid_argument("unknown policy: " + name);
}

}  // namespace olympian::core
