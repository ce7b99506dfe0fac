#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/kernel.h"
#include "graph/graph.h"
#include "metrics/trace_context.h"
#include "sim/task.h"

namespace olympian::metrics {
class MetricRegistry;
}  // namespace olympian::metrics

namespace olympian::graph {

// Why a run was cancelled mid-flight.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kDeadline,      // the request's deadline elapsed
  kKernelFailed,  // a GPU kernel retired with an error (fault injection)
  kFailover,      // the device went down; the request moves to a replica
                  // without consuming its retry budget
};

// Stable label for a cancel reason; used verbatim as the `reason` argument
// of tracer flow hops, so trace consumers can key on these strings.
inline const char* ToString(CancelReason r) {
  switch (r) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kDeadline:
      return "deadline";
    case CancelReason::kKernelFailed:
      return "kernel-failed";
    case CancelReason::kFailover:
      return "failover";
  }
  return "unknown";
}

// Per-request cancellation token. The issuer (serving layer) points
// `JobContext::cancel` at one of these for the duration of a run; the
// executor checks it at every node boundary and the scheduler checks it
// when deciding whether a suspended gang thread should keep waiting for
// the token. Cancellation is cooperative and sticky: once set, the run
// drains its remaining nodes as no-ops and completes promptly.
struct CancelToken {
  bool cancelled = false;
  // Set by the issuer once the run has completed (drained); lets a stale
  // deadline watchdog recognize that its request already finished.
  bool finished = false;
  // True once the scheduling hooks have been told (CancelRun); guards
  // against double notification from racing observers.
  bool hooks_notified = false;
  CancelReason reason = CancelReason::kNone;

  void Cancel(CancelReason r) {
    if (!cancelled) {
      cancelled = true;
      reason = r;
    }
  }
};

// Everything the executor and scheduler need to know about one job — the
// equivalent of the paper's `SessRunInfo`. One JobContext is created per
// client and reused across that client's sequential batch runs.
struct JobContext {
  gpusim::JobId job = 0;
  std::string client_name;
  // Profile lookup key, e.g. "inception-v4@100" (model + batch size).
  std::string model_key;
  int batch = 1;
  // Policy inputs (paper §3.4): weighted fair sharing and priority.
  int weight = 1;
  int priority = 0;
  // Algorithm 2's `cumulatedCost`, shared by the job's whole thread gang.
  double cumulated_cost = 0.0;
  // What the scheduling hooks resolved for `model_key` in RegisterRun (for
  // Olympian's scheduler, its profile entry), so the per-node hook reads it
  // without a lookup by key. Opaque to the executor; set for each run.
  const void* hooks_profile = nullptr;
  // GPU streams assigned to this job, used round-robin across its nodes.
  std::vector<gpusim::StreamId> streams;
  std::size_t next_stream = 0;
  // Cancellation token of the in-flight run, or nullptr when the run is
  // not cancellable. Owned by the issuer; valid only while the run is in
  // flight (reset between runs).
  CancelToken* cancel = nullptr;
  // Device this context executes on; lets trace consumers map a job track
  // back to a GPU. The serving layer keeps it in sync across failover.
  int gpu_index = 0;
  // Causal identity of the in-flight request (0 = untraced). Set by the
  // serving layer before each run; the executor stamps it onto attempt
  // spans so Chrome-trace flow events can bind across device tracks.
  metrics::TraceContext trace;
};

// The Olympian patch point inside the TF session loop.
//
// Stock TF-Serving is an executor with no hooks (nullptr). Olympian's
// scheduler (core/scheduler.h) implements this interface to realize
// Algorithm 2: registration, the cooperative yield before every node
// compute, and cost accrual with quantum rotation after every node.
class SchedulingHooks {
 public:
  virtual ~SchedulingHooks() = default;

  // Algorithm 2, line 4 / line 7 (per Session::Run, i.e. per batch run).
  virtual void RegisterRun(JobContext& ctx) = 0;
  virtual void DeregisterRun(JobContext& ctx) = 0;

  // Fast-path check: does the calling thread need to pass through Yield?
  // (Avoids a coroutine-frame allocation per node on the hot path.)
  virtual bool NeedsYield(const JobContext& ctx) const = 0;

  // Algorithm 2, line 12: called before computing every node; suspends the
  // calling thread while the job does not hold the GPU token.
  virtual sim::Task Yield(JobContext& ctx) = 0;

  // Algorithm 2, lines 14-18: called after a node computes; accrues the
  // node's profiled cost and rotates the token when the quantum expires.
  virtual void OnNodeComputed(JobContext& ctx, const Node& node) = 0;

  // Called once when `ctx`'s in-flight run is cancelled (deadline or
  // fault). Implementations must release any grant the job holds (rotating
  // it to a live job) and wake the job's suspended gang threads so they can
  // observe the cancellation and drain — a cancelled gang must not strand
  // threads in the pool. Idempotent; default is a no-op (stock TF-Serving
  // has no scheduler state to release).
  virtual void CancelRun(JobContext& ctx) { (void)ctx; }

  // Failover lifecycle of the device this scheduler manages. OnDeviceDown
  // is called after every in-flight run has been cancelled (CancelRun):
  // implementations drop any remaining registration state and park the
  // grant. OnDeviceUp is called when the health layer readmits the device;
  // traffic resumes through the normal RegisterRun path. Defaults no-op.
  virtual void OnDeviceDown() {}
  virtual void OnDeviceUp() {}

  // Observability sampler tick: publish whatever internal occupancy state
  // the implementation has (token holder, quantum counts) into `registry`.
  // `device` is the index of the GPU this hook instance manages; one hook
  // instance may be shared across devices only if it ignores it, so
  // implementations must label their series with it to keep per-device
  // samples from colliding. Must be strictly read-only with respect to
  // scheduling state — the golden determinism suite runs with the sampler
  // on and expects bit-identical trajectories. Default no-op.
  virtual void OnSample(metrics::MetricRegistry& registry, sim::TimePoint now,
                        std::size_t device) {
    (void)registry;
    (void)now;
    (void)device;
  }
};

}  // namespace olympian::graph
