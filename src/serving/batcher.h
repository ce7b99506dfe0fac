#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serving/server.h"
#include "sim/sync.h"

namespace olympian::serving {

// TF-Serving's request batcher (paper §2.1): individual inference requests
// for one model are coalesced into batches before graph execution, because
// GPUs process one batch of N inputs far faster than N separate inputs.
//
// A batch closes when either `max allowed size` items are waiting or the
// oldest item has waited `batch_timeout`. Batches are padded up to the next
// size in `allowed_batch_sizes` (as in TF-Serving), so the Olympian
// scheduler only needs offline profiles for those sizes — and profiles for
// intermediate sizes can come from the paper's Figure-20 linear regression.
//
// All requests of a batch complete together when its graph run finishes.
// The batcher is one job (one gang, one token) from the scheduler's view,
// on device 0.
//
// Usage (manual-workload mode):
//   Batcher batcher(exp, "resnet-152", {});
//   exp.env().Spawn([&]() -> sim::Task {      // any number of producers
//     co_await batcher.Infer();               // one item
//   }());
//   ... spawn producers ...
//   batcher.Close();                          // after producers finish
//   exp.FinishManualRun();
class Batcher {
 public:
  struct Options {
    std::vector<int> allowed_batch_sizes = {8, 16, 32, 64};  // ascending
    sim::Duration batch_timeout = sim::Duration::Millis(10);
  };

  Batcher(Experiment& experiment, std::string model, Options options);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // Awaitable: submit one item and resume when its batch's run completes.
  // Returns (via out-param) the request latency. Must not be called after
  // Close(). When `pa` is set, the time from submission to batch execution
  // is charged to kBatcherWait and the run itself is split into
  // kGpuCompute / kGpuQueue, preserving the phase-sum identity.
  sim::Task Infer(sim::Duration* latency = nullptr,
                  metrics::PhaseAccount* pa = nullptr);

  // No further Infer calls will come; the dispatcher drains pending
  // requests (flushing a final partial batch) and exits.
  void Close();

  // --- statistics ---------------------------------------------------------
  std::uint64_t batches_executed() const { return batches_executed_; }
  std::uint64_t items_served() const { return items_served_; }
  double MeanBatchOccupancy() const;  // items / padded size, averaged

 private:
  struct Request {
    sim::TimePoint arrival;
    bool done = false;
    metrics::PhaseAccount* pa = nullptr;
  };

  sim::Task Dispatcher();
  static void AlarmTrampoline(void* ctx, std::uint64_t epoch);
  int PadToAllowed(int items) const;

  Experiment& exp_;
  sim::Environment& env_;
  std::string model_;
  Options options_;
  graph::JobContext& ctx_;
  const graph::Graph& graph_;

  std::deque<Request*> pending_;
  sim::CondVar wake_;      // arrivals, alarms, close
  sim::CondVar done_cv_;   // batch completions
  std::uint64_t alarm_epoch_ = 0;
  bool closed_ = false;

  std::uint64_t batches_executed_ = 0;
  std::uint64_t items_served_ = 0;
  double occupancy_sum_ = 0.0;
};

}  // namespace olympian::serving
