#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/environment.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace olympian::graph {

// The simulated inter-op thread pool shared by every job in the server
// (TF-Serving's `threadPool` in Algorithm 1).
//
// Each worker is a simulation process that pulls work items — coroutine
// factories — off a queue and awaits them to completion. A worker therefore
// stays occupied while its item is suspended, which is precisely why
// Olympian reaches the pool limit sooner than stock TF-Serving (§4.3): a
// de-scheduled job's node tasks hold their workers while waiting for the
// scheduler token.
class ThreadPool {
 public:
  // A coroutine factory as three words (the Environment::ScheduleCallbackAt
  // idiom): the worker calls `fn(ctx, arg)` when it starts the item, so
  // queueing one allocates nothing and a queued item holds no coroutine
  // frame, however long it waits for a free worker. `ctx` must outlive the
  // item's completion.
  struct WorkItem {
    sim::Task (*fn)(void* ctx, std::uint64_t arg) = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };
  static_assert(sizeof(WorkItem) == 24 &&
                std::is_trivially_copyable_v<WorkItem>);

  ThreadPool(sim::Environment& env, std::size_t num_threads);

  // Enqueue a work item; it starts when a worker becomes free (FIFO).
  void Schedule(WorkItem item);

  // Close the queue; workers drain remaining items and exit. Must be called
  // for Environment::Run() to terminate.
  void Shutdown();

  std::size_t num_threads() const { return num_threads_; }
  std::size_t busy_workers() const { return busy_; }
  std::size_t peak_busy_workers() const { return peak_busy_; }
  std::size_t queued() const { return queue_.size(); }
  std::uint64_t items_executed() const { return executed_; }

 private:
  sim::Task Worker();

  sim::Environment& env_;
  std::size_t num_threads_;
  sim::Channel<WorkItem> queue_;
  std::size_t busy_ = 0;
  std::size_t peak_busy_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace olympian::graph
