#include "graph/thread_pool.h"

#include <algorithm>
#include <optional>

namespace olympian::graph {

ThreadPool::ThreadPool(sim::Environment& env, std::size_t num_threads)
    : env_(env), num_threads_(num_threads), queue_(env) {
  for (std::size_t i = 0; i < num_threads_; ++i) {
    env_.Spawn(Worker(), "pool-worker");
  }
}

void ThreadPool::Schedule(WorkItem item) { queue_.Push(item); }

void ThreadPool::Shutdown() { queue_.Close(); }

sim::Task ThreadPool::Worker() {
  for (;;) {
    std::optional<WorkItem> item;
    co_await queue_.Pop(item);
    if (!item) co_return;  // pool shut down
    ++busy_;
    peak_busy_ = std::max(peak_busy_, busy_);
    co_await item->fn(item->ctx, item->arg);
    ++executed_;
    --busy_;
  }
}

}  // namespace olympian::graph
