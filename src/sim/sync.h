#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/environment.h"
#include "sim/ring.h"

namespace olympian::sim {

// Condition variable for simulation processes.
//
// Unlike std::condition_variable there is no associated mutex: the
// simulation is single-threaded and cooperative, so checking a predicate and
// calling Wait() is atomic with respect to other processes. Callers must
// still re-check their predicate in a loop: NotifyAll wakes everyone, and a
// woken process may find the condition already consumed.
class CondVar {
 public:
  explicit CondVar(Environment& env) : env_(&env) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Awaitable: suspend until NotifyOne/NotifyAll.
  auto Wait() {
    struct Awaiter {
      CondVar* cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv->waiters_.push(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Wake the longest-waiting process (if any). The wakeup is scheduled at
  // the current virtual time; it runs after the caller next suspends.
  void NotifyOne() {
    if (!waiters_.empty()) env_->ScheduleNow(waiters_.pop());
  }

  void NotifyAll() {
    while (!waiters_.empty()) env_->ScheduleNow(waiters_.pop());
  }

  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Environment* env_;
  Ring<std::coroutine_handle<>> waiters_;
};

// Unbounded multi-producer multi-consumer queue. Pop suspends while empty;
// after Close(), Pop drains remaining items then returns nullopt.
template <typename T>
class Channel {
 public:
  explicit Channel(Environment& env) : cv_(env) {}

  void Push(T value) {
    items_.push(std::move(value));
    cv_.NotifyOne();
  }

  // Awaitable pop. Returns nullopt once the channel is closed and drained.
  Task Pop(std::optional<T>& out) {
    while (items_.empty() && !closed_) co_await cv_.Wait();
    if (items_.empty()) {
      out = std::nullopt;
      co_return;
    }
    out = items_.pop();
  }

  void Close() {
    closed_ = true;
    cv_.NotifyAll();
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return items_.size(); }

 private:
  Ring<T> items_;
  bool closed_ = false;
  CondVar cv_;
};

}  // namespace olympian::sim
