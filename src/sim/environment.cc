#include "sim/environment.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace olympian::sim {

namespace detail {

void ProcessState::OnComplete(std::exception_ptr e) {
  done = true;
  exception = std::move(e);
  const bool had_joiners = !joiners.empty();
  for (auto h : joiners) env->ScheduleNow(h);
  joiners.clear();
  env->NoteProcessDone(this, had_joiners);
}

}  // namespace detail

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(Handle h) noexcept {
  auto& p = h.promise();
  if (p.process != nullptr) {
    detail::ProcessState* s = p.process;
    s->frame = nullptr;  // the frame self-destroys below
    s->OnComplete(std::move(p.exception));
    h.destroy();
    return std::noop_coroutine();
  }
  if (p.continuation) return p.continuation;
  return std::noop_coroutine();
}

namespace {
const std::string kAnonymous = "<process>";
}  // namespace

const std::string& Process::name() const {
  return state_ ? state_->name : kAnonymous;
}

// --- event containers -------------------------------------------------------

void Environment::TimerHeap::SiftDownFromTop() {
  const Event last = v_.back();
  v_.pop_back();
  const std::size_t n = v_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (Earlier(v_[c], v_[best])) best = c;
    }
    if (!Earlier(v_[best], last)) break;
    v_[i] = v_[best];
    i = best;
  }
  v_[i] = last;
}

// --- environment ------------------------------------------------------------

Environment::~Environment() {
  tearing_down_ = true;
  // Destroy any still-suspended process frames. Frame-local destructors may
  // schedule further events; those are dropped along with the queue.
  for (auto& s : processes_) {
    if (s->frame) {
      auto f = std::exchange(s->frame, nullptr);
      f.destroy();
    }
  }
  processes_.clear();
}

Process Environment::Spawn(Task t, std::string name) {
  auto state = std::allocate_shared<detail::ProcessState>(
      detail::PoolAlloc<detail::ProcessState>{});
  state->env = this;
  state->name = std::move(name);
  state->id = next_process_id_++;
  state->index = static_cast<std::uint32_t>(processes_.size());
  state->frame = t.Release();
  state->frame.promise().process = state.get();
  ++live_;
  processes_.push_back(state);
  ScheduleNow(state->frame);
  return Process(std::move(state));
}

const Environment::Event* Environment::PeekNext() const {
  if (ring_.empty()) return heap_.empty() ? nullptr : &heap_.top();
  if (heap_.empty()) return &ring_.front();
  // Ring entries were scheduled at the instant the clock already reached, so
  // the ring front almost always wins; a heap timer can only tie its time,
  // with an earlier sequence number.
  return Earlier(heap_.top(), ring_.front()) ? &heap_.top() : &ring_.front();
}

bool Environment::Step() {
  if (!ring_.empty()) {
    if (heap_.empty() || !Earlier(heap_.top(), ring_.front())) {
      ExecuteEvent(ring_.pop());
    } else {
      ExecuteEvent(heap_.pop());
    }
    return true;
  }
  if (heap_.empty()) return false;
  ExecuteEvent(heap_.pop());
  return true;
}

void Environment::ExecuteEvent(const Event& e) {
  now_ = e.t;
  ++events_executed_;
  if (e.fn != nullptr) {
    e.fn(e.ctx, e.arg);
  } else {
    e.h.resume();
  }
}

TimePoint Environment::NextEventTime() const {
  const Event* next = PeekNext();
  return next == nullptr ? Never() : next->t;
}

void Environment::AdvanceTo(TimePoint t) {
  if (t < now_) {
    throw std::logic_error("Environment::AdvanceTo: target is in the past");
  }
  if (NextEventTime() < t) {
    throw std::logic_error(
        "Environment::AdvanceTo: a pending event precedes the target");
  }
  now_ = t;
}

namespace {
// RAII reentrancy guard: Run/RunUntil may rethrow a process error from any
// exit, so the flag must be cleared on unwind too.
struct RunningScope {
  explicit RunningScope(bool& flag) : flag_(flag) {
    if (flag_) {
      throw std::logic_error(
          "Environment::Run/RunUntil re-entered from inside an event "
          "handler; shard loops own their deadline windows (see the "
          "RunUntil contract in environment.h)");
    }
    flag_ = true;
  }
  ~RunningScope() { flag_ = false; }
  bool& flag_;
};
}  // namespace

void Environment::Run() {
  RunningScope scope(running_);
  while (Step()) {
  }
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

bool Environment::RunUntil(TimePoint deadline) {
  return RunUntilDynamic(&deadline);
}

bool Environment::RunUntilDynamic(const TimePoint* cap) {
  RunningScope scope(running_);
  for (;;) {
    const Event* next = PeekNext();
    const TimePoint bound = *cap;
    if (next == nullptr) {
      // Drained. A finite bound is consumed whole (clock lands on it, like
      // RunUntil); an unbounded window leaves the clock where the last
      // event put it — there is no meaningful instant to jump to.
      if (bound != Never() && now_ < bound) now_ = bound;
      if (first_error_) {
        std::rethrow_exception(std::exchange(first_error_, nullptr));
      }
      return true;
    }
    if (next->t > bound) {
      now_ = bound;
      if (first_error_) {
        std::rethrow_exception(std::exchange(first_error_, nullptr));
      }
      return false;
    }
    Step();
  }
}

void Environment::NoteProcessDone(detail::ProcessState* s, bool had_joiners) {
  --live_;
  if (s->exception && !had_joiners) {
    // Nobody was waiting on this process; surface the error from Run().
    if (!first_error_) first_error_ = s->exception;
  }
  // Drop the environment's reference so completed states are reclaimed once
  // user-held Process handles go away. O(1): swap with the tail and patch
  // the moved element's index.
  const std::uint32_t i = s->index;
  if (i + 1 != processes_.size()) {
    processes_[i] = std::move(processes_.back());
    processes_[i]->index = i;
  }
  processes_.pop_back();
}

}  // namespace olympian::sim
