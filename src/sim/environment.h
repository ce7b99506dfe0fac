#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/ring.h"
#include "sim/task.h"
#include "sim/time.h"

namespace olympian::sim {

class Environment;
class Process;

namespace detail {

// Shared state of a spawned process. Kept alive by the Environment until
// completion and by any outstanding Process handles. Allocated from the
// per-thread FramePool (via std::allocate_shared), so spawning is
// malloc-free in steady state.
struct ProcessState {
  Environment* env = nullptr;
  std::string name;
  std::uint64_t id = 0;
  // Position in Environment::processes_, maintained by the Environment so
  // completion bookkeeping is O(1) (swap-remove, no linear scan).
  std::uint32_t index = 0;
  bool done = false;
  std::exception_ptr exception;
  // Raw frame handle; owned here until completion (then self-destroyed).
  Task::Handle frame = nullptr;
  // Coroutines blocked in Process::Join().
  std::vector<std::coroutine_handle<>> joiners;

  void OnComplete(std::exception_ptr e);
};

}  // namespace detail

// Handle to a spawned process. Copyable; observing only (no cancellation).
class Process {
 public:
  Process() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done; }
  std::uint64_t id() const { return state_ ? state_->id : 0; }
  const std::string& name() const;

  // Awaitable: suspends until the process completes. Rethrows the process's
  // uncaught exception, if any, at the join site.
  //
  // Exception-reporting contract (see also Environment::Run): a process
  // completing with an uncaught exception delivers it to the joiners
  // *registered at completion time* — each of them has it rethrown from
  // `co_await Join()`, and the Environment then considers the error
  // handled: it is NOT additionally surfaced from Run(), even if every
  // joiner swallows it. With no joiners registered at completion, the
  // exception is instead stored as the run's first error and rethrown from
  // Run()/RunUntil() after the queue drains or the deadline is reached.
  // A Join() awaited after completion always rethrows too (await_ready
  // path), so a late joiner of an unjoined failed process observes the same
  // exception that Run() reports.
  auto Join() {
    struct Awaiter {
      std::shared_ptr<detail::ProcessState> state;
      bool await_ready() const noexcept { return !state || state->done; }
      void await_suspend(std::coroutine_handle<> h) {
        state->joiners.push_back(h);
      }
      void await_resume() const {
        if (state && state->exception) std::rethrow_exception(state->exception);
      }
    };
    return Awaiter{state_};
  }

 private:
  friend class Environment;
  explicit Process(std::shared_ptr<detail::ProcessState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::ProcessState> state_;
};

// A deterministic single-threaded discrete-event simulation.
//
// The Environment owns the virtual clock and the event queue. Processes are
// C++20 coroutines (`Task`) that suspend on awaitables — `Delay`, condition
// variables, channels — and are resumed by the event loop. Two events at the
// same virtual instant run in schedule order (FIFO), so a simulation is a
// pure function of its inputs and seeds.
//
// The event queue is two-tier, tuned for the dominant schedule shape:
//  * a FIFO ring buffer for same-instant events (`ScheduleNow` — kernel
//    waves, condvar wakes, gang resumes — plus zero delays), O(1) and
//    comparison-free;
//  * a cache-friendly 4-ary min-heap on (time, seq) for future timers.
// Global execution order is still exactly ascending (time, seq): the loop
// compares the ring front against the heap top, so a timer landing at the
// current instant with an earlier sequence number runs first. The split is
// an implementation detail — event ordering is bit-identical to a single
// totally-ordered queue (enforced by golden_determinism_test).
class Environment {
 public:
  Environment() = default;
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // Current virtual time.
  TimePoint Now() const { return now_; }

  // Sentinel returned by NextEventTime() when the queue is empty: later than
  // any schedulable instant.
  static constexpr TimePoint Never() {
    return TimePoint::FromNanos(std::numeric_limits<std::int64_t>::max());
  }

  // Timestamp of the next pending event, or Never() if the queue is empty.
  // The sharded engine uses this to compute conservative synchronization
  // horizons; it is also handy for tests.
  TimePoint NextEventTime() const;

  // Advance the clock to `t` without executing anything. Only legal when `t`
  // is not in the past and no pending event precedes `t` (throws
  // std::logic_error otherwise — skipping over an event would corrupt the
  // trajectory). The sharded engine uses this to align a parked shard's
  // clock with the hub before a hub instant, so state mutations the hub
  // applies across the shard boundary schedule follow-ups at the correct
  // time.
  void AdvanceTo(TimePoint t);

  // Awaitable: suspend the calling process for `d` of virtual time.
  // A zero delay still yields through the event queue (a cooperative yield).
  auto Delay(Duration d) {
    struct Awaiter {
      Environment* env;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        env->ScheduleAt(env->now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  // Start `t` as an independent process. The process begins running at the
  // current virtual time, after already-queued events.
  Process Spawn(Task t, std::string name = {});

  // Run until the event queue drains. Throws the run's first unhandled
  // process error, if any (after draining) — see Process::Join for what
  // counts as unhandled.
  //
  // Not reentrant: calling Run/RunUntil from inside an event handler (a
  // process resumed by this loop) throws std::logic_error. See RunUntil.
  void Run();

  // Run until the clock would pass `deadline` (events at exactly `deadline`
  // are executed). Returns true if the queue drained before the deadline.
  // Either way the clock ends at `deadline` (never earlier), so consecutive
  // RunUntil calls carve virtual time into contiguous windows.
  //
  // Contract: RunUntil drives the loop from the *outside* — it may only be
  // called from non-coroutine code while no Run/RunUntil on this
  // Environment is already on the stack. Nesting it inside an event handler
  // would re-enter the dispatch loop mid-event and break the (time, seq)
  // total order; processes that want to pause until a time use
  // `co_await Delay(...)` instead. Under the sharded engine each shard's
  // loop owns its deadline windows outright: only ShardedEngine::Run calls
  // RunUntil on shard environments, one window at a time, so application
  // code must never call Run/RunUntil on a shard environment. Violations
  // throw std::logic_error.
  bool RunUntil(TimePoint deadline);

  // Sharded-engine window primitive: like RunUntil, but the bound is
  // re-read through `cap` before every event, so an event handler that
  // lowers `*cap` mid-window takes effect immediately (the engine's
  // boundary sends self-cap their shard's window this way). The caller
  // must only ever LOWER `*cap` while the loop runs, and never below the
  // current clock. On return the clock lands exactly on the final `*cap`
  // when it is finite; with `*cap == Never()` (an unbounded window) a
  // drained queue leaves the clock at the last executed event instead of
  // teleporting it to the sentinel. Same reentrancy contract as RunUntil.
  bool RunUntilDynamic(const TimePoint* cap);

  // Number of spawned processes that have not yet completed.
  std::size_t live_process_count() const { return live_; }

  // Total events executed; a cheap progress/efficiency metric for benches.
  std::uint64_t events_executed() const { return events_executed_; }

  // Schedule a raw coroutine resume. Used by awaitable primitives; not
  // usually called directly by application code. Defined inline so awaiters
  // in headers (Delay, CondVar::Wait, ...) inline the whole push path.
  void ScheduleAt(TimePoint t, std::coroutine_handle<> h) {
    if (tearing_down_) return;
    if (t == now_) {
      ring_.push(Event{t, next_seq_++, h});
    } else {
      heap_.push(Event{t, next_seq_++, h});
    }
  }
  void ScheduleNow(std::coroutine_handle<> h) {
    if (tearing_down_) return;
    ring_.push(Event{now_, next_seq_++, h});
  }

  // Allocation-free timer callback, for high-frequency internal events
  // (e.g. GPU kernel-wave completions). `ctx` must outlive the event.
  using Callback = void (*)(void* ctx, std::uint64_t arg);
  void ScheduleCallbackAt(TimePoint t, Callback fn, void* ctx,
                          std::uint64_t arg) {
    if (tearing_down_) return;
    if (t == now_) {
      ring_.push(Event{t, next_seq_++, nullptr, fn, ctx, arg});
    } else {
      heap_.push(Event{t, next_seq_++, nullptr, fn, ctx, arg});
    }
  }

 private:
  friend struct detail::ProcessState;

  struct Event {
    TimePoint t;
    std::uint64_t seq;
    std::coroutine_handle<> h;   // exactly one of h / fn is set
    Callback fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };

  // Ascending (time, seq) — the global execution order. Deliberately tests
  // `!=` first: in heap sifts the times are almost never equal, so this
  // branch predicts perfectly, whereas leading with a short-circuit `<`
  // branches 50/50 and measures ~2x slower across the whole event loop.
  static bool Earlier(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  // 4-ary min-heap on (time, seq). Shallower than a binary heap and sifts
  // through adjacent cache lines, which measures faster for the deep timer
  // queues the GPU model produces. Sifts move a hole instead of swapping:
  // one element copy per level rather than three (events are 48 bytes, so
  // copies are most of the work).
  class TimerHeap {
   public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    const Event& top() const { return v_.front(); }
    void push(const Event& e) {
      v_.push_back(e);  // grows the vector; the new slot becomes the hole
      const std::size_t tail = v_.size() - 1;
      std::size_t i = tail;
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!Earlier(e, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      if (i != tail) v_[i] = e;  // push_back already stored it at the tail
    }
    // Small enough to inline at the call site; the sift itself is outlined
    // so the common single-timer case is branch + copy + pop_back only.
    Event pop() {
      Event top = v_.front();
      if (v_.size() == 1) {
        v_.pop_back();
      } else {
        SiftDownFromTop();
      }
      return top;
    }

   private:
    void SiftDownFromTop();  // refill the root hole from the back element
    std::vector<Event> v_;
  };

  bool Step();  // execute one event; false if queue empty
  // Advance the clock to `e.t` and run its handler. Inlined into each pop
  // site of Step, so every path is straight-line code with a single Event
  // copy out of its container.
  void ExecuteEvent(const Event& e);
  // The event that would execute next; nullptr if none. Pointer is
  // invalidated by any schedule/step.
  const Event* PeekNext() const;
  void NoteProcessDone(detail::ProcessState* s, bool had_joiners);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_process_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;
  bool tearing_down_ = false;
  bool running_ = false;  // reentrancy guard for Run/RunUntil
  Ring<Event> ring_;  // events at the current instant, FIFO
  TimerHeap heap_;    // future events, min (time, seq)
  std::vector<std::shared_ptr<detail::ProcessState>> processes_;
  std::exception_ptr first_error_;
};

}  // namespace olympian::sim
