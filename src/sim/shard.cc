#include "sim/shard.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::sim {

ShardedEngine::ShardedEngine(std::size_t shards, Duration lookahead,
                             std::size_t lanes)
    : shards_(shards == 0 ? 1 : shards), lookahead_(lookahead) {
  if (sharded() && lookahead_ <= Duration::Zero()) {
    throw std::logic_error(
        "ShardedEngine: shards=" + std::to_string(shards_) +
        " requires a positive lookahead; pass the minimum cross-shard hop "
        "latency (e.g. the cluster's router<->server net_delay) as the "
        "lookahead argument, or construct with shards=1");
  }
  if (lanes == 0) lanes = shards_;
  const std::size_t envs = sharded() ? shards_ + 1 : 1;
  envs_.reserve(envs);
  for (std::size_t i = 0; i < envs; ++i) {
    envs_.push_back(std::make_unique<Environment>());
  }
  if (sharded()) {
    to_shard_.resize(lanes);
    to_hub_.resize(lanes);
    worker_errors_.resize(shards_);
    slots_.reserve(shards_);
    for (std::size_t k = 0; k < shards_; ++k) {
      slots_.push_back(std::make_unique<WorkerSlot>());
    }
    nexts_.resize(shards_);
    participate_.resize(shards_);
  }
}

ShardedEngine::~ShardedEngine() { StopWorkers(); }

void ShardedEngine::Send(std::size_t lane, bool to_hub, Duration latency,
                         std::coroutine_handle<> h) {
  if (!sharded()) {
    // Single-shard: the "hop" degenerates to a latency delay on the one
    // queue, byte-identical to what the unsharded code path schedules.
    Environment& env = hub();
    env.ScheduleAt(env.Now() + latency, h);
    return;
  }
  if (latency < lookahead_) {
    throw std::logic_error(
        "ShardedEngine: cross-shard hop latency below the engine lookahead "
        "would violate the conservative horizon");
  }
  const std::size_t shard = lane % shards_;
  if (to_hub) {
    Environment& src = *envs_[shard + 1];
    const TimePoint at = src.Now() + latency;
    to_hub_[lane].msgs.push_back(BoundaryEvent{at, h});
    pending_to_hub_.fetch_add(1, std::memory_order_relaxed);
    // Self-cap: this send can seed a hub event at `at`, so the sending
    // worker must not execute anything at or past it. Runs on the worker's
    // own thread mid-window, which is exactly who reads the cap.
    WorkerSlot& slot = *slots_[shard];
    const TimePoint cap = at - Duration::Nanos(1);
    if (cap < slot.cap) slot.cap = cap;
  } else {
    to_shard_[lane].msgs.push_back(BoundaryEvent{hub().Now() + latency, h});
    ++pending_to_shard_;
  }
}

void ShardedEngine::Deliver() {
  // Hub -> workers: concatenate shard k's lanes k, k + shards, ... in
  // ascending order (each channel already in send/seq order), then
  // stable-sort by arrival time: ties keep lane-then-seq order. The (time,
  // lane, seq) total order is independent of how lanes pack onto shards.
  if (pending_to_shard_ != 0) {
    pending_to_shard_ = 0;
    for (std::size_t k = 0; k < shards_; ++k) {
      merge_scratch_.clear();
      for (std::size_t l = k; l < to_shard_.size(); l += shards_) {
        Channel& ch = to_shard_[l];
        if (ch.msgs.empty()) continue;
        merge_scratch_.insert(merge_scratch_.end(), ch.msgs.begin(),
                              ch.msgs.end());
        ch.msgs.clear();
      }
      if (merge_scratch_.empty()) continue;
      std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                       [](const BoundaryEvent& a, const BoundaryEvent& b) {
                         return a.at < b.at;
                       });
      Environment& env = *envs_[k + 1];
      for (const BoundaryEvent& m : merge_scratch_) {
        if (m.at < env.Now()) {
          throw std::logic_error(
              "ShardedEngine: boundary event arrives in the destination "
              "shard's past (conservative horizon violated)");
        }
        env.ScheduleAt(m.at, m.h);
      }
      boundary_events_ += merge_scratch_.size();
    }
  }
  // Workers -> hub: same (time, lane, seq) merge across every lane.
  if (pending_to_hub_.load(std::memory_order_relaxed) == 0) return;
  pending_to_hub_.store(0, std::memory_order_relaxed);
  merge_scratch_.clear();
  for (std::size_t l = 0; l < to_hub_.size(); ++l) {
    Channel& ch = to_hub_[l];
    if (ch.msgs.empty()) continue;
    merge_scratch_.insert(merge_scratch_.end(), ch.msgs.begin(),
                          ch.msgs.end());
    ch.msgs.clear();
  }
  if (merge_scratch_.empty()) return;
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const BoundaryEvent& a, const BoundaryEvent& b) {
                     return a.at < b.at;
                   });
  Environment& env = hub();
  for (const BoundaryEvent& m : merge_scratch_) {
    if (m.at < env.Now()) {
      throw std::logic_error(
          "ShardedEngine: boundary event arrives in the hub's past "
          "(conservative horizon violated)");
    }
    env.ScheduleAt(m.at, m.h);
  }
  boundary_events_ += merge_scratch_.size();
}

void ShardedEngine::StartWorkers() {
  if (!threads_.empty()) return;
  // Capture the spawn-time phase on this thread: a worker that first reads
  // its slot only after the engine already opened a window must still see
  // that window as "new", or it would sleep through it and deadlock.
  threads_.reserve(shards_);
  for (std::size_t k = 0; k < shards_; ++k) {
    const std::uint64_t start_phase =
        slots_[k]->phase.load(std::memory_order_relaxed);
    threads_.emplace_back(
        [this, k, start_phase] { WorkerMain(k, start_phase); });
  }
}

void ShardedEngine::StopWorkers() {
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& slot : slots_) {
    slot->phase.fetch_add(1, std::memory_order_release);
    slot->phase.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ShardedEngine::WorkerMain(std::size_t k, std::uint64_t seen) {
  using WallClock = std::chrono::steady_clock;
  Environment& env = *envs_[k + 1];
  WorkerSlot& slot = *slots_[k];
  for (;;) {
    const WallClock::time_point parked = WallClock::now();
    slot.phase.wait(seen, std::memory_order_acquire);
    seen = slot.phase.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    const WallClock::time_point woke = WallClock::now();
    try {
      // The cap can shrink while we run (Send self-caps on the first
      // boundary message), so the window loop re-reads it per event.
      env.RunUntilDynamic(&slot.cap);
    } catch (...) {
      worker_errors_[k] = std::current_exception();
    }
    // Introspection: written before the release decrement below, which is
    // what publishes them to the engine's post-barrier reads.
    slot.wait_wall_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(woke - parked)
            .count();
    slot.busy_wall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                             WallClock::now() - woke)
                             .count();
    ++slot.windows_run;
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
    remaining_.notify_one();
  }
}

void ShardedEngine::Run() {
  if (!sharded()) {
    hub().Run();
    return;
  }
  StartWorkers();
  for (;;) {
    Deliver();
    TimePoint hub_next = hub().NextEventTime();
    TimePoint worker_next = Environment::Never();
    for (std::size_t k = 0; k < shards_; ++k) {
      nexts_[k] = envs_[k + 1]->NextEventTime();
      worker_next = std::min(worker_next, nexts_[k]);
    }
    if (hub_next == Environment::Never() &&
        worker_next == Environment::Never()) {
      break;  // every queue and channel drained
    }
    if (hub_next <= worker_next) {
      // Serial stretch: run hub instants back to back for as long as the
      // hub stays earliest and nothing crosses a boundary — no channel
      // drain and no barrier between them. Worker clocks are aligned at
      // every instant so hub code touching shard-resident objects (fault
      // injection, shutdown) schedules follow-ups at the current instant,
      // and each whole instant — including same-instant cascades — runs
      // serially on this thread.
      for (;;) {
        ++hub_instants_;
        for (std::size_t k = 0; k < shards_; ++k) {
          if (envs_[k + 1]->Now() < hub_next) envs_[k + 1]->AdvanceTo(hub_next);
        }
        hub().RunUntil(hub_next);
        if (pending_to_shard_ != 0 ||
            pending_to_hub_.load(std::memory_order_relaxed) != 0) {
          break;  // boundary traffic: deliver before anything else runs
        }
        // The hub may have scheduled directly onto worker queues
        // (cross-shard mutation during the instant), so rescan both sides.
        hub_next = hub().NextEventTime();
        worker_next = Environment::Never();
        for (std::size_t k = 0; k < shards_; ++k) {
          worker_next = std::min(worker_next, envs_[k + 1]->NextEventTime());
        }
        if (hub_next == Environment::Never() || hub_next > worker_next) break;
      }
      continue;
    }
    // Parallel window round. Worker k may run through every instant t with
    //   t <= cap_k = min(hub_next, min_{j != k} next_j + lookahead) - 1ns,
    // further self-capped by its own boundary sends (see Send): the
    // earliest possible future hub event is min(hub_next, earliest
    // boundary arrival), arrivals from shard j land at or after next_j +
    // lookahead, and a worker accounts for its own sends exactly. Hence no
    // worker executes an event at or past any future hub event's time —
    // the invariant hub instants rely on. min()/2nd-min() of next_j +
    // lookahead give every cap in one pass.
    ++sync_windows_;
    TimePoint min1 = Environment::Never();
    TimePoint min2 = Environment::Never();
    std::size_t min1_k = shards_;
    for (std::size_t k = 0; k < shards_; ++k) {
      if (nexts_[k] == Environment::Never()) continue;
      const TimePoint c = nexts_[k] + lookahead_;
      if (c < min1) {
        min2 = min1;
        min1 = c;
        min1_k = k;
      } else if (c < min2) {
        min2 = c;
      }
    }
    std::uint32_t participants = 0;
    // Pass 1: pick participants and publish caps (remaining_ must cover
    // every participant before the first wakeup). A worker participates
    // only when its head event fits under its cap; everyone else sleeps
    // through the round untouched.
    for (std::size_t k = 0; k < shards_; ++k) {
      participate_[k] = false;
      if (nexts_[k] == Environment::Never()) continue;  // idle: never woken
      const TimePoint others = std::min(hub_next, min1_k == k ? min2 : min1);
      const TimePoint cap = others == Environment::Never()
                                ? Environment::Never()
                                : others - Duration::Nanos(1);
      if (nexts_[k] > cap) continue;
      participate_[k] = true;
      slots_[k]->cap = cap;
      ++participants;
    }
    if (participants == 0) {
      throw std::logic_error(
          "ShardedEngine: window opened with no runnable worker (engine "
          "invariant violated)");
    }
    worker_wakeups_ += participants;
    remaining_.store(participants, std::memory_order_relaxed);
    // Pass 2: wake exactly the participants.
    for (std::size_t k = 0; k < shards_; ++k) {
      if (!participate_[k]) continue;
      WorkerSlot& slot = *slots_[k];
      slot.phase.fetch_add(1, std::memory_order_release);
      slot.phase.notify_one();
    }
    for (;;) {
      const std::uint32_t left = remaining_.load(std::memory_order_acquire);
      if (left == 0) break;
      remaining_.wait(left, std::memory_order_acquire);
    }
    for (std::size_t k = 0; k < shards_; ++k) {
      if (worker_errors_[k]) {
        std::rethrow_exception(std::exchange(worker_errors_[k], nullptr));
      }
    }
  }
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& env : envs_) total += env->events_executed();
  return total;
}

}  // namespace olympian::sim
