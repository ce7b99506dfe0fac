#pragma once

// Conservative parallel discrete-event engine for hub-and-spoke topologies.
//
// A ShardedEngine partitions one experiment across `shards` worker shards
// plus a hub shard (index 0 of the internal environment array). Each shard
// owns a full Environment — its own two-tier event queue and virtual clock —
// and the engine advances them in lock-step:
//
//   * Hub instants. When the hub's next event is not later than every
//     worker's next event, the engine parks all workers (aligning their
//     clocks with AdvanceTo), then executes ALL hub events at exactly that
//     instant on the calling thread. The hub therefore runs serially with
//     exclusive access to every shard's memory — router probes may read
//     server state, fault injection may mutate GPUs on any shard — and its
//     reads are temporally exact because every worker has executed all of
//     its events strictly before the instant and none at or after it.
//     Consecutive hub instants with no boundary traffic between them are
//     batched: the engine stays in a serial stretch (no channel drain, no
//     worker scan beyond a next-event check) until a send or an earlier
//     worker event forces it out.
//   * Parallel windows. Otherwise the earliest pending work is on a worker.
//     Workers with pending work run concurrently, each to its OWN deadline
//       cap_k = min(hub_next, min_{j != k} next_j + lookahead) - 1ns,
//     self-capped at a - 1ns the moment the worker sends a boundary message
//     arriving at `a`. This is conservative: the earliest instant at which
//     any future hub event can exist is min(hub_next, earliest boundary
//     arrival), every arrival from worker j lands at or after next_j +
//     lookahead (and the worker's own sends are accounted exactly), and no
//     worker ever executes an event at or past a future hub event's time —
//     which is what keeps hub-side reads of shard state temporally exact.
//     A worker whose queue is empty past its cap is simply not woken, so
//     idle shards cost nothing; a worker alone with work self-extends its
//     window until its first send (unbounded when it never sends), skipping
//     hub instants and barrier rounds entirely.
//
// Boundary events cross shards through per-LANE FIFO channels. A lane is a
// stable endpoint identity (the cluster uses one lane per server); lane l
// lives on shard l % shards. Channels are drained between phases by the
// engine thread and merged into the destination queue in (time, lane,
// channel seq) order — a fixed total order that does NOT depend on how
// lanes are packed onto shards, so the trajectory is independent of both
// thread scheduling and the shard count. With shards == 1 the engine owns a
// single Environment and Run() is literally Environment::Run: byte-identical
// to the unsharded engine, which keeps golden tests pinned.
//
// The halo-exchange shape (advance to horizon, exchange boundary events,
// repeat) follows the classic conservative-window decomposition; the star
// topology removes the need for null messages because workers never talk to
// each other — all cross-shard interaction flows through the hub.

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include <chrono>

#include "sim/environment.h"
#include "sim/time.h"

namespace olympian::sim {

class ShardedEngine {
 public:
  // `lookahead` is the minimum cross-shard latency (e.g. the cluster's
  // router<->server network delay); it must be > 0 when shards > 1, and every
  // hop's latency must be >= it. With shards <= 1 it is ignored.
  //
  // `lanes` is the number of boundary-lane identities, lane l on shard
  // l % shards; 0 means one lane per shard. The cluster passes one lane per
  // SERVER here, so the boundary merge order — (time, lane, seq) — is a
  // property of the workload, not of the shard count.
  explicit ShardedEngine(std::size_t shards,
                         Duration lookahead = Duration::Zero(),
                         std::size_t lanes = 0);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shards() const { return shards_; }
  bool sharded() const { return shards_ > 1; }

  // The hub environment (shard 0: router, clients, cluster bookkeeping).
  Environment& hub() { return *envs_.front(); }
  const Environment& hub() const { return *envs_.front(); }

  // Worker shard k's environment, k in [0, shards). With shards == 1 this
  // is the hub itself: everything shares one queue, as before sharding.
  Environment& shard_env(std::size_t k) {
    return sharded() ? *envs_[k + 1] : *envs_.front();
  }

  // The environment hosting lane l — shard_env(l % shards), or the hub
  // when unsharded. This is what lane-owning objects (cluster servers)
  // should live on.
  Environment& lane_env(std::size_t lane) {
    return shard_env(lane % shards_);
  }

  // Awaitable: move the running coroutine from the hub onto lane `l`'s
  // shard, resuming `latency` later on that shard's clock. Must be awaited
  // from hub-resident code. With shards == 1, a plain Delay on the hub —
  // except that a zero-latency hop completes inline, with no event.
  auto HopToShard(std::size_t l, Duration latency) {
    return HopAwaiter{this, l, /*to_hub=*/false, latency};
  }

  // Awaitable: move the running coroutine from lane `l`'s shard back onto
  // the hub, resuming `latency` later on the hub's clock. Must be awaited
  // from code resident on that lane's shard. With shards == 1, a plain
  // Delay (inline when the latency is zero, as for HopToShard).
  auto HopToHub(std::size_t l, Duration latency) {
    return HopAwaiter{this, l, /*to_hub=*/true, latency};
  }

  // Run every shard to completion (all queues drained, all channels empty).
  // Callable repeatedly — the cluster layer runs traffic, then schedules
  // shutdown work and runs again to drain it. Rethrows the first process
  // error (hub first, then workers in shard order).
  void Run();

  // --- counters (stable across runs; exported into BENCH_*.json) ----------
  // Parallel window rounds executed (one barrier open/close each).
  std::uint64_t sync_windows() const { return sync_windows_; }
  // Serial hub instants executed.
  std::uint64_t hub_instants() const { return hub_instants_; }
  // Events that crossed a shard boundary through a channel.
  std::uint64_t boundary_events() const { return boundary_events_; }
  // Worker wakeups summed over all window rounds. With the arrival barrier
  // this is <= sync_windows() * shards(): idle shards are never woken, so
  // (wakeups / windows) / shards measures how busy the partition keeps its
  // threads.
  std::uint64_t worker_wakeups() const { return worker_wakeups_; }
  // Events executed across all shards.
  std::uint64_t events_executed() const;
  // Events executed on shard k's environment alone (the hub excluded).
  // With shards == 1 this is the whole run. Their max/mean ratio is an
  // imbalance metric.
  std::uint64_t shard_events(std::size_t k) const {
    return sharded() ? envs_[k + 1]->events_executed()
                     : envs_.front()->events_executed();
  }

  // --- introspection (wall-clock; NOT part of the deterministic trajectory,
  // so consumers must keep these out of byte-compared artifacts) ------------
  // Wall time shard k spent executing window events, and wall time it spent
  // parked at the arrival barrier between windows. Read only after Run()
  // returns (the barrier's release/acquire pairs publish the counters).
  std::int64_t shard_busy_wall_ns(std::size_t k) const {
    return sharded() ? slots_[k]->busy_wall_ns : 0;
  }
  std::int64_t shard_barrier_wait_wall_ns(std::size_t k) const {
    return sharded() ? slots_[k]->wait_wall_ns : 0;
  }
  std::uint64_t shard_windows_run(std::size_t k) const {
    return sharded() ? slots_[k]->windows_run : 0;
  }

 private:
  struct BoundaryEvent {
    TimePoint at;
    std::coroutine_handle<> h;
  };
  struct Channel {
    std::vector<BoundaryEvent> msgs;  // FIFO: push order is channel seq
  };
  struct HopAwaiter {
    ShardedEngine* eng;
    std::size_t lane;
    bool to_hub;
    Duration latency;
    // Unsharded, a zero-latency hop is no hop at all. Sharded, every hop
    // goes through Send, which rejects a latency below the lookahead.
    bool await_ready() const noexcept {
      return !eng->sharded() && latency == Duration::Zero();
    }
    void await_suspend(std::coroutine_handle<> h) {
      eng->Send(lane, to_hub, latency, h);
    }
    void await_resume() const noexcept {}
  };
  // Per-worker barrier slot, cache-line padded so a worker spinning on its
  // own phase word never bounces a neighbour's line. `cap` is the window
  // deadline: published by the engine before bumping `phase` (the release
  // pairs with the worker's acquire), then lowered ONLY by the worker's own
  // thread (boundary sends self-cap), so it needs no atomicity of its own.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> phase{0};
    TimePoint cap;
    // Wall-clock introspection, written ONLY by the owning worker thread
    // before its release decrement of remaining_ (which is what makes the
    // engine's post-barrier reads race-free).
    std::int64_t busy_wall_ns = 0;
    std::int64_t wait_wall_ns = 0;
    std::uint64_t windows_run = 0;
  };

  void Send(std::size_t lane, bool to_hub, Duration latency,
            std::coroutine_handle<> h);
  void Deliver();  // drain all channels into destination queues
  void StartWorkers();
  void StopWorkers();
  void WorkerMain(std::size_t k, std::uint64_t seen_phase);

  std::size_t shards_;
  Duration lookahead_;
  std::vector<std::unique_ptr<Environment>> envs_;  // [hub, worker 0..N-1]
  std::vector<Channel> to_shard_;  // hub -> lane l, written by engine thread
  std::vector<Channel> to_hub_;    // lane l -> hub, written by l's worker
  std::vector<BoundaryEvent> merge_scratch_;
  // Channel occupancy, so Deliver() is O(1) when nothing crossed a boundary
  // (the common case between batched hub instants). The to-hub counter is
  // written by worker threads during windows, hence atomic; the engine only
  // reads it while the workers are parked.
  std::uint64_t pending_to_shard_ = 0;
  std::atomic<std::uint64_t> pending_to_hub_{0};

  // Arrival barrier. The engine publishes each participant's cap, bumps its
  // slot phase (release) and wakes it; each woken worker runs its window,
  // then decrements remaining_ (acq_rel) and wakes the engine. The acquire/
  // release pairs order all shard memory between phases, so cross-shard
  // reads during hub instants and deliveries are data-race-free. Workers
  // without pending work are not woken at all.
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> worker_errors_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<bool> stop_{false};

  std::uint64_t sync_windows_ = 0;
  std::uint64_t hub_instants_ = 0;
  std::uint64_t boundary_events_ = 0;
  std::uint64_t worker_wakeups_ = 0;

  // Scratch for Run()'s per-window scan (avoids per-iteration allocation).
  std::vector<TimePoint> nexts_;
  std::vector<char> participate_;
};

}  // namespace olympian::sim
