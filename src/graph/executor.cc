#include "graph/executor.h"

#include <stdexcept>

namespace olympian::graph {
namespace {
// Per-node CPU cost and per-kernel slowdown of the online cost profiler
// (CUPTI hooks); together they give paper Figure 6's 21-29%.
constexpr sim::Duration kProfilerOverheadPerNode = sim::Duration::Micros(4);
constexpr double kProfilerKernelSlowdown = 1.22;
}  // namespace

Executor::Executor(sim::Environment& env, gpusim::Gpu& gpu, ThreadPool& pool,
                   ExecutorOptions options, std::uint64_t seed,
                   SchedulingHooks* hooks)
    : env_(env),
      gpu_(gpu),
      pool_(pool),
      options_(options),
      rng_(seed),
      hooks_(hooks) {}

void Executor::RunState::Reset(JobContext& c, const Graph& g,
                               CostProfile* prof) {
  ctx = &c;
  graph = &g;
  profile = prof;
  remaining = g.size();
  pending.assign(g.in_degrees().begin(), g.in_degrees().end());
  if (profile != nullptr && profile->size() != g.size()) {
    profile->Resize(g.size());
  }
}

Executor::RunState* Executor::AcquireRunState(JobContext& ctx,
                                              const Graph& graph,
                                              CostProfile* profile) {
  RunState* st;
  if (!runstate_free_.empty()) {
    st = runstate_free_.back();
    runstate_free_.pop_back();
  } else {
    runstate_store_.push_back(std::make_unique<RunState>(*this));
    st = runstate_store_.back().get();
  }
  st->Reset(ctx, graph, profile);
  return st;
}

void Executor::ReleaseRunState(RunState* st) {
  runstate_free_.push_back(st);
}

Executor::BfsQueue* Executor::AcquireBfs() {
  if (!bfs_free_.empty()) {
    BfsQueue* q = bfs_free_.back();
    bfs_free_.pop_back();
    return q;
  }
  bfs_store_.push_back(std::make_unique<BfsQueue>());
  return bfs_store_.back().get();
}

void Executor::ReleaseBfs(BfsQueue* q) {
  q->reset();
  bfs_free_.push_back(q);
}

sim::Task Executor::RunOnce(JobContext& ctx, const Graph& graph,
                            CostProfile* profile) {
  // Validate eagerly: this function is not a coroutine, so violations throw
  // at the call site rather than being deferred into the task.
  if (ctx.streams.empty()) {
    throw std::invalid_argument("JobContext has no GPU streams");
  }
  if (ctx.batch < 1) throw std::invalid_argument("batch must be >= 1");
  if (!graph.finished()) throw std::invalid_argument("graph is not finished");
  return RunOnceImpl(ctx, graph, profile);
}

sim::Task Executor::RunOnceImpl(JobContext& ctx, const Graph& graph,
                                CostProfile* profile) {
  RunState& st = *AcquireRunState(ctx, graph, profile);
  const sim::TimePoint attempt_start = env_.Now();
  // Algorithm 2, lines 4-5: register and reset the gang-shared cost.
  ctx.cumulated_cost = 0.0;
  if (hooks_ != nullptr) hooks_->RegisterRun(ctx);
  co_await Process(st, graph.root());
  // The root traversal has returned, but asynchronous subtrees may still be
  // executing on pool threads; Session::Run returns only when the whole
  // graph has been evaluated.
  while (st.remaining > 0) co_await st.all_done.Wait();
  if (hooks_ != nullptr) hooks_->DeregisterRun(ctx);
  if (options_.tracer != nullptr && ctx.trace.request != 0) {
    // One span per admission of a traced request; the serving layer's flow
    // events bind to these at their start timestamps, chaining retries,
    // hedges, and failover re-admissions across device tracks.
    options_.tracer->AddSpanNumbered(
        "attempt", ctx.trace.hedge ? "hedge-req-" : "req-",
        static_cast<std::int64_t>(ctx.trace.request), ctx.job, attempt_start,
        env_.Now());
  }
  ++runs_completed_;
  // Only now is the state guaranteed unreferenced by pool threads.
  ReleaseRunState(&st);
}

void Executor::NotifyCancel(JobContext& ctx) {
  if (hooks_ != nullptr && ctx.cancel != nullptr &&
      !ctx.cancel->hooks_notified) {
    ctx.cancel->hooks_notified = true;
    hooks_->CancelRun(ctx);
  }
}

sim::Task Executor::ProcessItem(void* st, std::uint64_t node) {
  RunState& run = *static_cast<RunState*>(st);
  return run.exec->Process(run, static_cast<NodeId>(node));
}

sim::Task Executor::Process(RunState& st, NodeId start) {
  JobContext& ctx = *st.ctx;
  BfsQueue& bfs_queue = *AcquireBfs();
  bfs_queue.push(start);
  while (!bfs_queue.empty()) {
    const NodeId nid = bfs_queue.pop();
    const Node& node = st.graph->node(nid);

    bool cancelled = IsCancelled(ctx);
    if (!cancelled) {
      // Algorithm 2, line 12: cooperative yield point. With no hooks this is
      // stock TF-Serving (Algorithm 1).
      if (hooks_ != nullptr && hooks_->NeedsYield(ctx)) {
        co_await hooks_->Yield(ctx);
        cancelled = IsCancelled(ctx);  // run may have been cancelled waiting
      }
    }
    if (!cancelled) {
      // Compute the node: its CPU time, then a GPU node's kernel.
      const sim::TimePoint t0 = env_.Now();
      sim::Duration cpu = node.cpu_time + node.cpu_time_per_item *
                                              static_cast<double>(ctx.batch);
      if (options_.online_cost_profiler) {
        cpu += kProfilerOverheadPerNode;
      }
      if (options_.cpu_jitter > 0.0) {
        cpu = rng_.Jitter(cpu, options_.cpu_jitter);
      }
      if (cpu > sim::Duration::Zero()) co_await env_.Delay(cpu);

      if (node.is_gpu()) {
        const auto stream = ctx.streams[ctx.next_stream % ctx.streams.size()];
        ++ctx.next_stream;
        sim::Duration work = node.block_work;
        if (options_.online_cost_profiler) {
          work = work * kProfilerKernelSlowdown;
        }
        if (options_.gpu_jitter > 0.0) {
          work = rng_.Jitter(work, options_.gpu_jitter);
        }
        try {
          co_await gpu_.Submit(stream,
                               gpusim::KernelDesc{
                                   .job = ctx.job,
                                   .node_id = node.id,
                                   .thread_blocks = node.BlocksFor(ctx.batch),
                                   .block_work = work,
                               });
        } catch (const gpusim::KernelFailed&) {
          // With a cancellation token installed the failure degrades
          // gracefully: the run is marked failed and drains, and the serving
          // layer decides whether to retry. Without one (a run awaited
          // directly, outside the serving layer), stay fail-stop.
          if (ctx.cancel == nullptr) throw;
          ctx.cancel->Cancel(CancelReason::kKernelFailed);
        }
      }

      if (st.profile != nullptr) {
        st.profile->RecordNodeCost(
            node.id, static_cast<double>((env_.Now() - t0).nanos()));
      }
      if (options_.tracer != nullptr && options_.trace_node_spans) {
        // Numbered ("node-<id>", as Graph::Validate names nodes), so no
        // string is composed per node execution. Called even when full so
        // truncation accounting sees every rejection.
        options_.tracer->AddSpanNumbered(
            node.is_gpu() ? "gpu-node" : "cpu-node", "node-", node.id,
            ctx.job, t0, env_.Now());
      }
      // A kernel failure, or a deadline elapsing while the kernel was in
      // flight, cancels the run mid-node.
      cancelled = IsCancelled(ctx);
      // Algorithm 2, lines 14-18: cost accrual / token rotation.
      if (!cancelled && hooks_ != nullptr) hooks_->OnNodeComputed(ctx, node);
      ++nodes_executed_;
    } else {
      ++nodes_cancelled_;
    }
    if (cancelled) NotifyCancel(ctx);

    --st.remaining;
    if (st.remaining == 0) st.all_done.NotifyAll();

    for (const NodeId child : st.graph->outputs(nid)) {
      if (--st.pending[static_cast<std::size_t>(child)] == 0) {
        if (cancelled || !st.graph->node(child).is_gpu()) {
          // Synchronous — or cancelled, in which case the rest of the graph
          // drains inline as no-ops without touching the pool.
          bfs_queue.push(child);
        } else {
          // Asynchronous: fetch a pool thread to continue from this node
          // (Algorithm 1, lines 13-15). &st outlives the item: the
          // enclosing RunOnce returns only after every node has executed.
          pool_.Schedule({&Executor::ProcessItem, &st,
                          static_cast<std::uint64_t>(child)});
        }
      }
    }
  }
  ReleaseBfs(&bfs_queue);
}

}  // namespace olympian::graph
