// Unit tests for the dataflow-graph engine: Graph structure, ThreadPool,
// and the Algorithm-1 Executor.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "graph/executor.h"
#include "graph/graph.h"
#include "graph/thread_pool.h"
#include "gpusim/gpu.h"
#include "sim/environment.h"

namespace olympian::graph {
namespace {

using gpusim::Gpu;
using gpusim::GpuSpec;
using sim::Duration;
using sim::Environment;
using sim::Task;
using sim::TimePoint;

using Inputs = std::vector<NodeId>;

Node CpuNode(Duration t) {
  Node n;
  n.device = Device::kCpu;
  n.cpu_time = t;
  return n;
}

Node GpuNode(double blocks_per_item, Duration block_work) {
  Node n;
  n.device = Device::kGpu;
  n.cpu_time = Duration::Micros(1);
  n.blocks_per_item = blocks_per_item;
  n.block_work = block_work;
  return n;
}

std::vector<NodeId> Outputs(const Graph& g, NodeId id) {
  const auto out = g.outputs(id);
  return {out.begin(), out.end()};
}

TEST(GraphTest, AddNodeWiresEdges) {
  Graph g("t");
  auto a = g.AddNode(CpuNode(Duration::Micros(1)), {});
  auto b = g.AddNode(CpuNode(Duration::Micros(1)), Inputs{a});
  auto c = g.AddNode(CpuNode(Duration::Micros(1)), Inputs{a, b});
  // A duplicated input is two edges: d is listed twice among a's children.
  auto d = g.AddNode(CpuNode(Duration::Micros(1)), Inputs{a, a});
  EXPECT_EQ(g.size(), 4u);
  EXPECT_FALSE(g.finished());
  g.Finish();
  EXPECT_EQ(Outputs(g, a), (Inputs{b, c, d, d}));
  EXPECT_EQ(Outputs(g, b), (Inputs{c}));
  EXPECT_EQ(Outputs(g, c), Inputs{});
  EXPECT_EQ(Outputs(g, d), Inputs{});
  EXPECT_EQ(g.in_degrees(), (std::vector<std::int32_t>{0, 1, 2, 2}));
  // A finished graph is immutable.
  EXPECT_THROW(g.AddNode(CpuNode(Duration::Micros(1)), Inputs{a}),
               std::logic_error);
  EXPECT_THROW(g.Finish(), std::logic_error);
}

TEST(GraphTest, ForwardReferenceRejected) {
  Graph g("t");
  g.AddNode(CpuNode(Duration::Micros(1)), {});
  EXPECT_THROW(g.AddNode(CpuNode(Duration::Micros(1)), Inputs{5}),
               std::logic_error);
}

TEST(GraphTest, ValidateRejectsMultipleSources) {
  Graph g("t");
  g.AddNode(CpuNode(Duration::Micros(1)), {});
  g.AddNode(CpuNode(Duration::Micros(1)), {});  // an orphan
  try {
    g.Validate();
    ADD_FAILURE() << "Validate accepted a second source";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "multiple sources: node-1");  // named by id
  }
  EXPECT_THROW(g.Finish(), std::logic_error);
}

TEST(GraphTest, ValidateRejectsEmpty) {
  Graph g("t");
  EXPECT_THROW(g.Validate(), std::logic_error);
  EXPECT_THROW(g.Finish(), std::logic_error);
}

TEST(GraphTest, GpuNodeCountTracked) {
  Graph g("t");
  auto a = g.AddNode(CpuNode(Duration::Micros(1)), {});
  g.AddNode(GpuNode(1.0, Duration::Micros(5)), Inputs{a});
  g.AddNode(GpuNode(1.0, Duration::Micros(5)), Inputs{a});
  EXPECT_EQ(g.gpu_node_count(), 2u);
  EXPECT_EQ(g.cpu_node_count(), 1u);
}

TEST(GraphTest, BlocksForIsLinearInBatch) {
  Node n = GpuNode(2.0, Duration::Micros(5));
  n.blocks_base = 10;
  EXPECT_EQ(n.BlocksFor(100), 210);
  EXPECT_EQ(n.BlocksFor(50), 110);
  // Floors at 1 block.
  Node tiny = GpuNode(0.0, Duration::Micros(5));
  EXPECT_EQ(tiny.BlocksFor(1), 1);
}

TEST(GraphTest, TotalGpuWorkSumsBlocksTimesWork) {
  Graph g("t");
  auto a = g.AddNode(CpuNode(Duration::Micros(1)), {});
  // Batch b launches b blocks.
  g.AddNode(GpuNode(1.0, Duration::Micros(10)), Inputs{a});
  EXPECT_EQ(g.TotalGpuWork(7), Duration::Micros(70));
}

// Adapts a capturing coroutine lambda to a pool item; `f` must outlive the
// item's completion, as ThreadPool::WorkItem requires of its ctx.
template <typename F>
ThreadPool::WorkItem Item(F& f) {
  return {[](void* ctx, std::uint64_t) { return (*static_cast<F*>(ctx))(); },
          &f, 0};
}

Task AppendArg(void* out, std::uint64_t arg) {
  static_cast<std::vector<std::uint64_t>*>(out)->push_back(arg);
  co_return;
}

TEST(ThreadPoolTest, ExecutesAllItems) {
  Environment env;
  ThreadPool pool(env, 4);
  int done = 0;
  auto body = [&env, &done]() -> Task {
    co_await env.Delay(Duration::Micros(10));
    ++done;
  };
  for (int i = 0; i < 20; ++i) pool.Schedule(Item(body));
  pool.Shutdown();
  env.Run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(pool.items_executed(), 20u);
}

TEST(ThreadPoolTest, ConcurrencyBoundedByPoolSize) {
  Environment env;
  ThreadPool pool(env, 3);
  int inside = 0, peak = 0;
  auto body = [&env, &inside, &peak]() -> Task {
    ++inside;
    peak = std::max(peak, inside);
    co_await env.Delay(Duration::Micros(10));
    --inside;
  };
  for (int i = 0; i < 12; ++i) pool.Schedule(Item(body));
  pool.Shutdown();
  env.Run();
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(pool.peak_busy_workers(), 3u);
}

TEST(ThreadPoolTest, ItemsHoldingWorkersStallOthers) {
  // A suspended item occupies its worker — the property behind Olympian's
  // §4.3 thread-pool scaling limit.
  Environment env;
  ThreadPool pool(env, 1);
  sim::CondVar cv(env);
  std::vector<int> order;
  auto holder = [&cv, &order]() -> Task {
    order.push_back(1);
    co_await cv.Wait();  // hold the only worker
    order.push_back(3);
  };
  auto waiter = [&order]() -> Task {
    order.push_back(2);
    co_return;
  };
  pool.Schedule(Item(holder));
  pool.Schedule(Item(waiter));
  env.Spawn([](Environment& e, sim::CondVar& c) -> Task {
    co_await e.Delay(Duration::Millis(1));
    c.NotifyAll();
  }(env, cv));
  pool.Shutdown();
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(ThreadPoolTest, OneWorkerRunsItemsInSubmissionOrder) {
  // 40 items queue behind one worker, past the queue's first two growths;
  // each item's argument reaches its factory and FIFO order holds.
  Environment env;
  ThreadPool pool(env, 1);
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < 40; ++i) pool.Schedule({&AppendArg, &order, i});
  pool.Shutdown();
  env.Run();
  std::vector<std::uint64_t> want(40);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(order, want);
  EXPECT_EQ(pool.items_executed(), 40u);
}

// --- Executor fixture ---------------------------------------------------

struct ExecFixture {
  explicit ExecFixture(std::size_t pool_size = 64, ExecutorOptions opts = {},
                       std::int64_t slots = 64)
      : gpu(env,
            Gpu::Options{.spec = GpuSpec{.name = "t",
                                         .num_sms = static_cast<int>(slots),
                                         .max_blocks_per_sm = 1,
                                         .clock_scale = 1.0,
                                         .memory_mb = 100000},
                         .arbitration_bias_sigma = 0.0,
                         .clock_noise_sigma = 0.0,
                         .seed = 3}),
        pool(env, pool_size),
        exec(env, gpu, pool, opts, /*seed=*/5, nullptr) {}

  JobContext MakeCtx(int batch, int n_streams = 2) {
    JobContext ctx;
    ctx.job = next_job++;
    ctx.batch = batch;
    ctx.model_key = "test@" + std::to_string(batch);
    for (int i = 0; i < n_streams; ++i) ctx.streams.push_back(gpu.CreateStream());
    return ctx;
  }

  Environment env;
  Gpu gpu;
  ThreadPool pool;
  Executor exec;
  gpusim::JobId next_job = 0;
};

Graph DiamondGraph() {
  // input -> {gpu1, gpu2} -> join(cpu)
  Graph g("diamond");
  auto in = g.AddNode(CpuNode(Duration::Micros(2)), {});
  auto g1 = g.AddNode(GpuNode(1.0, Duration::Micros(10)), Inputs{in});
  auto g2 = g.AddNode(GpuNode(1.0, Duration::Micros(20)), Inputs{in});
  g.AddNode(CpuNode(Duration::Micros(2)), Inputs{g1, g2});  // join
  g.Finish();
  return g;
}

TEST(ExecutorTest, RunsEveryNodeOnce) {
  ExecFixture f;
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(/*batch=*/8);
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  EXPECT_EQ(f.exec.nodes_executed(), g.size());
  EXPECT_EQ(f.exec.runs_completed(), 1u);
  EXPECT_EQ(f.gpu.kernels_completed(), 2u);
}

TEST(ExecutorTest, RespectsDependencies) {
  // A chain a->b->c of CPU nodes must execute sequentially: total time is
  // the sum of (jittered) node times; with jitter off it's exact.
  ExecutorOptions opts;
  opts.cpu_jitter = 0.0;
  opts.gpu_jitter = 0.0;
  ExecFixture f(64, opts);
  Graph g("chain");
  auto a = g.AddNode(CpuNode(Duration::Micros(10)), {});
  auto b = g.AddNode(CpuNode(Duration::Micros(20)), Inputs{a});
  g.AddNode(CpuNode(Duration::Micros(30)), Inputs{b});
  g.Finish();
  auto ctx = f.MakeCtx(1);
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  EXPECT_EQ(f.env.Now(), TimePoint() + Duration::Micros(60));
}

TEST(ExecutorTest, ParallelGpuBranchesOverlap) {
  // Two small GPU nodes on different streams overlap; the run finishes at
  // roughly max(branch times), not the sum.
  ExecutorOptions opts;
  opts.cpu_jitter = 0.0;
  opts.gpu_jitter = 0.0;
  ExecFixture f(64, opts);
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(/*batch=*/8);  // 8 blocks each, 64 slots: no waves
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  // in(2us) + max(1+10, 1+20)us + join(2us) = 25us.
  EXPECT_EQ(f.env.Now(), TimePoint() + Duration::Micros(25));
}

TEST(ExecutorTest, RecordsCostProfile) {
  ExecutorOptions opts;
  opts.cpu_jitter = 0.0;
  opts.gpu_jitter = 0.0;
  ExecFixture f(64, opts);
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(8);
  CostProfile profile;
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr,
                 CostProfile& p) -> Task {
    co_await fx.exec.RunOnce(c, gr, &p);
    fx.pool.Shutdown();
  }(f, ctx, g, profile));
  f.env.Run();
  ASSERT_EQ(profile.size(), g.size());
  EXPECT_DOUBLE_EQ(profile.NodeCost(0), 2000.0);         // 2us CPU
  EXPECT_DOUBLE_EQ(profile.NodeCost(1), 1000.0 + 10000.0);  // launch + kernel
  EXPECT_GT(profile.TotalCost(), 0.0);
}

TEST(ExecutorTest, OnlineProfilerInflatesRuntime) {
  // Figure 6: the online cost profiler adds per-node CPU overhead.
  Graph g = DiamondGraph();
  auto run = [&](bool online) {
    ExecutorOptions opts;
    opts.cpu_jitter = 0.0;
    opts.gpu_jitter = 0.0;
    opts.online_cost_profiler = online;
    ExecFixture f(64, opts);
    auto ctx = f.MakeCtx(8);
    f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
      co_await fx.exec.RunOnce(c, gr);
      fx.pool.Shutdown();
    }(f, ctx, g));
    f.env.Run();
    return f.env.Now() - TimePoint();
  };
  const Duration base = run(false);
  const Duration online = run(true);
  EXPECT_GT(online, base);
  // Critical path has 3 nodes -> at least 3 x 4us extra.
  EXPECT_GE(online - base, Duration::Micros(12));
}

TEST(ExecutorTest, PerItemCpuTimeScalesWithBatch) {
  ExecutorOptions opts;
  opts.cpu_jitter = 0.0;
  opts.gpu_jitter = 0.0;
  ExecFixture f(64, opts);
  Graph g("t");
  Node in = CpuNode(Duration::Micros(10));
  in.cpu_time_per_item = Duration::Micros(2);
  g.AddNode(in, {});
  g.Finish();
  auto ctx = f.MakeCtx(/*batch=*/50);
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  EXPECT_EQ(f.env.Now(), TimePoint() + Duration::Micros(10 + 100));
}

TEST(ExecutorTest, MissingStreamsRejected) {
  ExecFixture f;
  Graph g = DiamondGraph();
  JobContext ctx;  // no streams
  EXPECT_THROW(f.exec.RunOnce(ctx, g), std::invalid_argument);
}

TEST(ExecutorTest, UnfinishedGraphRejected) {
  ExecFixture f;
  Graph g("t");
  g.AddNode(CpuNode(Duration::Micros(1)), {});
  auto ctx = f.MakeCtx(8);
  EXPECT_THROW(f.exec.RunOnce(ctx, g), std::invalid_argument);
}

TEST(ExecutorTest, SequentialRunsReuseContext) {
  ExecFixture f;
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(8);
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    for (int i = 0; i < 5; ++i) co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  EXPECT_EQ(f.exec.runs_completed(), 5u);
  EXPECT_EQ(f.gpu.kernels_completed(), 10u);
}

// A kernel failure in a run with no CancelToken (one awaited directly, as
// here) is fail-stop: KernelFailed escapes the pool worker that awaited the
// kernel and surfaces from Environment::Run. The failed node is neither
// executed nor cancelled, so the run never completes.
TEST(ExecutorTest, KernelFailureWithoutTokenSurfacesFromRun) {
  ExecFixture f;
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(8);
  f.gpu.InjectKernelFailure(ctx.streams[0]);  // g1 launches on stream 0
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  EXPECT_THROW(f.env.Run(), gpusim::KernelFailed);
  EXPECT_EQ(f.gpu.kernels_failed(), 1u);
  EXPECT_EQ(f.gpu.kernels_completed(), 1u);
  EXPECT_EQ(f.exec.nodes_executed(), 2u);  // in and g2; join never readies
  EXPECT_EQ(f.exec.nodes_cancelled(), 0u);
  EXPECT_EQ(f.exec.runs_completed(), 0u);
}

// With a CancelToken the same failure degrades gracefully: the token
// records it, the rest of the graph drains as no-ops, and the run returns.
TEST(ExecutorTest, KernelFailureWithTokenCancelsAndDrains) {
  ExecFixture f;
  Graph g = DiamondGraph();
  auto ctx = f.MakeCtx(8);
  CancelToken token;
  ctx.cancel = &token;
  f.gpu.InjectKernelFailure(ctx.streams[0]);
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr) -> Task {
    co_await fx.exec.RunOnce(c, gr);
    fx.pool.Shutdown();
  }(f, ctx, g));
  f.env.Run();
  EXPECT_TRUE(token.cancelled);
  EXPECT_EQ(token.reason, CancelReason::kKernelFailed);
  EXPECT_EQ(f.exec.runs_completed(), 1u);
  EXPECT_EQ(f.exec.nodes_executed() + f.exec.nodes_cancelled(), g.size());
  EXPECT_EQ(f.exec.nodes_cancelled(), 1u);  // join, readied after the fault
  EXPECT_EQ(f.gpu.kernels_failed(), 1u);
}

// Property: on random DAGs, every node executes exactly once and
// dependencies hold (checked via completion-order bookkeeping in a hook).
class RandomDagTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagTest, AllNodesExecutedDependenciesHeld) {
  sim::Rng rng(GetParam());
  Graph g("rand");
  g.AddNode(CpuNode(Duration::Micros(1)), {});
  const int n = 80;
  for (int i = 1; i < n; ++i) {
    // 1-3 inputs from earlier nodes.
    std::set<NodeId> ins;
    const int k = static_cast<int>(rng.UniformInt(1, 3));
    for (int j = 0; j < k; ++j) {
      ins.insert(static_cast<NodeId>(rng.UniformInt(0, i - 1)));
    }
    const Inputs inputs(ins.begin(), ins.end());
    if (rng.NextDouble() < 0.5) {
      g.AddNode(GpuNode(rng.Uniform(0.5, 2.0),
                        Duration::Micros(rng.UniformInt(1, 30))),
                inputs);
    } else {
      g.AddNode(CpuNode(Duration::Micros(rng.UniformInt(1, 20))), inputs);
    }
  }
  g.Finish();

  ExecFixture f(16);
  auto ctx = f.MakeCtx(10);
  CostProfile profile;
  f.env.Spawn([](ExecFixture& fx, JobContext& c, const Graph& gr,
                 CostProfile& p) -> Task {
    co_await fx.exec.RunOnce(c, gr, &p);
    fx.pool.Shutdown();
  }(f, ctx, g, profile));
  f.env.Run();
  EXPECT_EQ(f.exec.nodes_executed(), g.size());
  // Every node got a recorded (positive) cost -> executed exactly once.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_GT(profile.NodeCost(static_cast<NodeId>(i)), 0.0) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace olympian::graph
