// google-benchmark microbenchmarks for the hot paths: the simulation event
// loop, GPU submission, the observability overhead and the sharded cluster.
// These bound the simulator's own cost, not the modeled system's.
//
// The event-loop benchmarks also report heap-allocations-per-event (via a
// counting global operator new in this binary), the metric the coroutine
// frame pool and the two-tier event queue are tuned against.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "fault/fault.h"
#include "gpusim/gpu.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "serving/cluster.h"
#include "serving/server.h"
#include "sim/environment.h"
#include "sim/sync.h"

// --- allocation counting ----------------------------------------------------
// Counts every heap allocation made in this binary. The sharded cluster
// benchmark runs engine worker threads inside the measured region, so the
// counter is atomic; relaxed increments keep the probe cheap on the
// single-threaded paths.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs the replaced operator new's inlined malloc with the free below
// and warns about a mismatch; the pairing is intentional here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace olympian;

namespace {

// Attaches events/sec and allocs/event counters to an event-loop benchmark.
void ReportEventCounters(benchmark::State& state, std::uint64_t events,
                         std::uint64_t allocs) {
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
  state.counters["allocs/event"] =
      events ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
}

// Throughput of the raw event loop: one self-rescheduling process.
void BM_EventLoopDelay(benchmark::State& state) {
  std::uint64_t events = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    const int n = 10000;
    const std::uint64_t a0 = g_allocs;
    env.Spawn([](sim::Environment& e, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        co_await e.Delay(sim::Duration::Nanos(10));
      }
    }(env, n));
    env.Run();
    events += env.events_executed();
    allocs += g_allocs - a0;
  }
  ReportEventCounters(state, events, allocs);
}
BENCHMARK(BM_EventLoopDelay)->Unit(benchmark::kMillisecond);

// The ScheduleNow-dominated workload: many processes cooperatively yielding
// at the same virtual instant (the shape of kernel waves, condvar wakes, and
// gang resumes). With `procs` runnable events queued at once, this is the
// event queue's deep-queue regime.
void BM_EventLoopScheduleNow(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int yields = 256;
  std::uint64_t events = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    const std::uint64_t a0 = g_allocs;
    for (int p = 0; p < procs; ++p) {
      env.Spawn([](sim::Environment& e, int count) -> sim::Task {
        for (int i = 0; i < count; ++i) {
          co_await e.Delay(sim::Duration::Zero());
        }
      }(env, yields));
    }
    env.Run();
    events += env.events_executed();
    allocs += g_allocs - a0;
  }
  ReportEventCounters(state, events, allocs);
}
BENCHMARK(BM_EventLoopScheduleNow)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The timer regime: many processes sleeping staggered positive delays, so
// the future-event heap stays deep and every event is a heap pop + push.
void BM_EventLoopTimers(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int ticks = 256;
  std::uint64_t events = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    const std::uint64_t a0 = g_allocs;
    for (int p = 0; p < procs; ++p) {
      env.Spawn([](sim::Environment& e, int count, int stride) -> sim::Task {
        for (int i = 0; i < count; ++i) {
          co_await e.Delay(sim::Duration::Nanos(100 + stride));
        }
      }(env, ticks, p));
    }
    env.Run();
    events += env.events_executed();
    allocs += g_allocs - a0;
  }
  ReportEventCounters(state, events, allocs);
}
BENCHMARK(BM_EventLoopTimers)->Arg(1024)->Unit(benchmark::kMillisecond);

// Process churn: spawn/complete many short-lived processes (the coroutine
// frame + process-state allocation path).
void BM_SpawnChurn(benchmark::State& state) {
  std::uint64_t events = 0, allocs = 0;
  const int n = 4096;
  for (auto _ : state) {
    sim::Environment env;
    const std::uint64_t a0 = g_allocs;
    env.Spawn([](sim::Environment& e, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        e.Spawn([](sim::Environment& env2) -> sim::Task {
          co_await env2.Delay(sim::Duration::Nanos(5));
        }(e));
        co_await e.Delay(sim::Duration::Nanos(1));
      }
    }(env, n));
    env.Run();
    events += env.events_executed();
    allocs += g_allocs - a0;
  }
  ReportEventCounters(state, events, allocs);
}
BENCHMARK(BM_SpawnChurn)->Unit(benchmark::kMillisecond);

// Condition-variable ping-pong between two processes. The responder is
// spawned first and parks in Wait() before the driver's first notify (a
// notify with no waiter is lost — this is a condvar, not a semaphore).
void BM_CondVarPingPong(benchmark::State& state) {
  std::uint64_t events = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    sim::CondVar ping(env), pong(env);
    const int n = 5000;
    const std::uint64_t a0 = g_allocs;
    env.Spawn([](sim::CondVar& in, sim::CondVar& out, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        co_await in.Wait();
        out.NotifyOne();
      }
    }(ping, pong, n));
    env.Spawn([](sim::Environment& e, sim::CondVar& out, sim::CondVar& in,
                 int count) -> sim::Task {
      co_await e.Delay(sim::Duration::Zero());  // let the responder park
      for (int i = 0; i < count; ++i) {
        out.NotifyOne();
        co_await in.Wait();
      }
    }(env, ping, pong, n));
    env.Run();
    events += env.events_executed();
    allocs += g_allocs - a0;
  }
  ReportEventCounters(state, events, allocs);
}
BENCHMARK(BM_CondVarPingPong)->Unit(benchmark::kMillisecond);

// Attaches kernels/sec, waves/sec, and allocs/kernel counters to a
// GPU-path benchmark. These are the hot-path metrics the kernel freelist
// and wave coalescing are tuned against.
void ReportKernelCounters(benchmark::State& state, std::uint64_t kernels,
                          std::uint64_t waves, std::uint64_t allocs) {
  state.SetItemsProcessed(static_cast<std::int64_t>(kernels));
  state.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(kernels), benchmark::Counter::kIsRate);
  state.counters["waves/s"] = benchmark::Counter(static_cast<double>(waves),
                                                 benchmark::Counter::kIsRate);
  state.counters["allocs/kernel"] =
      kernels ? static_cast<double>(allocs) / static_cast<double>(kernels)
              : 0.0;
}

// GPU submission path: small kernels through one stream, with a live
// metrics sampler on the virtual clock, reported next to BM_GpuSubmitPath.
// perf-smoke gates neither against the other (the baseline file has no
// entry for this one): the sampled path's kernels/s ratio and its
// allocation-free kernel path are gated in-run by
// BM_GpuObservabilityOverhead below.
void BM_GpuSubmitPathObserved(benchmark::State& state) {
  std::uint64_t kernels = 0, waves = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    gpusim::Gpu gpu(env, gpusim::Gpu::Options{.seed = 1});
    const auto s = gpu.CreateStream();
    const int n = 5000;
    metrics::MetricRegistry registry;
    env.Spawn([](gpusim::Gpu& g, gpusim::StreamId st, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        co_await g.Submit(st, gpusim::KernelDesc{
                                  .job = 0,
                                  .thread_blocks = 64,
                                  .block_work = sim::Duration::Micros(5)});
      }
    }(gpu, s, n));
    // Sampler: pending-kernel depth and completed-kernel count every 100us
    // of virtual time until the workload drains (~250 samples, inside the
    // series' reserved capacity).
    env.Spawn([](sim::Environment& e, gpusim::Gpu& g,
                 metrics::MetricRegistry& reg, std::uint64_t target)
                  -> sim::Task {
      auto& pending = reg.GetSeries("olympian_gpu_pending_kernels");
      auto& done = reg.GetSeries("olympian_gpu_kernels_completed");
      while (g.kernels_completed() < target) {
        co_await e.Delay(sim::Duration::Micros(100));
        pending.Sample(e.Now(), static_cast<double>(g.pending_kernels()));
        done.Sample(e.Now(), static_cast<double>(g.kernels_completed()));
      }
    }(env, gpu, registry, static_cast<std::uint64_t>(n)));
    const std::uint64_t a0 = g_allocs;
    env.Run();
    allocs += g_allocs - a0;
    kernels += gpu.kernels_completed();
    waves += gpu.waves_dispatched();
    benchmark::DoNotOptimize(registry);
  }
  ReportKernelCounters(state, kernels, waves, allocs);
}
BENCHMARK(BM_GpuSubmitPathObserved)->Unit(benchmark::kMillisecond);

// GPU submission path: small kernels through one stream.
void BM_GpuSubmitPath(benchmark::State& state) {
  std::uint64_t kernels = 0, waves = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    gpusim::Gpu gpu(env, gpusim::Gpu::Options{.seed = 1});
    const auto s = gpu.CreateStream();
    const int n = 5000;
    env.Spawn([](gpusim::Gpu& g, gpusim::StreamId st, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        co_await g.Submit(st, gpusim::KernelDesc{
                                  .job = 0,
                                  .thread_blocks = 64,
                                  .block_work = sim::Duration::Micros(5)});
      }
    }(gpu, s, n));
    const std::uint64_t a0 = g_allocs;
    env.Run();
    allocs += g_allocs - a0;
    kernels += gpu.kernels_completed();
    waves += gpu.waves_dispatched();
  }
  ReportKernelCounters(state, kernels, waves, allocs);
}
BENCHMARK(BM_GpuSubmitPath)->Unit(benchmark::kMillisecond);

// Cross-stream arbitration: several backlogged streams of small kernels, so
// every kernel start goes through the weighted ready-stream pick.
void BM_GpuMultiStreamArbitration(benchmark::State& state) {
  const int streams = 8;
  std::uint64_t kernels = 0, waves = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    gpusim::Gpu gpu(env, gpusim::Gpu::Options{.seed = 7});
    const int per_stream = 1000;
    for (int i = 0; i < streams; ++i) {
      const auto s = gpu.CreateStream();
      env.Spawn(
          [](gpusim::Gpu& g, gpusim::StreamId st, int count) -> sim::Task {
            for (int k = 0; k < count; ++k) {
              co_await g.Submit(st,
                                gpusim::KernelDesc{
                                    .job = st,
                                    .thread_blocks = 16,
                                    .block_work = sim::Duration::Micros(3)});
            }
          }(gpu, s, per_stream));
    }
    const std::uint64_t a0 = g_allocs;
    env.Run();
    allocs += g_allocs - a0;
    kernels += gpu.kernels_completed();
    waves += gpu.waves_dispatched();
  }
  ReportKernelCounters(state, kernels, waves, allocs);
}
BENCHMARK(BM_GpuMultiStreamArbitration)->Unit(benchmark::kMillisecond);

// The wave-train regime: a long-running kernel pins most of the device
// while another stream pushes wide (but non-saturating) kernels through the
// remaining slots, so each kernel executes as a train of identical waves.
// This is the shape wave coalescing collapses into one timer event per
// train (pre-coalescing: one event per wave).
void BM_GpuWaveTrain(benchmark::State& state) {
  std::uint64_t kernels = 0, waves = 0, allocs = 0;
  for (auto _ : state) {
    sim::Environment env;
    gpusim::Gpu::Options o;
    o.seed = 3;
    gpusim::Gpu gpu(env, o);  // 224 slots (GTX-1080Ti)
    const auto backdrop = gpu.CreateStream();
    const auto train = gpu.CreateStream();
    const int n = 400;
    // Backdrop: 200 slots held for 60ms — one wave, far horizon.
    env.Spawn([](gpusim::Gpu& g, gpusim::StreamId st) -> sim::Task {
      co_await g.Submit(st, gpusim::KernelDesc{
                                .job = 1,
                                .thread_blocks = 200,
                                .block_work = sim::Duration::Millis(60)});
    }(gpu, backdrop));
    // Trains: 220 blocks through the free 24 slots -> 10 waves per kernel.
    env.Spawn([](gpusim::Gpu& g, gpusim::StreamId st, int count) -> sim::Task {
      for (int i = 0; i < count; ++i) {
        co_await g.Submit(st, gpusim::KernelDesc{
                                  .job = 2,
                                  .thread_blocks = 220,
                                  .block_work = sim::Duration::Micros(5)});
      }
    }(gpu, train, n));
    const std::uint64_t a0 = g_allocs;
    env.Run();
    allocs += g_allocs - a0;
    kernels += gpu.kernels_completed();
    waves += gpu.waves_dispatched();
  }
  ReportKernelCounters(state, kernels, waves, allocs);
}
BENCHMARK(BM_GpuWaveTrain)->Unit(benchmark::kMillisecond);

// --- paired observability-overhead gates ------------------------------------
// The perf-smoke CI bounds are tight (5-10%): comparing two separately-timed
// benchmarks can't resolve them on a busy host, where throughput drifts more
// than that between benchmarks. These run the plain and observed
// configuration back-to-back inside every iteration, so drift cancels, and
// export the observed/plain rate ratio directly as a counter for
// compare_bench.py --min-counter.

// GPU submission path, plain vs live-sampler: perf-smoke requires
// `kernels_ratio` >= 0.90 and `allocs/kernel` (observed half) <= 0.05.
void BM_GpuObservabilityOverhead(benchmark::State& state) {
  double plain_s = 0.0, obs_s = 0.0;
  std::uint64_t plain_kernels = 0, obs_kernels = 0, obs_allocs = 0;
  for (auto _ : state) {
    for (int observed = 0; observed < 2; ++observed) {
      const auto t0 = std::chrono::steady_clock::now();
      sim::Environment env;
      gpusim::Gpu gpu(env, gpusim::Gpu::Options{.seed = 1});
      const auto s = gpu.CreateStream();
      const int n = 5000;
      metrics::MetricRegistry registry;
      env.Spawn([](gpusim::Gpu& g, gpusim::StreamId st, int count) -> sim::Task {
        for (int i = 0; i < count; ++i) {
          co_await g.Submit(st, gpusim::KernelDesc{
                                    .job = 0,
                                    .thread_blocks = 64,
                                    .block_work = sim::Duration::Micros(5)});
        }
      }(gpu, s, n));
      if (observed != 0) {
        // 1ms virtual cadence: the sampling rate a serving deployment uses,
        // not one tick per handful of kernels — the gate bounds the cost of
        // observing the kernel path, not of swamping it.
        env.Spawn([](sim::Environment& e, gpusim::Gpu& g,
                     metrics::MetricRegistry& reg, std::uint64_t target)
                      -> sim::Task {
          auto& pending = reg.GetSeries("olympian_gpu_pending_kernels");
          while (g.kernels_completed() < target) {
            co_await e.Delay(sim::Duration::Millis(1));
            pending.Sample(e.Now(), static_cast<double>(g.pending_kernels()));
          }
        }(env, gpu, registry, static_cast<std::uint64_t>(n)));
      }
      const std::uint64_t a0 = g_allocs;
      env.Run();
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      if (observed != 0) {
        obs_s += secs;
        obs_kernels += gpu.kernels_completed();
        obs_allocs += g_allocs - a0;
      } else {
        plain_s += secs;
        plain_kernels += gpu.kernels_completed();
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(plain_kernels + obs_kernels));
  const double plain_rate =
      plain_s > 0 ? static_cast<double>(plain_kernels) / plain_s : 0.0;
  const double obs_rate =
      obs_s > 0 ? static_cast<double>(obs_kernels) / obs_s : 0.0;
  state.counters["kernels_ratio"] =
      plain_rate > 0 ? obs_rate / plain_rate : 0.0;
  state.counters["allocs/kernel"] =
      obs_kernels ? static_cast<double>(obs_allocs) /
                        static_cast<double>(obs_kernels)
                  : 0.0;
}
BENCHMARK(BM_GpuObservabilityOverhead)->Unit(benchmark::kMillisecond);

// Full serving experiment, plain vs tracer+registry+sampler: `events_ratio`
// must stay >= 0.95.
void BM_ServingObservabilityOverhead(benchmark::State& state) {
  double plain_s = 0.0, obs_s = 0.0;
  std::uint64_t plain_events = 0, obs_events = 0;
  const std::vector<serving::ClientSpec> workload{
      {.model = "resnet-152", .batch = 20, .num_batches = 5},
      {.model = "resnet-152", .batch = 20, .num_batches = 5}};
  for (auto _ : state) {
    for (int observed = 0; observed < 2; ++observed) {
      serving::ServerOptions opts;
      opts.seed = 3;
      metrics::Tracer tracer(20000);
      metrics::MetricRegistry registry;
      if (observed != 0) {
        opts.executor.tracer = &tracer;
        opts.observability.registry = &registry;
        opts.observability.sample_interval = sim::Duration::Millis(1);
      }
      const auto t0 = std::chrono::steady_clock::now();
      serving::Experiment exp(opts);
      auto results = exp.Run(workload);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      benchmark::DoNotOptimize(results);
      if (observed != 0) {
        obs_s += secs;
        obs_events += exp.env().events_executed();
      } else {
        plain_s += secs;
        plain_events += exp.env().events_executed();
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(plain_events + obs_events));
  const double plain_rate =
      plain_s > 0 ? static_cast<double>(plain_events) / plain_s : 0.0;
  const double obs_rate =
      obs_s > 0 ? static_cast<double>(obs_events) / obs_s : 0.0;
  state.counters["events_ratio"] =
      plain_rate > 0 ? obs_rate / plain_rate : 0.0;
}
BENCHMARK(BM_ServingObservabilityOverhead)->Unit(benchmark::kMillisecond);

// --- sharded cluster engine -------------------------------------------------
// The same 16-server chaos workload executed single-threaded (shards=1) and
// with a 4-shard partition, back-to-back inside every iteration so host
// drift cancels. Exports:
//   speedup           wall-clock ratio (shards=1 time / shards=4 time)
//   events/s          sharded-run event throughput (wall clock)
//   allocs/event      sharded-run allocations per executed event
//   identical         1 iff the sharded trajectory matches shards=1
//                     bit-for-bit
// The perf-smoke gate requires speedup >= 1.8 and identical == 1 on a
// multi-core runner; on a single hardware thread the speedup degrades to
// ~1x (the barrier costs stay) and that gate is not meaningful.
void BM_ShardedClusterThroughput(benchmark::State& state) {
  struct ClusterOut {
    double secs = 0.0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::vector<serving::ClusterClientResult> clients;
  };
  auto run = [](std::size_t shards) {
    serving::ClusterOptions opts;
    opts.num_servers = 16;
    opts.server.num_gpus = 1;
    opts.server.pool_threads = 100;
    opts.seed = 17;
    opts.shards = shards;
    const auto at = [](double ms) {
      return sim::TimePoint() + sim::Duration::Millis(ms);
    };
    opts.faults.Crash(at(150), sim::Duration::Millis(400), /*server=*/0);
    opts.faults.Crash(at(900), sim::Duration::Millis(300), /*server=*/7);
    opts.faults.Partition(at(450), sim::Duration::Millis(350), /*server=*/12,
                          fault::PartitionDirection::kToServer);
    serving::ClusterClientSpec c;
    c.request.model = "googlenet";
    c.request.batch = 10;
    c.request.num_batches = 6;
    c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    c.arrivals.rate_rps = 120.0;
    ClusterOut out;
    const std::uint64_t a0 = g_allocs;
    const auto t0 = std::chrono::steady_clock::now();
    serving::Cluster cluster(opts);
    out.clients =
        cluster.Run(std::vector<serving::ClusterClientSpec>(32, c));
    out.secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    out.allocs = g_allocs - a0;
    out.events = cluster.engine().events_executed();
    return out;
  };
  auto same_trajectory = [](const ClusterOut& a, const ClusterOut& b) {
    if (a.events != b.events || a.clients.size() != b.clients.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.clients.size(); ++i) {
      if (a.clients[i].finish_time != b.clients[i].finish_time ||
          a.clients[i].request_latency_ms != b.clients[i].request_latency_ms ||
          a.clients[i].request_status != b.clients[i].request_status) {
        return false;
      }
    }
    return true;
  };

  double seq_s = 0.0, par_s = 0.0;
  std::uint64_t par_events = 0, par_allocs = 0;
  bool identical = true;
  for (auto _ : state) {
    const ClusterOut seq = run(1);
    const ClusterOut par = run(4);
    seq_s += seq.secs;
    par_s += par.secs;
    par_events += par.events;
    par_allocs += par.allocs;
    identical = identical && same_trajectory(seq, par);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(par_events));
  state.counters["speedup"] = par_s > 0 ? seq_s / par_s : 0.0;
  state.counters["events/s"] =
      par_s > 0 ? static_cast<double>(par_events) / par_s : 0.0;
  state.counters["allocs/event"] =
      par_events ? static_cast<double>(par_allocs) /
                       static_cast<double>(par_events)
                 : 0.0;
  state.counters["identical"] = identical ? 1.0 : 0.0;
}
// One full chaos run per engine config per iteration (~seconds): the default
// min-time keeps this at a single iteration, and the paired legs make that
// one sample stable enough for the perf-smoke gate.
BENCHMARK(BM_ShardedClusterThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
