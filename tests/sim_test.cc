// Unit tests for the discrete-event simulation kernel (sim/).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/environment.h"
#include "sim/random.h"
#include "sim/shard.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace olympian::sim {
namespace {

using ::testing::Test;

TEST(DurationTest, ArithmeticAndConversions) {
  EXPECT_EQ(Duration::Micros(3).nanos(), 3000);
  EXPECT_EQ(Duration::Millis(2).nanos(), 2000000);
  EXPECT_EQ(Duration::Seconds(1.5).nanos(), 1500000000);
  EXPECT_EQ((Duration::Micros(5) + Duration::Micros(7)).micros(), 12.0);
  EXPECT_EQ((Duration::Millis(5) - Duration::Millis(7)).millis(), -2.0);
  EXPECT_EQ((Duration::Micros(10) * 2.5).micros(), 25.0);
  EXPECT_DOUBLE_EQ(Duration::Millis(1).Ratio(Duration::Millis(4)), 0.25);
  EXPECT_LT(Duration::Micros(1), Duration::Millis(1));
}

TEST(DurationTest, TimePointArithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Millis(5);
  EXPECT_EQ((t1 - t0).millis(), 5.0);
  EXPECT_EQ((t1 - Duration::Millis(5)), t0);
  EXPECT_GT(t1, t0);
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(ToString(Duration::Nanos(500)), "500ns");
  EXPECT_EQ(ToString(Duration::Micros(12)), "12us");
  EXPECT_EQ(ToString(Duration::Millis(3)), "3ms");
  EXPECT_EQ(ToString(Duration::Seconds(2.0)), "2s");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NormalMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, JitterBounded) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    Duration d = r.Jitter(Duration::Micros(100), 0.2);
    EXPECT_GE(d, Duration::Micros(80));
    EXPECT_LE(d, Duration::Micros(120));
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(42);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

// --- Environment / Task basics ---

TEST(EnvironmentTest, DelayAdvancesVirtualTime) {
  Environment env;
  TimePoint seen;
  env.Spawn([](Environment& e, TimePoint& out) -> Task {
    co_await e.Delay(Duration::Millis(10));
    out = e.Now();
  }(env, seen));
  env.Run();
  EXPECT_EQ(seen, TimePoint() + Duration::Millis(10));
  EXPECT_EQ(env.live_process_count(), 0u);
}

TEST(EnvironmentTest, EventsAtSameTimeRunFifo) {
  Environment env;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    env.Spawn([](Environment& e, std::vector<int>& ord, int id) -> Task {
      co_await e.Delay(Duration::Millis(1));
      ord.push_back(id);
    }(env, order, i));
  }
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EnvironmentTest, InterleavingFollowsTimestamps) {
  Environment env;
  std::vector<std::string> log;
  env.Spawn([](Environment& e, std::vector<std::string>& lg) -> Task {
    co_await e.Delay(Duration::Millis(2));
    lg.push_back("a2");
    co_await e.Delay(Duration::Millis(2));
    lg.push_back("a4");
  }(env, log));
  env.Spawn([](Environment& e, std::vector<std::string>& lg) -> Task {
    co_await e.Delay(Duration::Millis(1));
    lg.push_back("b1");
    co_await e.Delay(Duration::Millis(2));
    lg.push_back("b3");
  }(env, log));
  env.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"b1", "a2", "b3", "a4"}));
}

TEST(EnvironmentTest, NestedTaskAwaitRunsInline) {
  Environment env;
  std::vector<int> log;
  auto child = [](Environment& e, std::vector<int>& lg) -> Task {
    lg.push_back(1);
    co_await e.Delay(Duration::Micros(5));
    lg.push_back(2);
  };
  env.Spawn([](Environment& e, std::vector<int>& lg, auto& mk) -> Task {
    lg.push_back(0);
    co_await mk(e, lg);
    lg.push_back(3);
  }(env, log, child));
  env.Run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Micros(5));
}

TEST(EnvironmentTest, JoinWaitsForProcess) {
  Environment env;
  TimePoint join_time;
  Process p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(7));
  }(env));
  env.Spawn([](Environment& e, Process proc, TimePoint& out) -> Task {
    co_await proc.Join();
    out = e.Now();
  }(env, p, join_time));
  env.Run();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(join_time, TimePoint() + Duration::Millis(7));
}

TEST(EnvironmentTest, JoinOnCompletedProcessReturnsImmediately) {
  Environment env;
  Process p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(1));
  }(env));
  bool joined = false;
  env.Spawn([](Environment& e, Process proc, bool& out) -> Task {
    co_await e.Delay(Duration::Millis(5));
    co_await proc.Join();
    out = true;
  }(env, p, joined));
  env.Run();
  EXPECT_TRUE(joined);
}

TEST(EnvironmentTest, UncaughtProcessExceptionSurfacesFromRun) {
  Environment env;
  env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(env));
  EXPECT_THROW(env.Run(), std::runtime_error);
}

TEST(EnvironmentTest, JoinRethrowsProcessException) {
  Environment env;
  Process p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(env));
  bool caught = false;
  env.Spawn([](Process proc, bool& out) -> Task {
    try {
      co_await proc.Join();
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(p, caught));
  env.Run();
  EXPECT_TRUE(caught);
}

TEST(EnvironmentTest, RunUntilStopsAtDeadline) {
  Environment env;
  int ticks = 0;
  env.Spawn([](Environment& e, int& t) -> Task {
    for (int i = 0; i < 10; ++i) {
      co_await e.Delay(Duration::Millis(1));
      ++t;
    }
  }(env, ticks));
  bool drained = env.RunUntil(TimePoint() + Duration::Millis(3));
  EXPECT_FALSE(drained);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(3));
  env.Run();
  EXPECT_EQ(ticks, 10);
}

TEST(EnvironmentTest, RunUntilAdvancesClockToDeadlineWhenDrained) {
  Environment env;
  env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(2));
  }(env));
  // The queue drains at t=2ms, well before the deadline; the clock must
  // still land exactly on the deadline (same as the non-drained branch).
  bool drained = env.RunUntil(TimePoint() + Duration::Millis(10));
  EXPECT_TRUE(drained);
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(10));
  // A later window continues from there.
  drained = env.RunUntil(TimePoint() + Duration::Millis(20));
  EXPECT_TRUE(drained);
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(20));
}

TEST(EnvironmentTest, RunUntilDrainedClockNeverMovesBackward) {
  Environment env;
  env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(5));
  }(env));
  env.Run();
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(5));
  // Draining an empty queue with an already-passed deadline is a no-op on
  // the clock.
  EXPECT_TRUE(env.RunUntil(TimePoint() + Duration::Millis(3)));
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(5));
}

// The exception-reporting contract documented on Process::Join: an error
// delivered to joiners registered at completion time is considered handled,
// even if every joiner swallows it — Run() must not rethrow it.
TEST(EnvironmentTest, JoinedProcessExceptionIsNotReportedFromRun) {
  Environment env;
  Process p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(env));
  bool caught = false;
  env.Spawn([](Process proc, bool& out) -> Task {
    try {
      co_await proc.Join();
    } catch (const std::runtime_error&) {
      out = true;  // swallow: the error still counts as handled
    }
  }(p, caught));
  EXPECT_NO_THROW(env.Run());
  EXPECT_TRUE(caught);
}

// ...whereas with no joiner registered at completion, the error surfaces
// from Run(), and a late Join() still rethrows the same exception.
TEST(EnvironmentTest, UnjoinedExceptionSurfacesFromRunAndLateJoin) {
  Environment env;
  Process p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(env));
  EXPECT_THROW(env.Run(), std::runtime_error);
  bool caught = false;
  env.Spawn([](Process proc, bool& out) -> Task {
    try {
      co_await proc.Join();  // already done: rethrows on the await_ready path
    } catch (const std::runtime_error&) {
      out = true;
    }
  }(p, caught));
  env.Run();
  EXPECT_TRUE(caught);
}

TEST(EnvironmentTest, TeardownWithLiveProcessesDoesNotLeak) {
  // A process suspended forever is destroyed cleanly with the environment
  // (checked for leaks/UB under ASan in CI; here we just exercise it).
  auto env = std::make_unique<Environment>();
  CondVar cv(*env);
  env->Spawn([](CondVar& c) -> Task { co_await c.Wait(); }(cv));
  env->RunUntil(TimePoint() + Duration::Millis(1));
  EXPECT_EQ(env->live_process_count(), 1u);
  env.reset();  // must not crash
}

TEST(EnvironmentTest, ZeroDelayYieldsThroughQueue) {
  Environment env;
  std::vector<int> log;
  env.Spawn([](Environment& e, std::vector<int>& lg) -> Task {
    lg.push_back(0);
    co_await e.Delay(Duration::Zero());
    lg.push_back(2);
  }(env, log));
  env.Spawn([](std::vector<int>& lg) -> Task {
    lg.push_back(1);
    co_return;
  }(log));
  env.Run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

// --- Synchronization primitives ---

TEST(CondVarTest, NotifyOneWakesInFifoOrder) {
  Environment env;
  CondVar cv(env);
  std::vector<int> woke;
  for (int i = 0; i < 3; ++i) {
    env.Spawn([](CondVar& c, std::vector<int>& w, int id) -> Task {
      co_await c.Wait();
      w.push_back(id);
    }(cv, woke, i));
  }
  env.Spawn([](Environment& e, CondVar& c) -> Task {
    co_await e.Delay(Duration::Millis(1));
    c.NotifyOne();
    co_await e.Delay(Duration::Millis(1));
    c.NotifyOne();
    co_await e.Delay(Duration::Millis(1));
    c.NotifyOne();
  }(env, cv));
  env.Run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2}));
}

TEST(CondVarTest, NotifyAllWakesEveryone) {
  Environment env;
  CondVar cv(env);
  int woke = 0;
  for (int i = 0; i < 10; ++i) {
    env.Spawn([](CondVar& c, int& w) -> Task {
      co_await c.Wait();
      ++w;
    }(cv, woke));
  }
  env.Spawn([](Environment& e, CondVar& c) -> Task {
    co_await e.Delay(Duration::Millis(1));
    c.NotifyAll();
  }(env, cv));
  env.Run();
  EXPECT_EQ(woke, 10);
}

Task RecordWake(CondVar& cv, std::vector<int>& woke, int id) {
  co_await cv.Wait();
  woke.push_back(id);
}

TEST(CondVarTest, FifoAcrossGrowthWithWrappedHead) {
  // 12 waiters, 9 woken, then 40 more: the wakes move the waiter queue's
  // head off its first slot, so the new waiters wrap around the buffer and
  // then grow it while the head is wrapped. Wake order stays FIFO.
  Environment env;
  CondVar cv(env);
  std::vector<int> woke;
  for (int i = 0; i < 12; ++i) env.Spawn(RecordWake(cv, woke, i));
  env.Spawn([](Environment& e, CondVar& c, std::vector<int>& w) -> Task {
    co_await e.Delay(Duration::Millis(1));
    for (int i = 0; i < 9; ++i) c.NotifyOne();
    for (int i = 12; i < 52; ++i) e.Spawn(RecordWake(c, w, i));
    co_await e.Delay(Duration::Millis(1));
    EXPECT_EQ(c.waiter_count(), 43u);
    for (int i = 0; i < 43; ++i) c.NotifyOne();
  }(env, cv, woke));
  env.Run();
  std::vector<int> want(52);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(woke, want);
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(CondVarTest, NotifyWithNoWaitersIsNoop) {
  Environment env;
  CondVar cv(env);
  cv.NotifyOne();
  cv.NotifyAll();
  env.Run();
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(ChannelTest, PushPopOrdering) {
  Environment env;
  Channel<int> ch(env);
  std::vector<int> got;
  env.Spawn([](Channel<int>& c, std::vector<int>& g) -> Task {
    for (;;) {
      std::optional<int> v;
      co_await c.Pop(v);
      if (!v) break;
      g.push_back(*v);
    }
  }(ch, got));
  env.Spawn([](Environment& e, Channel<int>& c) -> Task {
    for (int i = 0; i < 5; ++i) {
      c.Push(i);
      co_await e.Delay(Duration::Micros(1));
    }
    c.Close();
  }(env, ch));
  env.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, CloseDrainsBeforeNullopt) {
  Environment env;
  Channel<int> ch(env);
  ch.Push(1);
  ch.Push(2);
  ch.Close();
  std::vector<int> got;
  bool saw_end = false;
  env.Spawn([](Channel<int>& c, std::vector<int>& g, bool& end) -> Task {
    for (;;) {
      std::optional<int> v;
      co_await c.Pop(v);
      if (!v) {
        end = true;
        break;
      }
      g.push_back(*v);
    }
  }(ch, got, saw_end));
  env.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(ChannelTest, FifoAcrossGrowthWithWrappedHead) {
  // Push 12, pop 9, push 40: the pops move the item queue's head off its
  // first slot, so the second batch wraps around the buffer and then grows
  // it while the head is wrapped. Items still come out in push order.
  Environment env;
  Channel<int> ch(env);
  for (int i = 0; i < 12; ++i) ch.Push(i);
  std::vector<int> got;
  env.Spawn([](Channel<int>& c, std::vector<int>& g) -> Task {
    for (int i = 0; i < 9; ++i) {
      std::optional<int> v;
      co_await c.Pop(v);
      g.push_back(*v);
    }
    for (int i = 12; i < 52; ++i) c.Push(i);
    EXPECT_EQ(c.size(), 43u);
    c.Close();
    for (;;) {
      std::optional<int> v;
      co_await c.Pop(v);
      if (!v) break;
      g.push_back(*v);
    }
  }(ch, got));
  env.Run();
  std::vector<int> want(52);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
}

TEST(ChannelTest, MultipleConsumersShareWork) {
  Environment env;
  Channel<int> ch(env);
  std::vector<int> counts(3, 0);
  for (int w = 0; w < 3; ++w) {
    env.Spawn([](Environment& e, Channel<int>& c, int& count) -> Task {
      for (;;) {
        std::optional<int> v;
        co_await c.Pop(v);
        if (!v) break;
        ++count;
        co_await e.Delay(Duration::Millis(1));  // simulate work
      }
    }(env, ch, counts[w]));
  }
  env.Spawn([](Environment& e, Channel<int>& c) -> Task {
    for (int i = 0; i < 9; ++i) c.Push(i);
    co_await e.Delay(Duration::Millis(10));
    c.Close();
  }(env, ch));
  env.Run();
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 9);
  for (int c : counts) EXPECT_GT(c, 0);  // work actually spread
}

// Property: with identical seeds, an entire stochastic simulation replays
// identically (determinism is the foundation for every experiment).
class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<std::int64_t> RunStochasticSim(std::uint64_t seed) {
  Environment env;
  Rng rng(seed);
  Channel<int> ch(env);
  std::vector<std::int64_t> trace;
  for (int w = 0; w < 4; ++w) {
    env.Spawn([](Environment& e, Channel<int>& c, Rng& r,
                 std::vector<std::int64_t>& tr) -> Task {
      for (;;) {
        std::optional<int> v;
        co_await c.Pop(v);
        if (!v) break;
        co_await e.Delay(Duration::Nanos(r.UniformInt(100, 5000)));
        tr.push_back(e.Now().nanos() * 1000 + *v);
      }
    }(env, ch, rng, trace));
  }
  env.Spawn([](Environment& e, Channel<int>& c, Rng& r) -> Task {
    for (int i = 0; i < 50; ++i) {
      c.Push(i);
      co_await e.Delay(Duration::Nanos(r.UniformInt(10, 2000)));
    }
    c.Close();
  }(env, ch, rng));
  env.Run();
  return trace;
}

TEST_P(DeterminismTest, SameSeedSameTrace) {
  auto a = RunStochasticSim(GetParam());
  auto b = RunStochasticSim(GetParam());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 50u);
}

TEST_P(DeterminismTest, DifferentSeedDifferentTrace) {
  auto a = RunStochasticSim(GetParam());
  auto b = RunStochasticSim(GetParam() + 1);
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// --- callback timers -------------------------------------------------------

struct CallbackRecorder {
  std::vector<std::pair<std::uint64_t, std::int64_t>> fired;  // (arg, t_ns)
  Environment* env = nullptr;
  static void Fire(void* ctx, std::uint64_t arg) {
    auto* self = static_cast<CallbackRecorder*>(ctx);
    self->fired.emplace_back(arg, self->env->Now().nanos());
  }
};

TEST(EnvironmentTest, CallbackTimersFireInOrder) {
  Environment env;
  CallbackRecorder rec;
  rec.env = &env;
  env.ScheduleCallbackAt(TimePoint() + Duration::Micros(30),
                         &CallbackRecorder::Fire, &rec, 3);
  env.ScheduleCallbackAt(TimePoint() + Duration::Micros(10),
                         &CallbackRecorder::Fire, &rec, 1);
  env.ScheduleCallbackAt(TimePoint() + Duration::Micros(20),
                         &CallbackRecorder::Fire, &rec, 2);
  env.Run();
  ASSERT_EQ(rec.fired.size(), 3u);
  EXPECT_EQ(rec.fired[0], (std::pair<std::uint64_t, std::int64_t>{1, 10000}));
  EXPECT_EQ(rec.fired[1], (std::pair<std::uint64_t, std::int64_t>{2, 20000}));
  EXPECT_EQ(rec.fired[2], (std::pair<std::uint64_t, std::int64_t>{3, 30000}));
}

TEST(EnvironmentTest, CallbacksInterleaveWithCoroutines) {
  Environment env;
  CallbackRecorder rec;
  rec.env = &env;
  env.ScheduleCallbackAt(TimePoint() + Duration::Micros(15),
                         &CallbackRecorder::Fire, &rec, 7);
  bool saw_callback_before_resume = false;
  env.Spawn([](Environment& e, CallbackRecorder& r, bool& out) -> Task {
    co_await e.Delay(Duration::Micros(20));
    out = r.fired.size() == 1;
  }(env, rec, saw_callback_before_resume));
  env.Run();
  EXPECT_TRUE(saw_callback_before_resume);
}

TEST(EnvironmentTest, EventsExecutedCounts) {
  Environment env;
  env.Spawn([](Environment& e) -> Task {
    for (int i = 0; i < 5; ++i) co_await e.Delay(Duration::Micros(1));
  }(env));
  env.Run();
  // 1 spawn resume + 5 delay resumes.
  EXPECT_EQ(env.events_executed(), 6u);
}

TEST(EnvironmentTest, ProcessNamesPreserved) {
  Environment env;
  auto p = env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Micros(1));
  }(env), "my-process");
  EXPECT_EQ(p.name(), "my-process");
  env.Run();
  EXPECT_TRUE(p.done());
}

TEST(EnvironmentTest, RunAfterRunUntilContinuesCleanly) {
  Environment env;
  CondVar cv(env);
  int stage = 0;
  env.Spawn([](Environment& e, CondVar& c, int& s) -> Task {
    s = 1;
    co_await c.Wait();
    s = 2;
    co_await e.Delay(Duration::Millis(1));
    s = 3;
  }(env, cv, stage));
  env.RunUntil(TimePoint() + Duration::Micros(10));
  EXPECT_EQ(stage, 1);
  cv.NotifyAll();
  env.Run();
  EXPECT_EQ(stage, 3);
}

TEST(EnvironmentTest, NextEventTimeTracksQueueHead) {
  Environment env;
  EXPECT_EQ(env.NextEventTime(), Environment::Never());
  env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(5));
  }(env));
  // The spawn resume is queued at the current instant.
  EXPECT_EQ(env.NextEventTime(), TimePoint());
  env.RunUntil(TimePoint() + Duration::Millis(1));
  EXPECT_EQ(env.NextEventTime(), TimePoint() + Duration::Millis(5));
  env.Run();
  EXPECT_EQ(env.NextEventTime(), Environment::Never());
}

TEST(EnvironmentTest, AdvanceToMovesClockButRefusesToSkipEvents) {
  Environment env;
  env.AdvanceTo(TimePoint() + Duration::Millis(2));
  EXPECT_EQ(env.Now(), TimePoint() + Duration::Millis(2));
  // Backward is illegal.
  EXPECT_THROW(env.AdvanceTo(TimePoint() + Duration::Millis(1)),
               std::logic_error);
  // Skipping over a pending event is illegal.
  env.Spawn([](Environment& e) -> Task {
    co_await e.Delay(Duration::Millis(5));
  }(env));
  EXPECT_THROW(env.AdvanceTo(TimePoint() + Duration::Millis(3)),
               std::logic_error);
}

TEST(EnvironmentTest, NestedRunUntilFromEventHandlerThrows) {
  // The RunUntil contract: only non-coroutine code drives the loop, one
  // window at a time — shard loops own their deadline windows. Re-entering
  // the dispatch loop from inside an event handler must throw.
  Environment env;
  bool threw = false;
  env.Spawn([](Environment& e, bool& t) -> Task {
    co_await e.Delay(Duration::Micros(1));
    try {
      e.RunUntil(TimePoint() + Duration::Millis(1));
    } catch (const std::logic_error&) {
      t = true;
    }
    co_return;
  }(env, threw));
  env.Run();
  EXPECT_TRUE(threw);
}

// ---------------------------------------------------------------------------
// ShardedEngine unit tests. The cluster-level bit-identity goldens live in
// golden_determinism_test; these pin the engine mechanics in isolation.

TEST(ShardedEngineTest, SingleShardIsThePlainEnvironment) {
  ShardedEngine engine(1);
  EXPECT_FALSE(engine.sharded());
  EXPECT_EQ(&engine.hub(), &engine.shard_env(0));
  int done = 0;
  engine.hub().Spawn([](Environment& e, int& d) -> Task {
    co_await e.Delay(Duration::Millis(1));
    ++d;
  }(engine.hub(), done));
  engine.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(engine.sync_windows(), 0u);
  EXPECT_EQ(engine.boundary_events(), 0u);
}

TEST(ShardedEngineTest, ShardedRequiresPositiveLookahead) {
  EXPECT_THROW(ShardedEngine(2, Duration::Zero()), std::logic_error);
}

TEST(ShardedEngineTest, HopsRoundTripWithExactLatency) {
  ShardedEngine engine(2, Duration::Micros(100));
  std::vector<std::int64_t> stamps;
  engine.hub().Spawn(
      [](ShardedEngine& eng, std::vector<std::int64_t>& out) -> Task {
        out.push_back(eng.hub().Now().nanos());
        co_await eng.HopToShard(1, Duration::Micros(100));
        out.push_back(eng.shard_env(1).Now().nanos());
        co_await eng.shard_env(1).Delay(Duration::Millis(2));
        co_await eng.HopToHub(1, Duration::Micros(150));
        out.push_back(eng.hub().Now().nanos());
      }(engine, stamps));
  engine.Run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0);
  EXPECT_EQ(stamps[1], 100000);            // arrival after the forward hop
  EXPECT_EQ(stamps[2], 100000 + 2000000 + 150000);
  EXPECT_GT(engine.boundary_events(), 0u);
}

TEST(ShardedEngineTest, HopLatencyBelowLookaheadThrows) {
  ShardedEngine engine(2, Duration::Micros(100));
  engine.hub().Spawn([](ShardedEngine& eng) -> Task {
    co_await eng.HopToShard(0, Duration::Micros(50));  // < lookahead
  }(engine));
  EXPECT_THROW(engine.Run(), std::logic_error);
}

TEST(ShardedEngineTest, BoundaryMergeOrderIsTimeThenShardThenSeq) {
  // Two shards send same-instant messages to the hub; the hub must observe
  // them in (time, shard, seq) order no matter the thread interleaving.
  ShardedEngine engine(2, Duration::Micros(10));
  std::vector<int> order;
  for (int shard = 1; shard >= 0; --shard) {  // spawn in REVERSE shard order
    for (int i = 0; i < 2; ++i) {
      engine.shard_env(static_cast<std::size_t>(shard))
          .Spawn([](ShardedEngine& eng, int sh, int idx,
                    std::vector<int>& out) -> Task {
            co_await eng.shard_env(static_cast<std::size_t>(sh))
                .Delay(Duration::Millis(1));
            co_await eng.HopToHub(static_cast<std::size_t>(sh),
                                  Duration::Micros(10));
            out.push_back(sh * 10 + idx);
          }(engine, shard, i, order));
    }
  }
  engine.Run();
  // All four arrive at the same hub instant: shard 0 before shard 1, and
  // within a shard, send (seq) order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

}  // namespace
}  // namespace olympian::sim
