// Tests for the failover subsystem: health monitoring, health-aware
// placement, device failover with re-admission, and the recovery pipeline.
//
// The acceptance scenario from the issue: a device reset mid-run on GPU 0
// of a two-GPU server. With failover enabled every batch completes (zero
// kFailed — victims re-admit to the surviving replica without touching
// their retry budget); with it disabled GPU 0's client loses requests.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "serving/health.h"
#include "serving/placer.h"
#include "serving/server.h"
#include "sim/environment.h"

namespace olympian {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint At(double ms) { return TimePoint() + Duration::Millis(ms); }

serving::ClientSpec Client(const std::string& model, int batches = 8) {
  return serving::ClientSpec{.model = model, .batch = 20,
                             .num_batches = batches};
}

// Two clients with distinct models, one homed per device: a failover from
// GPU 0 must lazily instantiate the victim's model on GPU 1.
std::vector<serving::ClientSpec> TwoGpuWorkload(int batches = 8) {
  return {Client("resnet-152", batches), Client("googlenet", batches)};
}

serving::ServerOptions TwoGpuOptions(bool failover) {
  serving::ServerOptions opts;
  opts.num_gpus = 2;
  opts.failover.enabled = failover;
  return opts;
}

int CountAll(const std::vector<serving::ClientResult>& results,
             serving::RequestStatus s) {
  int n = 0;
  for (const auto& r : results) n += r.CountStatus(s);
  return n;
}

int BatchesAll(const std::vector<serving::ClientResult>& results) {
  int n = 0;
  for (const auto& r : results) n += r.batches_completed;
  return n;
}

// ---------------------------------------------------------------------------
// Acceptance: device loss mid-run

TEST(FailoverTest, DeviceLossFailsOverToSurvivingReplica) {
  // GPU 0 dies at t=600ms and stays down for the rest of the workload.
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  opts.faults.DeviceReset(At(600), Duration::Seconds(100), /*gpu_index=*/0);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload());

  // Every batch completes; no request is lost to the dead device.
  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 8) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  const auto& c = exp.counters();
  EXPECT_EQ(c.device_down_events, 1u);
  EXPECT_GE(c.failover_cancellations, 1u);  // in-flight victim cancelled
  EXPECT_GE(c.requests_failed_over, 1u);    // ...and re-admitted
  EXPECT_EQ(c.requests_failed, 0u);
  // The victim's model was not resident on GPU 1: exactly one lazy
  // replica instantiation (reload + warm-up paid on the virtual clock).
  EXPECT_EQ(c.replica_instantiations, 1u);
  ASSERT_NE(exp.placer(), nullptr);
  EXPECT_EQ(exp.placer()->replicas_loaded(), 1u);
  // Failover cancellations must not consume retry budget.
  EXPECT_EQ(c.retries, 0u);

  // The down transition is in the health log. The outage outlives the
  // workload: every client finished long before the 100s recovery (which
  // the final event-queue drain still runs to completion).
  ASSERT_NE(exp.health(), nullptr);
  ASSERT_EQ(exp.health()->outages().size(), 1u);
  EXPECT_EQ(exp.health()->outages()[0].target, 0u);
  EXPECT_EQ(exp.health()->health(1), serving::Health::kHealthy);
  for (const auto& r : results) {
    EXPECT_LT(r.finish_time, Duration::Seconds(100)) << r.name;
  }
}

TEST(FailoverTest, DisabledFailoverLosesRequestsOnDeadDevice) {
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/false);
  opts.faults.DeviceReset(At(600), Duration::Seconds(100), /*gpu_index=*/0);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload());

  // Client 0 is pinned to the dead device: its remaining requests exhaust
  // the retry budget and fail. Client 1 is untouched.
  EXPECT_LT(results[0].batches_completed, 8);
  EXPECT_GT(results[0].CountStatus(serving::RequestStatus::kFailed), 0);
  EXPECT_EQ(results[1].batches_completed, 8);
  EXPECT_EQ(results[1].CountStatus(serving::RequestStatus::kFailed), 0);
  EXPECT_EQ(exp.health(), nullptr);  // subsystem not constructed
}

// ---------------------------------------------------------------------------
// Recovery and readmission

TEST(FailoverTest, RecoveryReadmitsDeviceAfterOutage) {
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  opts.faults.DeviceReset(At(600), Duration::Millis(250), /*gpu_index=*/0);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload(/*batches=*/10));

  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 10) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  ASSERT_NE(exp.health(), nullptr);
  EXPECT_EQ(exp.counters().device_down_events, 1u);
  ASSERT_EQ(exp.health()->outages().size(), 1u);
  EXPECT_EQ(exp.health()->outages()[0].target, 0u);
  EXPECT_EQ(exp.counters().device_readmissions, 1u);
  // MTTR covers the outage plus the recovery pipeline (driver re-init,
  // parameter reload, warm-up): strictly more than the raw outage.
  EXPECT_GT(exp.health()->Mttr(0), Duration::Millis(250));
  EXPECT_EQ(exp.health()->health(0), serving::Health::kHealthy);

  // Readmission is observable in the transition log: kDown -> kRecovering
  // followed by kRecovering -> kHealthy for GPU 0.
  bool recovering = false, readmitted = false;
  for (const auto& t : exp.health()->transitions()) {
    if (t.target != 0) continue;
    if (t.from == serving::Health::kDown &&
        t.to == serving::Health::kRecovering) {
      recovering = true;
    }
    if (recovering && t.from == serving::Health::kRecovering &&
        t.to == serving::Health::kHealthy) {
      readmitted = true;
    }
  }
  EXPECT_TRUE(recovering);
  EXPECT_TRUE(readmitted);
}

// The recovering edge, device level: heartbeat probes land while the device
// is in kRecovering (the driver is back up, so they succeed), but none may
// readmit it early — only the recovery pipeline's warm-up hand-shake does,
// and the transition log records kRecovering -> kHealthy exactly once.
TEST(FailoverTest, ProbeDuringDeviceRecoveringDoesNotReadmitEarly) {
  sim::Environment env;
  gpusim::Gpu gpu(env, gpusim::Gpu::Options{});
  serving::HealthMonitorOptions hopts;
  // Heartbeats every 5 ms. Recovery runs on the fixed pipeline: 20ms
  // re-init, 2 warm-up probes, 5ms. No serving layer above the monitor:
  // nothing in flight to cancel and no parameters resident, so recovery
  // charges no reload.
  struct NoServingLayer final : serving::HealthObserver {
    void OnDeviceDown(std::size_t) override {}
    void OnDeviceReadmitted(std::size_t) override {}
    Duration ParamsReloadCost(std::size_t) const override {
      return Duration::Zero();
    }
  } observer;
  metrics::ServingCounters counters;
  serving::HealthMonitor mon(env, {&gpu}, hopts, observer, counters);
  mon.Start();

  env.RunUntil(At(2.5));
  ASSERT_EQ(mon.health(0), serving::Health::kHealthy);
  gpu.Reset(Duration::Millis(20));  // outage [2.5, 22.5)
  ASSERT_EQ(mon.health(0), serving::Health::kDown);

  // Outage ends at 22.5 but the driver re-init runs until 42.5: probes in
  // between succeed at the device yet the monitor must stay kDown.
  env.RunUntil(At(30));
  EXPECT_EQ(mon.health(0), serving::Health::kDown);
  EXPECT_FALSE(mon.Usable(0));

  env.RunUntil(At(43));
  ASSERT_EQ(mon.health(0), serving::Health::kRecovering);
  EXPECT_FALSE(mon.Usable(0));
  env.RunUntil(At(46));
  // The 45 ms heartbeat landed during recovery; readmission waits for the
  // pipeline (warm-up probes + 5ms warm-up), not the first probe success.
  EXPECT_EQ(mon.health(0), serving::Health::kRecovering);
  EXPECT_FALSE(mon.Usable(0));

  env.RunUntil(At(60));
  EXPECT_EQ(mon.health(0), serving::Health::kHealthy);
  EXPECT_TRUE(mon.Usable(0));
  int recovering_to_healthy = 0;
  for (const auto& t : mon.transitions()) {
    if (t.target == 0 && t.from == serving::Health::kRecovering &&
        t.to == serving::Health::kHealthy) {
      ++recovering_to_healthy;
    }
  }
  EXPECT_EQ(recovering_to_healthy, 1);
  ASSERT_EQ(mon.outages().size(), 1u);
  // The incident covers outage + re-init + warm-up, not just the outage.
  EXPECT_GT(mon.outages()[0].mttr(), Duration::Millis(20));
  mon.Stop();
  env.Run();
}

TEST(FailoverTest, HangEscalationFailsOverAndRecoversAtHangEnd) {
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  // A 300ms hang outlives the 10ms escalation budget: kDegraded -> kDown
  // (failover), then recovery without driver re-init once the hang clears.
  opts.faults.DeviceHang(At(600), Duration::Millis(300), /*gpu_index=*/0);
  opts.failover.health.hang_down_after = Duration::Millis(10);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload(/*batches=*/10));

  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 10) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  const auto& c = exp.counters();
  EXPECT_EQ(c.device_down_events, 1u);
  EXPECT_GE(c.requests_failed_over, 1u);
  ASSERT_EQ(exp.health()->outages().size(), 1u);
  EXPECT_EQ(exp.health()->outages()[0].target, 0u);
  EXPECT_EQ(exp.health()->health(0), serving::Health::kHealthy);
}

// ---------------------------------------------------------------------------
// Satellite: every device down -> prompt rejection, no stall

TEST(FailoverTest, AllDevicesDownRejectsPendingRequestsPromptly) {
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  opts.faults.DeviceReset(At(600), Duration::Seconds(100), /*gpu_index=*/0);
  opts.faults.DeviceReset(At(600), Duration::Seconds(100), /*gpu_index=*/1);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload());  // must not stall

  EXPECT_GT(CountAll(results, serving::RequestStatus::kRejected), 0);
  EXPECT_LT(BatchesAll(results), 16);
  const auto& c = exp.counters();
  EXPECT_GT(c.requests_rejected_no_device, 0u);
  EXPECT_EQ(c.requests_rejected_no_device,
            static_cast<std::uint64_t>(
                CountAll(results, serving::RequestStatus::kRejected)));
  // Prompt termination: clients drain their remaining requests as
  // rejections instead of waiting out the 100s outage.
  for (const auto& r : results) {
    EXPECT_LT(r.finish_time, Duration::Seconds(10)) << r.name;
  }
}

// ---------------------------------------------------------------------------
// Hedged requests during degradation

TEST(FailoverTest, HedgesLaunchWhileRoutedDeviceIsDegraded) {
  // A closed-loop client never *starts* a request during a hang (its
  // in-flight request is stuck until the hang clears), so degradation is
  // made visible to routing via a retry: a kernel failure at t=595ms fails
  // the attempt, the 10ms backoff lands the retry inside the hang window
  // that opens at t=600ms, and the retry — routed to the degraded primary —
  // hedges on the healthy peer.
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  // Stream 0 is the health monitor's probe stream; the client's first
  // stream is 1.
  opts.faults.KernelFailure(At(595), /*stream=*/1, /*gpu_index=*/0);
  opts.faults.DeviceHang(At(600), Duration::Millis(300), /*gpu_index=*/0);
  opts.failover.health.hang_down_after = Duration::Seconds(10);
  opts.failover.hedge_when_degraded = true;
  opts.degradation.retry.base_backoff = Duration::Millis(10);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload(/*batches=*/10));

  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 10) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  EXPECT_GE(exp.counters().hedges_launched, 1u);
}

TEST(FailoverTest, HedgeWinAdoptedWhenPrimaryDiesMidKernel) {
  // Same staging as above — the kernel failure at t=595ms pushes a retry
  // into the hang window, where it routes to the degraded primary and
  // hedges on the healthy peer. Then the primary device RESETS at t=650ms,
  // killing the wedged attempt mid-kernel. The request must adopt the
  // hedge's result: no failed requests, a hedge win counted, and no retry
  // budget consumed by the primary's death (the only retry on the books is
  // the injected kernel failure that staged the scenario).
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  opts.faults.KernelFailure(At(595), /*stream=*/1, /*gpu_index=*/0);
  opts.faults.DeviceHang(At(600), Duration::Millis(300), /*gpu_index=*/0);
  opts.faults.DeviceReset(At(650), Duration::Seconds(100), /*gpu_index=*/0);
  opts.failover.health.hang_down_after = Duration::Seconds(10);
  opts.failover.hedge_when_degraded = true;
  opts.degradation.retry.base_backoff = Duration::Millis(10);
  serving::Experiment exp(opts);
  const auto results = exp.Run(TwoGpuWorkload(/*batches=*/10));

  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 10) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  const auto& c = exp.counters();
  EXPECT_GE(c.hedges_launched, 1u);
  EXPECT_GE(c.hedge_wins, 1u);
  // The hedge-winning request is the staged retry (attempt 2), so exactly
  // one request reports kFailedRetried; everything else is clean.
  EXPECT_EQ(results[0].CountStatus(serving::RequestStatus::kFailedRetried), 1)
      << results[0].name;
  // One retry from the injected kernel failure — and none from the
  // primary's cancellation, which the hedge win absorbed.
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.requests_failed, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the failover path is on the virtual clock end to end

TEST(FailoverTest, FailoverRunsAreBitIdenticalAcrossRepeats) {
  auto run = [] {
    serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
    opts.seed = 99;
    opts.faults.DeviceReset(At(600), Duration::Millis(250), /*gpu_index=*/0);
    opts.faults.DeviceHang(At(1200), Duration::Millis(30), /*gpu_index=*/1);
    serving::Experiment exp(opts);
    return exp.Run(TwoGpuWorkload(/*batches=*/10));
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finish_time, b[i].finish_time);
    EXPECT_EQ(a[i].gpu_duration, b[i].gpu_duration);
    EXPECT_EQ(a[i].batches_completed, b[i].batches_completed);
    ASSERT_EQ(a[i].request_latency_ms, b[i].request_latency_ms);
    ASSERT_EQ(a[i].request_status, b[i].request_status);
  }
}

// Golden determinism: constructing the subsystem disabled must not perturb
// the legacy event sequence at all.
TEST(FailoverTest, DisabledFailoverPreservesLegacyResults) {
  auto run = [](bool failover) {
    serving::ServerOptions opts = TwoGpuOptions(failover);
    serving::Experiment exp(opts);
    return exp.Run(TwoGpuWorkload());
  };
  const auto legacy = run(false);
  const auto quiet = run(true);  // enabled, but no faults ever fire
  ASSERT_EQ(legacy.size(), quiet.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    // Probe kernels share the device, so utilization-side numbers may move;
    // client-visible results must not.
    EXPECT_EQ(legacy[i].batches_completed, quiet[i].batches_completed);
    EXPECT_EQ(legacy[i].CountStatus(serving::RequestStatus::kOk),
              quiet[i].CountStatus(serving::RequestStatus::kOk));
  }
}

// ---------------------------------------------------------------------------
// Failover under the Olympian scheduler: gang detach on device death

TEST(FailoverTest, OlympianSchedulerDetachesAndReattachesAcrossFailover) {
  serving::ServerOptions opts = TwoGpuOptions(/*failover=*/true);
  opts.faults.DeviceReset(At(600), Duration::Millis(250), /*gpu_index=*/0);
  serving::Experiment exp(opts);

  core::Profiler profiler;
  auto p_resnet = profiler.ProfileModel("resnet-152", 20);
  auto p_google = profiler.ProfileModel("googlenet", 20);
  std::vector<std::unique_ptr<core::Scheduler>> scheds;
  for (std::size_t i = 0; i < exp.num_gpus(); ++i) {
    auto s = std::make_unique<core::Scheduler>(
        exp.env(), exp.gpu(i), std::make_unique<core::FairPolicy>());
    // Either model may land on either device after a failover: install
    // both profiles on both schedulers.
    s->SetProfile(p_resnet.key, &p_resnet.cost,
                  core::Profiler::ThresholdFor(p_resnet, Duration::Micros(500)));
    s->SetProfile(p_google.key, &p_google.cost,
                  core::Profiler::ThresholdFor(p_google, Duration::Micros(500)));
    exp.SetGpuHooks(i, s.get());
    scheds.push_back(std::move(s));
  }
  const auto results = exp.Run(TwoGpuWorkload(/*batches=*/10));

  for (const auto& r : results) {
    EXPECT_EQ(r.batches_completed, 10) << r.name;
    EXPECT_EQ(r.CountStatus(serving::RequestStatus::kFailed), 0) << r.name;
  }
  EXPECT_EQ(scheds[0]->detaches(), 1u);  // token parked on device death
  EXPECT_EQ(scheds[0]->attaches(), 1u);  // ...and the device re-attached
  EXPECT_EQ(scheds[1]->detaches(), 0u);
}

}  // namespace
}  // namespace olympian
