#include "core/scheduler.h"

#include <stdexcept>

#include "metrics/registry.h"

namespace olympian::core {
namespace {
// Multiplicative jitter on Options::resume_latency (OS wake-up noise).
constexpr double kResumeJitter = 0.3;
}  // namespace

Scheduler::Scheduler(sim::Environment& env, gpusim::Gpu& gpu,
                     std::unique_ptr<SchedulingPolicy> policy, Options options)
    : env_(env),
      gpu_(gpu),
      policy_(std::move(policy)),
      options_(options),
      rng_(options.seed) {
  if (!policy_) throw std::invalid_argument("Scheduler needs a policy");
  // The wall timer re-arms every quantum: at zero it would spin at one
  // instant forever, and below zero run the virtual clock backwards.
  if (options_.use_wall_clock &&
      options_.wall_quantum <= sim::Duration::Zero()) {
    throw std::invalid_argument("Options::wall_quantum must be > 0 with "
                                "use_wall_clock, got " +
                                sim::ToString(options_.wall_quantum));
  }
}

sim::CondVar& Scheduler::JobCv(gpusim::JobId job) {
  auto& cv = job_cvs_[job];
  if (!cv) cv = std::make_unique<sim::CondVar>(env_);
  return *cv;
}

Scheduler::Scheduler(sim::Environment& env, gpusim::Gpu& gpu,
                     std::unique_ptr<SchedulingPolicy> policy)
    : Scheduler(env, gpu, std::move(policy), Options{}) {}

void Scheduler::SetProfile(const std::string& model_key,
                           const graph::CostProfile* profile,
                           double threshold) {
  if (!options_.use_wall_clock) {
    if (profile == nullptr) {
      throw std::invalid_argument("null profile for " + model_key);
    }
    if (threshold <= 0.0) {
      throw std::invalid_argument("threshold must be positive for " +
                                  model_key);
    }
  }
  profiles_[model_key] = ProfileInfo{profile, threshold};
}

void Scheduler::RegisterRun(graph::JobContext& ctx) {
  // Algorithm 2, line 4.
  double threshold = 0.0;
  if (!options_.use_wall_clock) {
    const auto it = profiles_.find(ctx.model_key);
    if (it == profiles_.end()) {
      throw std::logic_error("no offline profile installed for model key '" +
                             ctx.model_key + "'");
    }
    threshold = it->second.threshold;
    // Map nodes never move and SetProfile assigns in place, so the pointer
    // sees a later SetProfile for this key exactly as a lookup would.
    ctx.hooks_profile = &it->second;
  }
  jobs_.push_back(JobEntry{ctx.job, &ctx, threshold, 0});
  if (token_ == gpusim::kNoJob) Rotate(gpusim::kNoJob);
}

void Scheduler::DeregisterRun(graph::JobContext& ctx) {
  // Algorithm 2, line 7.
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id == ctx.job) {
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (token_ == ctx.job) Rotate(ctx.job);
}

sim::Task Scheduler::Yield(graph::JobContext& ctx) {
  // Algorithm 2, line 12: suspend while another job holds the token. The
  // loop guards against wakeups that race with a further rotation. A thread
  // woken after suspension pays the OS resume latency before it can launch
  // work — the per-switch cost that shapes the Overhead-Q curve.
  //
  // A cancelled run returns immediately instead of re-waiting: CancelRun
  // wakes the gang precisely so these threads fall through here, observe
  // the cancellation at the node boundary, and release their pool workers.
  sim::CondVar& cv = JobCv(ctx.job);
  for (;;) {
    bool suspended = false;
    while (token_ != ctx.job) {
      if (ctx.cancel != nullptr && ctx.cancel->cancelled) co_return;
      suspended = true;
      co_await cv.Wait();
    }
    if (!suspended) co_return;
    if (options_.resume_latency > sim::Duration::Zero()) {
      co_await env_.Delay(
          rng_.Jitter(options_.resume_latency, kResumeJitter));
    }
    if (ctx.cancel != nullptr && ctx.cancel->cancelled) co_return;
    if (token_ == ctx.job) co_return;  // else: lost the token while waking
  }
}

void Scheduler::CancelRun(graph::JobContext& ctx) {
  ++cancellations_;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].id == ctx.job) {
      jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  // Rotating away from a cancelled token holder must land on a live job (or
  // kNoJob), never leak the grant back to the departed gang.
  if (token_ == ctx.job) Rotate(ctx.job);
  const auto it = job_cvs_.find(ctx.job);
  if (it != job_cvs_.end()) it->second->NotifyAll();
}

void Scheduler::OnDeviceDown() {
  ++detaches_;
  // Every in-flight run was already cancelled via CancelRun, which erases
  // its entry — but a run registered between the cancellations and this
  // call (or a cancellation that raced past) must not keep the grant alive
  // on a dead device. Park the token and wake every suspended gang so its
  // threads observe their cancelled tokens and drain.
  jobs_.clear();
  GrantTo(gpusim::kNoJob);
  for (auto& [job, cv] : job_cvs_) cv->NotifyAll();
}

void Scheduler::OnDeviceUp() {
  ++attaches_;
  // Nothing to rebuild eagerly: re-admitted runs re-register through
  // RegisterRun, and the first registration grants the token as usual.
}

void Scheduler::OnSample(metrics::MetricRegistry& registry, sim::TimePoint now,
                         std::size_t device) {
  // Strictly read-only: the golden determinism suite runs with the sampler
  // enabled and expects bit-identical trajectories. Series carry a gpu
  // label — two per-device schedulers sampled at the same instant into one
  // registry must not interleave into a single series.
  if (sample_.registry != &registry || sample_.device != device ||
      sample_.token == nullptr) {
    const metrics::Labels labels{{"gpu", std::to_string(device)}};
    sample_.registry = &registry;
    sample_.device = device;
    sample_.token = &registry.GetSeries("olympian_scheduler_token", labels);
    sample_.active_jobs =
        &registry.GetSeries("olympian_scheduler_active_jobs", labels);
    sample_.token_held =
        &registry.GetSeries("olympian_scheduler_token_held", labels);
    sample_.switches =
        &registry.GetCounter("olympian_scheduler_switches_total", labels);
    sample_.quanta =
        &registry.GetCounter("olympian_scheduler_quanta_total", labels);
  }
  sample_.token->Sample(now, token_ == gpusim::kNoJob
                                 ? -1.0
                                 : static_cast<double>(token_));
  sample_.active_jobs->Sample(now, static_cast<double>(jobs_.size()));
  sample_.token_held->Sample(now, token_ == gpusim::kNoJob ? 0.0 : 1.0);
  sample_.switches->Set(switches_);
  sample_.quanta->Set(quanta_completed_);
}

void Scheduler::OnNodeComputed(graph::JobContext& ctx,
                               const graph::Node& node) {
  if (options_.use_wall_clock) return;  // Figure 19 ablation: timer-driven
  if (!node.is_gpu()) return;           // Algorithm 2, line 14
  if (!options_.charge_overflow && token_ != ctx.job) return;  // ablation
  const auto& info = *static_cast<const ProfileInfo*>(ctx.hooks_profile);
  ctx.cumulated_cost += info.profile->NodeCost(node.id);
  // Note: this runs on the job's own thread even when the node "overflowed"
  // past a token rotation — the overflow cost is charged to this job
  // (paper Figure 15).
  if (ctx.cumulated_cost >= info.threshold) {
    ctx.cumulated_cost -= info.threshold;  // Algorithm 2, line 17
    ++quanta_completed_;
    // scheduler.updateTokenInfo (line 18): rotates only if this job holds
    // the token; overflow past a rotation merely consumes future budget.
    if (token_ == ctx.job) Rotate(ctx.job);
  }
}

void Scheduler::Rotate(gpusim::JobId leaving) {
  if (token_ != gpusim::kNoJob) {
    quantum_log_.push_back(QuantumRecord{
        .job = token_,
        .start = tenure_start_,
        .end = env_.Now(),
        .gpu_duration = gpu_.JobGpuDuration(token_) - tenure_gpu_start_,
        .active_jobs = jobs_.size()});
  }
  if (options_.tracer != nullptr && token_ != gpusim::kNoJob) {
    options_.tracer->AddSpanNumbered("token", "job-", token_,
                                     metrics::Tracer::kSchedulerTrack,
                                     tenure_start_, env_.Now());
  }
  const gpusim::JobId next = policy_->NextJob(jobs_, leaving);
  GrantTo(next);
}

void Scheduler::GrantTo(gpusim::JobId next) {
  if (token_ != next) ++switches_;
  token_ = next;
  ++token_epoch_;
  tenure_start_ = env_.Now();
  tenure_gpu_start_ =
      next == gpusim::kNoJob ? sim::Duration::Zero() : gpu_.JobGpuDuration(next);
  if (next != gpusim::kNoJob) JobCv(next).NotifyAll();
  if (options_.use_wall_clock && token_ != gpusim::kNoJob) ArmWallTimer();
}

void Scheduler::ArmWallTimer() {
  env_.ScheduleCallbackAt(env_.Now() + options_.wall_quantum,
                          &Scheduler::WallTimerTrampoline, this, token_epoch_);
}

void Scheduler::WallTimerTrampoline(void* ctx, std::uint64_t epoch) {
  auto* self = static_cast<Scheduler*>(ctx);
  if (epoch != self->token_epoch_) return;  // stale: token already moved
  if (self->token_ == gpusim::kNoJob) return;
  ++self->quanta_completed_;
  self->Rotate(self->token_);
}

}  // namespace olympian::core
