#include "serving/batcher.h"

#include <algorithm>
#include <stdexcept>

#include "models/model_zoo.h"

namespace olympian::serving {
namespace {
// The device Experiment::CreateJob places the batcher's job on.
constexpr std::size_t kGpu = 0;
}  // namespace

Batcher::Batcher(Experiment& experiment, std::string model, Options options)
    : exp_(experiment),
      env_(experiment.env()),
      model_(std::move(model)),
      options_(std::move(options)),
      ctx_(experiment.CreateJob(model_,
                                options_.allowed_batch_sizes.empty()
                                    ? 1
                                    : options_.allowed_batch_sizes.back())),
      graph_(experiment.LoadModel(model_, kGpu)),
      wake_(env_),
      done_cv_(env_) {
  if (options_.allowed_batch_sizes.empty()) {
    throw std::invalid_argument("allowed_batch_sizes must not be empty");
  }
  if (!std::is_sorted(options_.allowed_batch_sizes.begin(),
                      options_.allowed_batch_sizes.end()) ||
      options_.allowed_batch_sizes.front() < 1) {
    throw std::invalid_argument("allowed_batch_sizes must be ascending, >= 1");
  }
  env_.Spawn(Dispatcher(), "batcher:" + model_);
}

int Batcher::PadToAllowed(int items) const {
  for (int s : options_.allowed_batch_sizes) {
    if (s >= items) return s;
  }
  return options_.allowed_batch_sizes.back();
}

sim::Task Batcher::Infer(sim::Duration* latency, metrics::PhaseAccount* pa) {
  if (closed_) throw std::logic_error("Infer after Close");
  Request req{env_.Now(), false, pa};
  pending_.push_back(&req);
  wake_.NotifyAll();
  while (!req.done) co_await done_cv_.Wait();
  if (latency != nullptr) *latency = env_.Now() - req.arrival;
}

void Batcher::Close() {
  closed_ = true;
  wake_.NotifyAll();
}

void Batcher::AlarmTrampoline(void* ctx, std::uint64_t epoch) {
  auto* self = static_cast<Batcher*>(ctx);
  if (epoch == self->alarm_epoch_) self->wake_.NotifyAll();
}

sim::Task Batcher::Dispatcher() {
  const int max_allowed = options_.allowed_batch_sizes.back();
  for (;;) {
    while (pending_.empty() && !closed_) co_await wake_.Wait();
    if (pending_.empty() && closed_) co_return;

    // Wait for the batch to fill or the oldest request to time out.
    const sim::TimePoint deadline =
        pending_.front()->arrival + options_.batch_timeout;
    ++alarm_epoch_;
    env_.ScheduleCallbackAt(deadline, &Batcher::AlarmTrampoline, this,
                            alarm_epoch_);
    while (!closed_ && static_cast<int>(pending_.size()) < max_allowed &&
           env_.Now() < deadline) {
      co_await wake_.Wait();
    }
    ++alarm_epoch_;  // disarm a still-pending alarm

    const int take =
        std::min<int>(static_cast<int>(pending_.size()), max_allowed);
    if (take == 0) continue;  // closed with nothing left
    std::vector<Request*> batch(pending_.begin(), pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);

    const int padded = PadToAllowed(take);
    ctx_.batch = padded;
    ctx_.model_key = models::ModelKey(model_, padded);
    // Everything up to this instant was time spent waiting for the batch to
    // close; the run interval below is split into GPU residency vs. queueing.
    // Completion (and each waiter's resume) happens at the same virtual
    // instant as the charges below, so the phase-sum identity holds.
    bool any_accounted = false;
    for (Request* r : batch) {
      if (r->pa != nullptr) {
        r->pa->Charge(metrics::Phase::kBatcherWait, env_.Now());
        any_accounted = true;
      }
    }
    const sim::Duration gpu_before =
        any_accounted
            ? exp_.gpu(kGpu).JobGpuDuration(ctx_.job)
            : sim::Duration::Zero();
    co_await exp_.executor(kGpu).RunOnce(ctx_, graph_);
    if (any_accounted) {
      const sim::Duration compute =
          exp_.gpu(kGpu).JobGpuDuration(ctx_.job) - gpu_before;
      for (Request* r : batch) {
        if (r->pa != nullptr) {
          r->pa->SplitCharge(metrics::Phase::kGpuCompute, compute,
                             metrics::Phase::kGpuQueue, env_.Now());
        }
      }
    }

    ++batches_executed_;
    items_served_ += static_cast<std::uint64_t>(take);
    occupancy_sum_ += static_cast<double>(take) / padded;
    for (Request* r : batch) r->done = true;
    done_cv_.NotifyAll();
  }
}

double Batcher::MeanBatchOccupancy() const {
  return batches_executed_ == 0
             ? 0.0
             : occupancy_sum_ / static_cast<double>(batches_executed_);
}

}  // namespace olympian::serving
