#include "serving/batcher.h"

#include <algorithm>
#include <stdexcept>

#include "models/model_zoo.h"

namespace olympian::serving {
namespace {
// The device Experiment::CreateJob places the batcher's job on.
constexpr std::size_t kGpu = 0;

// Runs in the member initializers ahead of the job's creation, so a
// rejected batcher leaves no job and no device memory behind.
Batcher::Options Validated(Batcher::Options options) {
  const std::vector<int>& sizes = options.allowed_batch_sizes;
  if (sizes.empty()) {
    throw std::invalid_argument("allowed_batch_sizes must not be empty");
  }
  if (!std::is_sorted(sizes.begin(), sizes.end()) || sizes.front() < 1) {
    throw std::invalid_argument("allowed_batch_sizes must be ascending, >= 1");
  }
  // A negative timeout would arm the batch alarm in the past.
  if (options.batch_timeout < sim::Duration::Zero()) {
    throw std::invalid_argument("batch_timeout must be >= 0, got " +
                                sim::ToString(options.batch_timeout));
  }
  return options;
}
}  // namespace

Batcher::Batcher(Experiment& experiment, std::string model, Options options)
    : exp_(experiment),
      env_(experiment.env()),
      model_(std::move(model)),
      options_(Validated(std::move(options))),
      ctx_(experiment.CreateJob(model_, options_.allowed_batch_sizes.back())),
      graph_(experiment.LoadModel(model_, kGpu)),
      wake_(env_),
      done_cv_(env_) {
  env_.Spawn(Dispatcher(), "batcher:" + model_);
}

int Batcher::PadToAllowed(int items) const {
  for (int s : options_.allowed_batch_sizes) {
    if (s >= items) return s;
  }
  return options_.allowed_batch_sizes.back();
}

sim::Task Batcher::Infer(sim::Duration* latency) {
  if (closed_) throw std::logic_error("Infer after Close");
  Request req{env_.Now(), false};
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
    co_await exp_.executor(kGpu).RunOnce(ctx_, graph_);

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
