#include "serving/arrivals.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace olympian::serving {

ArrivalProcess::ArrivalProcess(ArrivalSpec spec) : spec_(std::move(spec)) {
  if (spec_.kind == ArrivalSpec::Kind::kPoisson && !(spec_.rate_rps > 0.0)) {
    throw std::invalid_argument("Poisson arrivals need rate_rps > 0");
  }
}

sim::TimePoint ArrivalProcess::Next(sim::Rng& rng) {
  if (!open_loop()) {
    throw std::logic_error("Next() on a closed-loop ArrivalProcess");
  }
  const sim::Duration gap =
      sim::Duration::Seconds(1.0 / spec_.rate_rps) *
      (-std::log(1.0 - rng.NextDouble()));
  now_ = now_ + gap;
  return now_;
}

AggregateArrivalProcess::AggregateArrivalProcess(ArrivalSpec spec,
                                                 std::uint64_t modeled_clients)
    : base_(std::move(spec)), modeled_clients_(modeled_clients) {
  if (modeled_clients_ == 0) {
    throw std::invalid_argument("aggregate stream needs modeled_clients > 0");
  }
  if (!base_.open_loop()) {
    throw std::invalid_argument(
        "aggregate streams are open-loop; closed-loop clients cannot be "
        "superposed into one generator");
  }
}

std::uint64_t AggregateArrivalProcess::NextClient(sim::Rng& rng) {
  return static_cast<std::uint64_t>(rng.UniformInt(
      0, static_cast<std::int64_t>(modeled_clients_) - 1));
}

}  // namespace olympian::serving
