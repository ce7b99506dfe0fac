#pragma once

#include <cstdint>

#include "sim/random.h"
#include "sim/time.h"

namespace olympian::serving {

// Open-loop arrival generator on the virtual clock.
//
// The paper's workload is closed-loop (each request issued when the previous
// response lands); availability numbers under faults are only meaningful
// open-loop, where demand keeps arriving while a server is down. The
// generator produces a deterministic homogeneous Poisson arrival sequence
// from an Rng stream.
struct ArrivalSpec {
  enum class Kind : std::uint8_t {
    // No generator: the client is closed-loop (legacy behaviour).
    kClosedLoop,
    // Homogeneous Poisson arrivals at `rate_rps`.
    kPoisson,
  };

  Kind kind = Kind::kClosedLoop;
  double rate_rps = 0.0;
};

// Stateful generator: each Next() advances an internal clock and returns
// the next arrival instant (monotonically non-decreasing). Deterministic
// given the Rng stream — draws exactly one exponential variate per arrival,
// so identical seeds give identical arrival sequences.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(ArrivalSpec spec);

  bool open_loop() const { return spec_.kind != ArrivalSpec::Kind::kClosedLoop; }

  // Next arrival instant after the previous one (first call: after t=0).
  sim::TimePoint Next(sim::Rng& rng);

 private:
  ArrivalSpec spec_;
  sim::TimePoint now_;  // last returned arrival
};

// One arrival process standing in for a whole population of clients.
//
// Per-client generators cost one process and one generator per client — at
// a million modeled clients that is the binding memory/startup cost of a
// cluster experiment. A superposition of independent Poisson processes is
// itself Poisson at the summed rate, so an aggregate stream replaces the
// population with ONE generator at the population rate plus one uniform
// client-id draw per arrival (which client this arrival belongs to). Memory
// is O(1) in the population; determinism is preserved: exactly two Rng
// draws per arrival (interarrival + id) in a fixed order.
class AggregateArrivalProcess {
 public:
  AggregateArrivalProcess(ArrivalSpec spec, std::uint64_t modeled_clients);

  std::uint64_t modeled_clients() const { return modeled_clients_; }

  // Next arrival instant of the aggregate stream (monotone non-decreasing).
  sim::TimePoint Next(sim::Rng& rng) { return base_.Next(rng); }

  // The modeled client this arrival belongs to: uniform in
  // [0, modeled_clients). Call exactly once per Next() for reproducibility.
  std::uint64_t NextClient(sim::Rng& rng);

 private:
  ArrivalProcess base_;
  std::uint64_t modeled_clients_;
};

}  // namespace olympian::serving
