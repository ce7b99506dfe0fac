#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "metrics/registry.h"
#include "sim/time.h"

namespace olympian::metrics {

// Latency anatomy: where did a request's end-to-end time actually go?
//
// Every request of the serving request loops (Experiment's clients and the
// Cluster's dispatch) keeps a PhaseAccount. The account charges each
// virtual-time interval of the request's life to exactly one phase of a
// closed taxonomy. The accounting is *cursor-based*: the account remembers
// the end of the last charged interval, and Charge(phase, now) attributes
// [cursor, now) to `phase` and advances the cursor. Because the intervals
// tile the request's lifetime with no gaps and no overlaps, the phase sum
// equals the end-to-end latency bit-exactly in virtual time — an identity
// that holds by construction, in integer nanoseconds, with no floating
// point anywhere. PhaseCollector::Record still verifies it against the
// independently measured latency and counts mismatches, so a missed charge
// site shows up as a nonzero `phase_sum_mismatches` counter rather than a
// silently wrong blame table.

// Closed phase taxonomy. Order matters twice: it is the export order of
// every blame table, and the dominant-phase tie-break (lowest index wins).
enum class Phase : int {
  kRouterHop = 0,    // network hop, router -> server (forward leg)
  kRouterQueue,      // at the router before/between route decisions
  kAdmission,        // admission control and deadline checks
  kPlacerDecision,   // placer/device routing decision
  kReload,           // parameter reload over PCIe + warm-up
  // Charged by nothing since the Batcher stopped taking an account. Kept
  // like kHedgeOverhead below: `phase.batcher_wait_ms` is reported too.
  kBatcherWait,
  kGpuQueue,         // kernels submitted but not yet resident on SMs
  kGpuCompute,       // kernels resident (the paper's "GPU duration")
  kBackoff,          // retry backoff wait
  // Charged by nothing since the server stopped hedging. Kept so the blame
  // exports keep their columns, and because perfbench/perfbench.cc:975
  // reports every phase, `phase.hedge_overhead_ms` among them.
  kHedgeOverhead,
  kFailoverReadmit,  // failover re-admission (device- or server-level)
  kResponseHop,      // network hop, server -> router (response leg)
  kCount,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

// Stable snake_case name used in every export ("router_hop", ...).
const char* PhaseName(Phase p);

class PhaseAccount {
 public:
  // (Re)starts the account at the request's arrival instant.
  void Start(sim::TimePoint arrival) {
    start_ = cursor_ = arrival;
    ns_.fill(0);
  }

  // Charges [cursor, now) to `p` and advances the cursor to `now`.
  void Charge(Phase p, sim::TimePoint now) {
    ns_[static_cast<int>(p)] += (now - cursor_).nanos();
    cursor_ = now;
  }

  // Splits [cursor, now) between two phases: `a` receives `a_amount`
  // (clamped into the interval) and `rest` receives the remainder. Used
  // where one awaited interval covers two distinct costs — e.g. a graph
  // run is GPU compute for the job's measured GPU duration and GPU queue
  // wait for the rest.
  void SplitCharge(Phase a, sim::Duration a_amount, Phase rest,
                   sim::TimePoint now) {
    std::int64_t total = (now - cursor_).nanos();
    std::int64_t amt = a_amount.nanos();
    if (amt < 0) amt = 0;
    if (amt > total) amt = total;
    ns_[static_cast<int>(a)] += amt;
    ns_[static_cast<int>(rest)] += total - amt;
    cursor_ = now;
  }

  std::int64_t ns(Phase p) const { return ns_[static_cast<int>(p)]; }
  const std::array<std::int64_t, kPhaseCount>& phases_ns() const { return ns_; }

  // Sum of all phase charges — equals (cursor - start) by construction.
  std::int64_t TotalNs() const;

  sim::TimePoint start() const { return start_; }
  sim::TimePoint cursor() const { return cursor_; }

  // Phase with the largest charge; ties break toward the lowest index.
  Phase Dominant() const;

 private:
  sim::TimePoint start_;
  sim::TimePoint cursor_;
  std::array<std::int64_t, kPhaseCount> ns_{};
};

// Folds finished requests' PhaseAccounts into a tail-blame table: per
// (server, model), total time per phase, the same restricted to
// SLO-violating requests, and how often each phase was the dominant one of
// a violating request. All sums are integer nanoseconds, so the table is
// bit-exact and byte-identical across shard counts when fed the same
// request trajectory.
class PhaseCollector {
 public:
  struct Options {
    // A request is "violating" when it did not succeed, or when it
    // succeeded slower than this threshold (0 disables the latency
    // criterion, leaving only failures).
    double slo_ms = 0.0;
    // Optional: per-phase log-bucketed histograms
    // (olympian_phase_ms{phase=...}) plus request/violation/mismatch
    // counters are published here. Handles are resolved once.
    MetricRegistry* registry = nullptr;
  };

  PhaseCollector() : PhaseCollector(Options{}) {}
  explicit PhaseCollector(const Options& opts);

  // Records one finished request. `latency` is the independently measured
  // end-to-end virtual latency; `ok` is terminal success. Verifies the
  // accounting identity and counts a mismatch when the phase sum differs.
  void Record(int server, const std::string& model, const PhaseAccount& pa,
              bool ok, sim::Duration latency);

  struct Row {
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    std::array<std::int64_t, kPhaseCount> total_ns{};
    std::array<std::int64_t, kPhaseCount> violation_ns{};
    // Dominant-phase counts among violating requests.
    std::array<std::uint64_t, kPhaseCount> dominant{};
  };
  using Key = std::pair<int, std::string>;  // (server, model); server -1 ok

  const std::map<Key, Row>& rows() const { return rows_; }
  double slo_ms() const { return opts_.slo_ms; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t violations() const { return violations_; }
  // Accounting-identity failures observed by Record — 0 unless a charge
  // site was missed.
  std::uint64_t mismatches() const { return mismatches_; }

  // Folds `src`'s rows and totals into this collector (registry-side
  // instruments are not transferred; merge registries separately).
  void MergeFrom(const PhaseCollector& src);

  // Blame table as JSON: {"slo_ms", "requests", "violations",
  // "phase_sum_mismatches", "rows":[{"server", "model", "requests",
  // "violations", "dominant_phase", "phases_ns":{...},
  // "violation_phases_ns":{...}, "dominant_counts":{...}}]}. Integer
  // nanosecond sums only, so output is byte-stable.
  void WriteBlameJson(std::ostream& os) const;

 private:
  Options opts_;
  std::map<Key, Row> rows_;
  std::uint64_t requests_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t mismatches_ = 0;
  // Registry handles, resolved once in the constructor (null when no
  // registry was given).
  std::array<MetricRegistry::Histogram*, kPhaseCount> hist_{};
  MetricRegistry::Counter* requests_counter_ = nullptr;
  MetricRegistry::Counter* violations_counter_ = nullptr;
  MetricRegistry::Counter* mismatch_counter_ = nullptr;
};

}  // namespace olympian::metrics
