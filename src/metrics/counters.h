#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "metrics/registry.h"

namespace olympian::metrics {

// Monotonic event counters for the serving stack's failure model: injected
// faults, request-level degradation outcomes, and device failover. One
// instance lives in each `serving::Experiment`; the fault injector and the
// serving layer both increment it, so aggregate checks (e.g. "no-device
// rejections <= rejected results") are a single comparison.
struct ServingCounters {
  // --- injected faults (incremented by fault::FaultInjector) -------------
  std::uint64_t kernel_failures_injected = 0;
  std::uint64_t device_hangs = 0;
  std::uint64_t device_resets = 0;
  std::uint64_t alloc_fault_windows = 0;

  // --- per-request outcomes (incremented by serving::Experiment) ---------
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_retried_ok = 0;  // succeeded after >= 1 retry
  std::uint64_t requests_timed_out = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_failed = 0;  // exhausted the retry budget

  // --- degradation machinery ---------------------------------------------
  std::uint64_t retries = 0;              // individual retry attempts
  // The server sheds no load. Kept, always zero and outside Fields(),
  // because perfbench/perfbench.cc:442 reads it for `serving.shed`.
  static constexpr std::uint64_t requests_shed = 0;
  std::uint64_t transient_alloc_failures = 0;
  std::uint64_t kernel_failures_observed = 0;
  std::uint64_t deadline_cancellations = 0;

  // --- health / failover (incremented by HealthMonitor + Experiment) -----
  std::uint64_t health_transitions = 0;   // any device health-state edge
  std::uint64_t device_down_events = 0;   // healthy/degraded -> down edges
  std::uint64_t device_readmissions = 0;  // recovery pipelines completed
  std::uint64_t probe_failures = 0;       // heartbeat kernels that failed
  std::uint64_t failover_cancellations = 0;  // in-flight runs killed on down
  std::uint64_t requests_failed_over = 0;    // re-admitted on another device
  // Rejected because *no* usable device remained (subset of
  // requests_rejected; the all-devices-down fast path).
  std::uint64_t requests_rejected_no_device = 0;
  std::uint64_t replica_instantiations = 0;  // lazy model loads on failover
  // The server sends no hedges. Kept, always zero and outside Fields(),
  // because perfbench/perfbench.cc:441 reads it for `serving.hedges`.
  static constexpr std::uint64_t hedges_launched = 0;

  std::uint64_t requests_total() const {
    return requests_ok + requests_retried_ok + requests_timed_out +
           requests_rejected + requests_failed;
  }

  // One entry per counter field, in declaration order. Print, the registry
  // bridge, and tests all iterate this single table, so every view of the
  // counters agrees on membership and order by construction.
  struct Field {
    const char* name;
    std::uint64_t ServingCounters::* member;
  };
  static std::span<const Field> Fields();

  // One "name value" row per non-zero counter, in Fields() order.
  void Print(std::ostream& os) const;

  // Mirrors every field into `registry` as a counter named
  // "olympian_<field>_total" via Counter::Set — idempotent, so repeated
  // bridging (Experiment::Run calls this at finish; callers may re-export
  // at any time) never double-counts.
  void ExportTo(MetricRegistry& registry) const;
};

// Monotonic event counters for the cluster front-end: routing decisions,
// cross-server failover, router-side probing, and the server-level fault
// model (crashes, partitions, gray faults). One instance lives in each
// `serving::Cluster`; the router, the cluster request path, and the server
// fault applier all increment it. Same single-source-table idiom as
// ServingCounters, exported as "olympian_router_<field>_total".
struct RouterCounters {
  // --- injected server faults --------------------------------------------
  std::uint64_t server_crashes = 0;
  std::uint64_t partitions = 0;
  std::uint64_t capacity_losses = 0;  // server-wide fractional-capacity windows
  std::uint64_t jitter_windows = 0;   // router<->server hop-stretch windows

  // --- routing / request outcomes ----------------------------------------
  std::uint64_t requests_routed = 0;   // forward legs dispatched
  std::uint64_t requests_ok = 0;       // served (incl. server-side retries)
  std::uint64_t requests_failed = 0;   // exhausted the router retry budget
  std::uint64_t requests_timed_out = 0;
  // Rejected because no routable server remained.
  std::uint64_t requests_rejected_no_server = 0;
  // Re-admitted on a surviving server WITHOUT consuming the client retry
  // budget (the cross-server mirror of requests_failed_over).
  std::uint64_t requests_failed_over = 0;
  std::uint64_t retries = 0;  // budgeted retries of genuine failures

  // --- network fault effects ---------------------------------------------
  std::uint64_t requests_lost_to_server = 0;  // dropped router -> server

  // --- router-side health view -------------------------------------------
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t server_transitions = 0;   // any server health-state edge
  std::uint64_t server_down_events = 0;   // -> down edges
  std::uint64_t server_readmissions = 0;  // recovering -> healthy edges
  std::uint64_t tenant_instantiations = 0;  // lazy (client, server) setups

  // --- gray-failure response (score-weighted routing + brownout) ---------
  std::uint64_t score_degrade_events = 0;  // score-driven healthy -> degraded
  std::uint64_t score_recover_events = 0;  // score-driven degraded -> healthy
  std::uint64_t brownout_entries = 0;      // shed-level 0 -> >0 edges
  std::uint64_t brownout_exits = 0;        // shed-level back-to-0 edges
  std::uint64_t requests_shed_brownout = 0;  // rejected by brownout shedding

  // Every request ends in exactly one of these five outcomes.
  std::uint64_t requests_total() const {
    return requests_ok + requests_failed + requests_timed_out +
           requests_rejected_no_server + requests_shed_brownout;
  }

  struct Field {
    const char* name;
    std::uint64_t RouterCounters::* member;
  };
  static std::span<const Field> Fields();

  // One "name value" row per non-zero counter, in Fields() order.
  void Print(std::ostream& os) const;

  // Mirrors every field into `registry` as "olympian_router_<field>_total"
  // via Counter::Set (idempotent).
  void ExportTo(MetricRegistry& registry) const;
};

}  // namespace olympian::metrics
