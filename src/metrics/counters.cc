#include "metrics/counters.h"

#include <ostream>
#include <string>

namespace olympian::metrics {

std::span<const ServingCounters::Field> ServingCounters::Fields() {
  static constexpr Field kFields[] = {
      {"kernel_failures_injected", &ServingCounters::kernel_failures_injected},
      {"device_hangs", &ServingCounters::device_hangs},
      {"device_resets", &ServingCounters::device_resets},
      {"alloc_fault_windows", &ServingCounters::alloc_fault_windows},
      {"requests_ok", &ServingCounters::requests_ok},
      {"requests_retried_ok", &ServingCounters::requests_retried_ok},
      {"requests_timed_out", &ServingCounters::requests_timed_out},
      {"requests_rejected", &ServingCounters::requests_rejected},
      {"requests_failed", &ServingCounters::requests_failed},
      {"retries", &ServingCounters::retries},
      {"transient_alloc_failures", &ServingCounters::transient_alloc_failures},
      {"kernel_failures_observed", &ServingCounters::kernel_failures_observed},
      {"deadline_cancellations", &ServingCounters::deadline_cancellations},
      {"health_transitions", &ServingCounters::health_transitions},
      {"device_down_events", &ServingCounters::device_down_events},
      {"device_readmissions", &ServingCounters::device_readmissions},
      {"probe_failures", &ServingCounters::probe_failures},
      {"failover_cancellations", &ServingCounters::failover_cancellations},
      {"requests_failed_over", &ServingCounters::requests_failed_over},
      {"requests_rejected_no_device",
       &ServingCounters::requests_rejected_no_device},
      {"replica_instantiations", &ServingCounters::replica_instantiations},
  };
  return kFields;
}

void ServingCounters::Print(std::ostream& os) const {
  for (const Field& f : Fields()) {
    const std::uint64_t v = this->*f.member;
    if (v != 0) os << "  " << f.name << " " << v << "\n";
  }
}

void ServingCounters::ExportTo(MetricRegistry& registry) const {
  std::string name;
  for (const Field& f : Fields()) {
    name.assign("olympian_");
    name.append(f.name);
    name.append("_total");
    registry.GetCounter(name).Set(this->*f.member);
  }
}

std::span<const RouterCounters::Field> RouterCounters::Fields() {
  static constexpr Field kFields[] = {
      {"server_crashes", &RouterCounters::server_crashes},
      {"partitions", &RouterCounters::partitions},
      {"capacity_losses", &RouterCounters::capacity_losses},
      {"jitter_windows", &RouterCounters::jitter_windows},
      {"requests_routed", &RouterCounters::requests_routed},
      {"requests_ok", &RouterCounters::requests_ok},
      {"requests_failed", &RouterCounters::requests_failed},
      {"requests_timed_out", &RouterCounters::requests_timed_out},
      {"requests_rejected_no_server",
       &RouterCounters::requests_rejected_no_server},
      {"requests_failed_over", &RouterCounters::requests_failed_over},
      {"retries", &RouterCounters::retries},
      {"requests_lost_to_server", &RouterCounters::requests_lost_to_server},
      {"probes_sent", &RouterCounters::probes_sent},
      {"probe_failures", &RouterCounters::probe_failures},
      {"server_transitions", &RouterCounters::server_transitions},
      {"server_down_events", &RouterCounters::server_down_events},
      {"server_readmissions", &RouterCounters::server_readmissions},
      {"tenant_instantiations", &RouterCounters::tenant_instantiations},
      {"score_degrade_events", &RouterCounters::score_degrade_events},
      {"score_recover_events", &RouterCounters::score_recover_events},
      {"brownout_entries", &RouterCounters::brownout_entries},
      {"brownout_exits", &RouterCounters::brownout_exits},
      {"requests_shed_brownout", &RouterCounters::requests_shed_brownout},
  };
  return kFields;
}

void RouterCounters::Print(std::ostream& os) const {
  for (const Field& f : Fields()) {
    const std::uint64_t v = this->*f.member;
    if (v != 0) os << "  " << f.name << " " << v << "\n";
  }
}

void RouterCounters::ExportTo(MetricRegistry& registry) const {
  std::string name;
  for (const Field& f : Fields()) {
    name.assign("olympian_router_");
    name.append(f.name);
    name.append("_total");
    registry.GetCounter(name).Set(this->*f.member);
  }
}

}  // namespace olympian::metrics
