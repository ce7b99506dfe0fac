#include "metrics/incident.h"

#include <ostream>
#include <utility>

#include "metrics/trace.h"

namespace olympian::metrics {

void IncidentLog::Inject(int server, std::string kind, sim::TimePoint at,
                         sim::Duration window) {
  if (!enabled_) return;
  Incident inc;
  inc.server = server;
  inc.kind = std::move(kind);
  inc.injected_ns = at.nanos();
  inc.window_ns = window.nanos();
  incidents_.push_back(std::move(inc));
}

bool IncidentLog::Open(const Incident& inc, sim::TimePoint at) {
  const std::int64_t t = at.nanos();
  if (t < inc.injected_ns) return false;
  if (inc.recovered_ns >= 0) return t <= inc.recovered_ns;
  // Not recovered (yet): the impact window is at least the injected fault
  // window, and keeps extending while recovery is outstanding.
  return inc.window_ns == 0 || t <= inc.injected_ns + inc.window_ns ||
         inc.detected_ns >= 0;
}

void IncidentLog::HealthChange(int server, bool was_healthy,
                               bool now_healthy, sim::TimePoint at) {
  if (!enabled_ || was_healthy == now_healthy) return;
  const std::int64_t t = at.nanos();
  if (!now_healthy) {
    // Detection edge: attach to the earliest undetected incident of this
    // server that was already injected.
    for (Incident& inc : incidents_) {
      if (inc.server == server && inc.detected_ns < 0 &&
          inc.injected_ns <= t && inc.recovered_ns < 0) {
        inc.detected_ns = t;
        return;
      }
    }
    return;
  }
  // Recovery edge: closes every detected-but-unrecovered incident of this
  // server (relapses re-open as new transitions arrive only via new
  // injections, mirroring the router's MTTR folding).
  for (Incident& inc : incidents_) {
    if (inc.server == server && inc.detected_ns >= 0 &&
        inc.recovered_ns < 0) {
      inc.recovered_ns = t;
    }
  }
}

void IncidentLog::Mitigation(int server, const char* what,
                             sim::TimePoint at) {
  if (!enabled_) return;
  const std::int64_t t = at.nanos();
  for (Incident& inc : incidents_) {
    if (server >= 0 && inc.server != server) continue;
    if (inc.detected_ns < 0 || inc.mitigated_ns >= 0 ||
        inc.recovered_ns >= 0) {
      continue;
    }
    inc.mitigated_ns = t;
    inc.mitigation = what;
    if (server >= 0) return;  // targeted action mitigates one incident
  }
}

void IncidentLog::RequestOutcome(int server, sim::TimePoint at, bool ok) {
  if (!enabled_) return;
  ++total_requests_;
  if (!ok) ++total_failures_;
  for (Incident& inc : incidents_) {
    if (inc.server != server || !Open(inc, at)) continue;
    ++inc.requests_impacted;
    if (!ok) ++inc.failures_impacted;
  }
}

void IncidentLog::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  const double overall =
      total_requests_ == 0
          ? 1.0
          : 1.0 - static_cast<double>(total_failures_) /
                      static_cast<double>(total_requests_);
  for (Incident& inc : incidents_) {
    const double window =
        inc.requests_impacted == 0
            ? overall
            : 1.0 - static_cast<double>(inc.failures_impacted) /
                        static_cast<double>(inc.requests_impacted);
    inc.goodput_dip = overall - window;
  }
}

namespace {

void WriteField(std::ostream& os, const char* key, std::int64_t v,
                bool last = false) {
  os << '"' << key << "\": " << v;
  if (!last) os << ", ";
}

}  // namespace

void IncidentLog::WriteJson(std::ostream& os) const {
  os << "{\n  \"incidents\": [";
  bool first = true;
  for (const Incident& inc : incidents_) {
    if (!first) os << ',';
    first = false;
    os << "\n    {\"server\": " << inc.server << ", \"kind\": \"" << inc.kind
       << "\", ";
    WriteField(os, "injected_ns", inc.injected_ns);
    WriteField(os, "window_ns", inc.window_ns);
    WriteField(os, "detected_ns", inc.detected_ns);
    WriteField(os, "mitigated_ns", inc.mitigated_ns);
    WriteField(os, "recovered_ns", inc.recovered_ns);
    os << "\"mitigation\": \"" << inc.mitigation << "\", ";
    WriteField(os, "requests_impacted",
               static_cast<std::int64_t>(inc.requests_impacted));
    WriteField(os, "failures_impacted",
               static_cast<std::int64_t>(inc.failures_impacted));
    os << "\"goodput_dip\": " << inc.goodput_dip << '}';
  }
  if (!first) os << "\n  ";
  os << "],\n  \"total_requests\": " << total_requests_
     << ",\n  \"total_failures\": " << total_failures_ << "\n}\n";
}

void IncidentLog::Annotate(Tracer& tracer) const {
  for (const Incident& inc : incidents_) {
    const std::int64_t end_ns =
        inc.recovered_ns >= 0 ? inc.recovered_ns
                              : inc.injected_ns + inc.window_ns;
    const char* name = tracer.Intern("incident-" + inc.kind + "@server" +
                                     std::to_string(inc.server));
    tracer.AddSpan("incident", name, Tracer::kIncidentTrack,
                   sim::TimePoint() + sim::Duration::Nanos(inc.injected_ns),
                   sim::TimePoint() + sim::Duration::Nanos(end_ns));
    if (inc.detected_ns >= 0) {
      tracer.AddInstant("incident", "detected", Tracer::kIncidentTrack,
                        sim::TimePoint() +
                            sim::Duration::Nanos(inc.detected_ns));
    }
    if (inc.mitigated_ns >= 0) {
      const char* mit = tracer.Intern("mitigated:" + inc.mitigation);
      tracer.AddInstant("incident", mit, Tracer::kIncidentTrack,
                        sim::TimePoint() +
                            sim::Duration::Nanos(inc.mitigated_ns));
    }
    if (inc.recovered_ns >= 0) {
      tracer.AddInstant("incident", "recovered", Tracer::kIncidentTrack,
                        sim::TimePoint() +
                            sim::Duration::Nanos(inc.recovered_ns));
    }
  }
}

}  // namespace olympian::metrics
