#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace olympian::metrics {

class MetricRegistry;

// Structured execution tracing with Chrome trace-event export.
//
// Components (executor, scheduler) record spans — named intervals on a
// numbered track — and the result loads directly into chrome://tracing or
// Perfetto: tracks become "threads" (one per job, plus a scheduler track),
// so a run's token tenures, node executions, and kernel waits are visible
// on one timeline.
//
// Flow events (`AddFlow`) draw arrows between slices on different tracks.
// The serving layer uses one flow per request (flow id = request id) to
// stitch a request's retries and failover re-admissions into a single
// causal chain across device tracks.
//
// Hot path: recording is allocation-free. Events are PODs holding
// `const char*` names (string literals, or strings interned once via
// Intern()) and are appended into storage preallocated for `max_events`
// at construction. Per-tenure names that embed a changing integer (e.g.
// "job-17") use the *Numbered variants, which store the integer and render
// it only at export time instead of composing a std::string per event.
//
// Recording stops once `max_events` is reached (a full serving run executes
// millions of nodes; traces are for inspecting windows, not whole runs).
// Truncation is not silent: dropped events are counted, exposed via
// dropped(), and stamped into the Chrome export as a metadata record.
class Tracer {
 public:
  explicit Tracer(std::size_t max_events = 200000) : max_events_(max_events) {
    events_.reserve(max_events_);
  }

  // Track used by the scheduler for token tenures.
  static constexpr std::int64_t kSchedulerTrack = -1;
  // Track used by the fault injector for injected fault events.
  static constexpr std::int64_t kFaultTrack = -2;
  // Track used by the health monitor for device state transitions and
  // outage spans.
  static constexpr std::int64_t kHealthTrack = -3;
  // Track used by IncidentLog::Annotate for incident spans and their
  // detection/mitigation/recovery marks.
  static constexpr std::int64_t kIncidentTrack = -4;

  // Sentinel: event has no numeric name suffix.
  static constexpr std::int64_t kNoNumber = INT64_MIN;

  // Flow-event phase: a flow starts on one slice (kBegin), optionally
  // passes through others (kStep), and terminates (kEnd). Chrome phases
  // "s"/"t"/"f".
  enum class FlowPhase : char { kBegin = 's', kStep = 't', kEnd = 'f' };

  // `name` must outlive the tracer: a string literal, a stable component
  // name, or the result of Intern(). The Add* recorders are defined inline
  // (below the class) — on per-node paths the call is a bounds check plus a
  // POD store, cheap enough to leave tracing compiled in everywhere.
  void AddSpan(const char* category, const char* name, std::int64_t track,
               sim::TimePoint start, sim::TimePoint end);
  void AddInstant(const char* category, const char* name, std::int64_t track,
                  sim::TimePoint t);

  // As above, but the exported name is `name` immediately followed by
  // `number` in decimal (e.g. "job-" + 17 → "job-17"). Avoids composing a
  // heap string per event on per-quantum paths.
  void AddSpanNumbered(const char* category, const char* name,
                       std::int64_t number, std::int64_t track,
                       sim::TimePoint start, sim::TimePoint end);
  void AddInstantNumbered(const char* category, const char* name,
                          std::int64_t number, std::int64_t track,
                          sim::TimePoint t);

  // Records one hop of flow `flow_id` at time `t` on `track`. The exported
  // name is `name` followed by `flow_id` in decimal. To bind to a slice in
  // Perfetto the timestamp must fall inside a slice on the same track; the
  // serving layer emits hops at attempt start, which coincides with the
  // attempt span's start.
  void AddFlow(FlowPhase phase, const char* category, const char* name,
               std::uint64_t flow_id, std::int64_t track, sim::TimePoint t);

  // As above, with a `reason` annotation rendered as args:{"reason":...} in
  // the Chrome export: why this leg of the request started (a kStep after a
  // failover or retry) or how the flow ended (a kEnd's terminal
  // outcome). `detail` must outlive the tracer (literal or Intern()ed);
  // nullptr elides the annotation.
  void AddFlow(FlowPhase phase, const char* category, const char* name,
               std::uint64_t flow_id, std::int64_t track, sim::TimePoint t,
               const char* detail);

  // Records a Chrome counter event ('C'): `value` plotted at `t` under the
  // counter named `name`. Perfetto renders each counter name as its own
  // chart on the trace timeline, which is how the sampler's utilization /
  // queue-depth / health series line up with flow chains and incident
  // marks (see ExportCountersToTrace).
  void AddCounter(const char* category, const char* name, std::int64_t track,
                  sim::TimePoint t, double value);

  // Returns a pointer, stable for the tracer's lifetime, to a deduplicated
  // copy of `s`. For cold paths that compose names dynamically (health
  // transitions, fault descriptions); repeated strings are stored once.
  const char* Intern(std::string_view s);

  std::size_t size() const { return events_.size(); }
  std::size_t max_events() const { return max_events_; }
  bool full() const { return events_.size() >= max_events_; }
  // Number of events rejected because the tracer was full.
  std::uint64_t dropped() const { return dropped_; }

  // Appends every event of `src` (re-interning its strings, so `src` may be
  // destroyed afterwards) and folds in its drop count. Respects this
  // tracer's own max_events: events past the cap are counted as dropped,
  // never silently lost. The cluster uses this to fold per-server private
  // trace buffers into the user's tracer in a canonical, shard-count-
  // independent order.
  void MergeFrom(const Tracer& src);

  struct Event {
    const char* category;
    const char* name;
    std::int64_t number;  // kNoNumber => name stands alone
    std::int64_t track;
    std::int64_t start_ns;
    std::int64_t dur_ns;     // -1 => instant or flow hop
    std::uint64_t flow = 0;  // flow id; meaningful only when ph is s/t/f
    char ph = 'X';  // 'X' span, 'i' instant, 's'/'t'/'f' flow, 'C' counter
    // Flow-hop annotation (why the leg started / how the flow ended);
    // nullptr => none. Rendered as args:{"reason":...} on flow phases.
    const char* detail = nullptr;
    double value = 0.0;  // counter ('C') sample value
  };

  // Raw events, for programmatic analysis (tests, custom reports).
  const std::vector<Event>& events() const { return events_; }

  // Chrome trace-event "JSON array" format. When events were dropped, the
  // array ends with a `trace_truncated` metadata instant carrying the drop
  // count so consumers can tell a short trace from a clipped one.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::unordered_set<std::string, StringHash, std::equal_to<>> interned_;
};

inline void Tracer::AddSpan(const char* category, const char* name,
                            std::int64_t track, sim::TimePoint start,
                            sim::TimePoint end) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{category, name, kNoNumber, track, start.nanos(),
                          (end - start).nanos()});
}

inline void Tracer::AddInstant(const char* category, const char* name,
                               std::int64_t track, sim::TimePoint t) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(
      Event{category, name, kNoNumber, track, t.nanos(), -1, 0, 'i'});
}

inline void Tracer::AddSpanNumbered(const char* category, const char* name,
                                    std::int64_t number, std::int64_t track,
                                    sim::TimePoint start, sim::TimePoint end) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{category, name, number, track, start.nanos(),
                          (end - start).nanos()});
}

inline void Tracer::AddInstantNumbered(const char* category, const char* name,
                                       std::int64_t number, std::int64_t track,
                                       sim::TimePoint t) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(
      Event{category, name, number, track, t.nanos(), -1, 0, 'i'});
}

inline void Tracer::AddFlow(FlowPhase phase, const char* category,
                            const char* name, std::uint64_t flow_id,
                            std::int64_t track, sim::TimePoint t) {
  AddFlow(phase, category, name, flow_id, track, t, nullptr);
}

inline void Tracer::AddCounter(const char* category, const char* name,
                               std::int64_t track, sim::TimePoint t,
                               double value) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{category, name, kNoNumber, track, t.nanos(), -1, 0,
                          'C', nullptr, value});
}

// Replays every sampled time series of `registry` into `tracer` as Chrome
// counter events ("metric" category, counter name = series name plus its
// rendered label block), so the sampler's per-device utilization, queue
// depth, and health series appear on the same Perfetto timeline as flow
// chains and incident marks. Deterministic: series iterate in registry key
// order. Call once, after the run, before WriteChromeTrace.
void ExportCountersToTrace(const MetricRegistry& registry, Tracer& tracer);

inline void Tracer::AddFlow(FlowPhase phase, const char* category,
                            const char* name, std::uint64_t flow_id,
                            std::int64_t track, sim::TimePoint t,
                            const char* detail) {
  if (full()) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{category, name, static_cast<std::int64_t>(flow_id),
                          track, t.nanos(), -1, flow_id,
                          static_cast<char>(phase), detail});
}

}  // namespace olympian::metrics
