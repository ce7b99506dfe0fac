#pragma once

#include <cstdint>

namespace olympian::metrics {

// Per-request causal identity, handed from serving::Experiment to the
// Executor via graph::JobContext; the executor stamps it onto attempt spans.
//
// `request` is assigned once per client request by the serving layer
// (monotonic, 1-based; 0 means "no tracing identity") and is reused
// verbatim by every retry and failover re-admission of that request. It
// doubles as the Chrome-trace flow id, so everything a request caused
// renders as one arrow chain across device tracks.
//
// POD by design: copied into JobContext on the hot path, never allocated.
struct TraceContext {
  std::uint64_t request = 0;  // 0 => untraced
};

}  // namespace olympian::metrics
