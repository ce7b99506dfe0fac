#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "serving/server.h"

namespace olympian::serving {

// A declarative experiment description, parseable from a simple text format
// so operators can run what-if comparisons without recompiling:
//
//   # comment
//   seed 42
//   gpus 1
//   pool-threads 300
//   policy fair              # none = stock TF-Serving
//   quantum-us 1600
//   client inception-v4 batch=100 n=10 weight=2 priority=0
//   client resnet-152  batch=100 n=10 interarrival-ms=500
//
// Unknown keys are errors (typos should not silently change experiments),
// and so are stray tokens and numbers with trailing characters or out of
// range: gpus, pool-threads, quantum-us, batch, n and weight are >= 1,
// interarrival-ms is >= 0.
struct WorkloadSpec {
  std::uint64_t seed = 1;
  int num_gpus = 1;
  std::size_t pool_threads = 300;
  // "none" (stock TF-Serving) or a core::MakePolicy name.
  std::string policy = "none";
  sim::Duration quantum = sim::Duration::Micros(1600);
  std::vector<ClientSpec> clients;

  ServerOptions ToServerOptions() const;

  // Parses the format above. Throws std::invalid_argument with a line
  // number on malformed input.
  static WorkloadSpec Parse(std::istream& is);
  static WorkloadSpec ParseString(const std::string& text);
  static WorkloadSpec LoadFile(const std::string& path);
};

}  // namespace olympian::serving
