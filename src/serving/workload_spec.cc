#include "serving/workload_spec.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace olympian::serving {

namespace {

[[noreturn]] void Fail(int line, const std::string& what) {
  throw std::invalid_argument("workload spec line " + std::to_string(line) +
                              ": " + what);
}

// Parses all of `text` as a T in [lo, hi]. A sign the type cannot hold,
// trailing characters, overflow or a value out of range fails with the line.
template <typename T>
T ParseNumber(int line, const std::string& key, const std::string& text, T lo,
              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    Fail(line, "bad value for '" + key + "': '" + text + "'");
  }
  return value;
}

// Largest count of `unit` that fits a Duration's int64 nanoseconds.
constexpr std::int64_t MaxCount(sim::Duration unit) {
  return std::numeric_limits<std::int64_t>::max() / unit.nanos();
}

// Parses "key=value" into the matching ClientSpec field.
void ApplyClientAttr(ClientSpec& c, const std::string& attr, int line) {
  const auto eq = attr.find('=');
  if (eq == std::string::npos) Fail(line, "expected key=value, got " + attr);
  const std::string key = attr.substr(0, eq);
  const std::string value = attr.substr(eq + 1);
  if (key == "batch") {
    c.batch = ParseNumber(line, key, value, 1);
  } else if (key == "n") {
    c.num_batches = ParseNumber(line, key, value, 1);
  } else if (key == "weight") {
    c.weight = ParseNumber(line, key, value, 1);
  } else if (key == "priority") {
    c.priority = ParseNumber(line, key, value, std::numeric_limits<int>::min());
  } else if (key == "interarrival-ms") {
    c.mean_interarrival = sim::Duration::Millis(ParseNumber<std::int64_t>(
        line, key, value, 0, MaxCount(sim::Duration::Millis(1))));
  } else {
    Fail(line, "unknown client attribute '" + key + "'");
  }
}

}  // namespace

ServerOptions WorkloadSpec::ToServerOptions() const {
  ServerOptions opts;
  opts.seed = seed;
  opts.num_gpus = num_gpus;
  opts.pool_threads = pool_threads;
  return opts;
}

WorkloadSpec WorkloadSpec::Parse(std::istream& is) {
  WorkloadSpec spec;
  std::string raw;
  int line = 0;
  while (std::getline(is, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string key;
    if (!(ls >> key)) continue;  // blank/comment line
    std::string value;  // empty when missing, which every parser rejects
    ls >> value;
    if (key == "seed") {
      spec.seed = ParseNumber<std::uint64_t>(line, key, value, 0);
    } else if (key == "gpus") {
      spec.num_gpus = ParseNumber(line, key, value, 1);
    } else if (key == "pool-threads") {
      spec.pool_threads = ParseNumber<std::size_t>(line, key, value, 1);
    } else if (key == "policy") {
      if (value.empty()) Fail(line, "policy needs a name");
      spec.policy = value;
    } else if (key == "quantum-us") {
      spec.quantum = sim::Duration::Micros(ParseNumber<std::int64_t>(
          line, key, value, 1, MaxCount(sim::Duration::Micros(1))));
    } else if (key == "client") {
      if (value.empty()) Fail(line, "client needs a model name");
      ClientSpec c;
      c.model = value;
      std::string attr;
      while (ls >> attr) ApplyClientAttr(c, attr, line);
      spec.clients.push_back(std::move(c));
    } else {
      Fail(line, "unknown directive '" + key + "'");
    }
    if (std::string extra; ls >> extra) {
      Fail(line, "unexpected '" + extra + "' after " + key + " " + value);
    }
  }
  if (spec.clients.empty()) {
    throw std::invalid_argument("workload spec has no clients");
  }
  return spec;
}

WorkloadSpec WorkloadSpec::ParseString(const std::string& text) {
  std::istringstream is(text);
  return Parse(is);
}

WorkloadSpec WorkloadSpec::LoadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open workload spec " + path);
  return Parse(is);
}

}  // namespace olympian::serving
