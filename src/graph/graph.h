#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace olympian::graph {

using NodeId = std::int32_t;

// Where a node's kernel runs. GPU nodes are asynchronous: the executor hands
// them to a thread-pool thread which blocks on kernel completion, exactly as
// TF-Serving does (paper Algorithm 1, lines 13-15).
enum class Device { kCpu, kGpu };

// Broad operator classes; they only affect naming/statistics, not the
// execution model (which is driven by the per-node work parameters).
enum class OpKind {
  kInput,
  kConv,
  kMatMul,
  kPool,
  kNorm,
  kActivation,
  kConcat,
  kAdd,
  kSoftmax,
  kIdentity,
};

// One operator in a dataflow graph.
//
// Work is parameterized by batch size with an explicit linear model —
// `thread_blocks = blocks_base + blocks_per_item * batch` — which is what
// makes the paper's linear cost extrapolation across batch sizes (§3.2,
// Figure 20) physically true in this simulation.
struct Node {
  NodeId id = -1;
  std::string name;
  OpKind op = OpKind::kIdentity;
  Device device = Device::kCpu;

  // CPU-side processing (the whole node for CPU nodes; launch/bookkeeping
  // for GPU nodes). Total CPU time is cpu_time + cpu_time_per_item * batch;
  // the per-item term models input decode/batching work (paper §2.1).
  sim::Duration cpu_time;
  sim::Duration cpu_time_per_item;

  // GPU kernel shape (ignored for CPU nodes).
  double blocks_base = 0.0;
  double blocks_per_item = 0.0;
  sim::Duration block_work;

  std::vector<NodeId> inputs;
  std::vector<NodeId> outputs;

  bool is_gpu() const { return device == Device::kGpu; }

  // Thread blocks launched for a given batch size (>= 1 for GPU nodes).
  std::int64_t BlocksFor(int batch) const;
};

// An immutable-after-build DNN dataflow graph. Node 0 is always the single
// source (the input/batching node); the graph must be a connected DAG.
class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  // Adds a node and returns its id. Inputs must already exist.
  NodeId AddNode(Node node);

  const std::string& name() const { return name_; }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  // Mutable access for builders (e.g. work-calibration passes). Edges are
  // fixed by AddNode; builders must not edit `inputs` or `outputs`.
  Node& MutableNode(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  // Input count of every node, by id: the executor's per-run pending
  // counters start from a copy of this.
  const std::vector<std::int32_t>& in_degrees() const { return in_degrees_; }
  std::size_t size() const { return nodes_.size(); }
  NodeId root() const { return 0; }

  std::size_t gpu_node_count() const { return gpu_nodes_; }
  std::size_t cpu_node_count() const { return nodes_.size() - gpu_nodes_; }

  // Checks the structural invariants (single source at id 0, acyclic,
  // edges consistent, every node reachable from the root). Throws
  // std::logic_error on violation. Model builders call this once.
  void Validate() const;

  // Total GPU work (sum over GPU nodes of blocks * block_work) at a batch
  // size; used for calibration and analytical sanity checks.
  sim::Duration TotalGpuWork(int batch) const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> in_degrees_;
  std::size_t gpu_nodes_ = 0;
};

}  // namespace olympian::graph
