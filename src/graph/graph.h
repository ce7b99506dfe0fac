#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"

namespace olympian::graph {

using NodeId = std::int32_t;

// Where a node's kernel runs. GPU nodes are asynchronous: the executor hands
// them to a thread-pool thread which blocks on kernel completion, exactly as
// TF-Serving does (paper Algorithm 1, lines 13-15).
enum class Device { kCpu, kGpu };

// One operator in a dataflow graph: exactly what execution reads. Edges live
// in the owning Graph, so a node is a flat 48-byte record.
//
// Work is parameterized by batch size with an explicit linear model —
// `thread_blocks = blocks_base + blocks_per_item * batch` — which is what
// makes the paper's linear cost extrapolation across batch sizes (§3.2,
// Figure 20) physically true in this simulation.
struct Node {
  NodeId id = -1;
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

  bool is_gpu() const { return device == Device::kGpu; }

  // Thread blocks launched for a given batch size (>= 1 for GPU nodes).
  std::int64_t BlocksFor(int batch) const;
};
static_assert(sizeof(Node) <= 48,
              "the executor reads one Node per node it runs; keep it 48 bytes");

// A DNN dataflow graph, immutable once finished. Node 0 is always the single
// source (the input/batching node); the graph must be a connected DAG.
//
// Builders add nodes with AddNode and then call Finish, which validates the
// graph and lays every node's children into one CSR (compressed sparse row)
// pair of arrays: `outputs(id)` is a span of one shared id array, so no node
// owns a heap allocation.
class Graph {
 public:
  explicit Graph(std::string name) : name_(std::move(name)) {}

  // Reserves room for `nodes` nodes and as many input edges.
  void Reserve(std::size_t nodes);

  // Adds a node wired to `inputs` and returns its id. Inputs must already
  // exist; a repeated input is a repeated edge. Throws std::logic_error
  // after Finish.
  NodeId AddNode(const Node& node, std::span<const NodeId> inputs);

  // Validates the graph (see Validate) and builds its out-edge arrays. Call
  // once, after the last AddNode; only a finished graph can be executed.
  void Finish();
  bool finished() const { return finished_; }

  const std::string& name() const { return name_; }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  // Mutable access for builders (e.g. work-calibration passes) before
  // Finish. Edges are fixed by AddNode.
  Node& MutableNode(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  // Children of `id` in ascending id order, a child listed once per edge.
  // Valid once finished.
  std::span<const NodeId> outputs(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    const NodeId* ids = out_ids_.data();
    return {ids + out_begin_[i], ids + out_begin_[i + 1]};
  }
  // Input count of every node, by id: the executor's per-run pending
  // counters start from a copy of this.
  const std::vector<std::int32_t>& in_degrees() const { return in_degrees_; }
  std::size_t size() const { return nodes_.size(); }
  NodeId root() const { return 0; }

  std::size_t gpu_node_count() const { return gpu_nodes_; }
  std::size_t cpu_node_count() const { return nodes_.size() - gpu_nodes_; }

  // Checks the structural invariants (non-empty, node 0 the single source,
  // no negative kernel work). Throws std::logic_error naming the node
  // ("node-<id>") on violation.
  void Validate() const;

  // Total GPU work (sum over GPU nodes of blocks * block_work) at a batch
  // size; used for calibration and analytical sanity checks.
  sim::Duration TotalGpuWork(int batch) const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> in_degrees_;
  // Every node's inputs, concatenated in node order; Finish turns them into
  // the out-edge arrays and frees them.
  std::vector<NodeId> inputs_;
  // CSR out-edges: node i's children are out_ids_[out_begin_[i],
  // out_begin_[i + 1]).
  std::vector<std::int32_t> out_begin_;
  std::vector<NodeId> out_ids_;
  std::size_t gpu_nodes_ = 0;
  bool finished_ = false;
};

}  // namespace olympian::graph
