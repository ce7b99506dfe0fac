#include "graph/graph.h"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace olympian::graph {

std::int64_t Node::BlocksFor(int batch) const {
  const double b = blocks_base + blocks_per_item * batch;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(b)));
}

void Graph::Reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  in_degrees_.reserve(nodes);
  inputs_.reserve(nodes);
}

NodeId Graph::AddNode(const Node& node, std::span<const NodeId> inputs) {
  if (finished_) throw std::logic_error("graph " + name_ + " is finished");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (const NodeId in : inputs) {
    if (in < 0 || in >= id) {
      throw std::logic_error("node input must reference an earlier node");
    }
  }
  inputs_.insert(inputs_.end(), inputs.begin(), inputs.end());
  in_degrees_.push_back(static_cast<std::int32_t>(inputs.size()));
  Node& added = nodes_.emplace_back(node);
  added.id = id;
  if (added.is_gpu()) ++gpu_nodes_;
  return id;
}

void Graph::Finish() {
  if (finished_) throw std::logic_error("graph " + name_ + " is finished");
  Validate();
  // Counting sort of the edges by input node. Children are taken in
  // ascending id, so each node's children come out in ascending order, a
  // repeated input once per edge.
  out_begin_.assign(nodes_.size() + 1, 0);
  for (const NodeId in : inputs_) {
    ++out_begin_[static_cast<std::size_t>(in) + 1];
  }
  std::partial_sum(out_begin_.begin(), out_begin_.end(), out_begin_.begin());
  out_ids_.resize(inputs_.size());
  std::vector<std::int32_t> next(out_begin_.begin(), out_begin_.end() - 1);
  std::size_t edge = 0;
  for (std::size_t child = 0; child < nodes_.size(); ++child) {
    for (std::int32_t k = 0; k < in_degrees_[child]; ++k, ++edge) {
      const auto in = static_cast<std::size_t>(inputs_[edge]);
      out_ids_[static_cast<std::size_t>(next[in]++)] =
          static_cast<NodeId>(child);
    }
  }
  std::vector<NodeId>().swap(inputs_);
  finished_ = true;
}

void Graph::Validate() const {
  if (nodes_.empty()) throw std::logic_error("empty graph");
  // Ids are append-ordered and AddNode accepts only earlier inputs, so node
  // 0 has none and the graph is acyclic; once every later node has an
  // input, each is reachable from node 0.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0 && in_degrees_[i] == 0) {
      throw std::logic_error("multiple sources: node-" + std::to_string(i));
    }
    if (nodes_[i].is_gpu() && nodes_[i].block_work < sim::Duration::Zero()) {
      throw std::logic_error("negative block work on node-" +
                             std::to_string(i));
    }
  }
}

sim::Duration Graph::TotalGpuWork(int batch) const {
  sim::Duration total;
  for (const Node& n : nodes_) {
    if (!n.is_gpu()) continue;
    total += n.block_work * static_cast<double>(n.BlocksFor(batch));
  }
  return total;
}

}  // namespace olympian::graph
