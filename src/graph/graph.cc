#include "graph/graph.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace olympian::graph {

std::int64_t Node::BlocksFor(int batch) const {
  const double b = blocks_base + blocks_per_item * batch;
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(b)));
}

NodeId Graph::AddNode(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node.id = id;
  for (NodeId in : node.inputs) {
    if (in < 0 || in >= id) {
      throw std::logic_error("node input must reference an earlier node");
    }
    nodes_[static_cast<size_t>(in)].outputs.push_back(id);
  }
  if (node.is_gpu()) ++gpu_nodes_;
  in_degrees_.push_back(static_cast<std::int32_t>(node.inputs.size()));
  nodes_.push_back(std::move(node));
  return id;
}

void Graph::Validate() const {
  if (nodes_.empty()) throw std::logic_error("empty graph");
  if (!nodes_[0].inputs.empty()) {
    throw std::logic_error("node 0 must be the source");
  }
  // Ids are append-ordered and inputs always reference earlier nodes, so the
  // graph is acyclic by construction; check connectivity and edge symmetry.
  std::vector<char> reachable(nodes_.size(), 0);
  std::vector<NodeId> stack{0};
  reachable[0] = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (NodeId out : nodes_[static_cast<size_t>(n)].outputs) {
      if (!reachable[static_cast<size_t>(out)]) {
        reachable[static_cast<size_t>(out)] = 1;
        stack.push_back(out);
      }
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!reachable[i]) {
      throw std::logic_error("node " + nodes_[i].name +
                             " unreachable from the source");
    }
    if (i > 0 && nodes_[i].inputs.empty()) {
      throw std::logic_error("multiple sources: node " + nodes_[i].name);
    }
    if (nodes_[i].is_gpu() && nodes_[i].block_work < sim::Duration::Zero()) {
      throw std::logic_error("negative block work on " + nodes_[i].name);
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
