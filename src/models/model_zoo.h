#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace olympian::models {

// Static description of one of the paper's seven DNNs (Table 2) plus the
// generation parameters used to synthesize a dataflow graph with the same
// shape: node count, GPU-node count, solo runtime at the paper's batch
// size, and the Figure-4 node-duration distribution.
struct ModelSpec {
  std::string name;

  // --- paper Table 2 ----------------------------------------------------
  int paper_batch = 100;
  int total_nodes = 10000;
  int gpu_nodes = 8500;
  double paper_runtime_s = 0.8;  // solo run, one batch, paper hardware

  // --- architecture shape ------------------------------------------------
  // Parallel branch lengths within one segment (e.g. {7,7,7,7} for an
  // Inception module, {6,1} for a residual block, {8} for VGG's chain).
  std::vector<int> branch_lengths;
  // Fraction of GPU work carried by rare "heavy" kernels (big convolutions).
  double heavy_work_share = 0.85;
  // Fraction of branch nodes that are heavy.
  double heavy_node_frac = 0.05;
  // Graph-generation seed (fixed per model: the graph is deterministic).
  std::uint64_t graph_seed = 1;

  // --- memory footprint (for §4.3 scaling) -------------------------------
  std::int64_t params_mb = 100;
  double activation_mb_per_item = 1.0;

  // Device memory one serving client needs at a batch size (activations;
  // parameters are shared across clients and charged once per model).
  std::int64_t ClientMemoryMb(int batch) const;
};

// All seven models of the paper's Table 2.
const std::vector<ModelSpec>& AllModels();

// Lookup by name ("inception-v4", "googlenet", "alexnet", "vgg16",
// "resnet-50", "resnet-101", "resnet-152"). Throws std::out_of_range for
// unknown names.
const ModelSpec& GetModel(const std::string& name);

// Profile-map key for a (model, batch) pair, e.g. "inception-v4@100".
std::string ModelKey(const std::string& model, int batch);

// Synthesize the finished dataflow graph for `spec`. Deterministic in
// (spec); the batch size is applied at execution time via Node::BlocksFor,
// so one graph serves every batch size.
//
// Calibration: per-block work durations are normalized so that the total
// GPU work at `spec.paper_batch` equals `spec.paper_runtime_s` scaled by
// the reference device's parallelism — making a solo run on the reference
// GPU (GTX-1080Ti model) land near the paper's Table-2 runtime, with the
// workload GPU-bound as on the real testbed.
graph::Graph BuildModel(const ModelSpec& spec);

// The process-wide graph of zoo model `name`: built by BuildModel on the
// first call for that name and shared, immutable, by every caller after it
// (every Experiment and Profiler in the process, on any thread). The first
// call is thread-safe; concurrent first callers get one instance. Throws
// std::out_of_range for unknown names, like GetModel.
const graph::Graph& SharedModel(const std::string& name);

}  // namespace olympian::models
