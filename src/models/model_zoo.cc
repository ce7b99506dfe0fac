#include "models/model_zoo.h"

#include <cmath>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>

#include "gpusim/gpu_spec.h"
#include "sim/random.h"

namespace olympian::models {

namespace {

using graph::Device;
using graph::Graph;
using graph::Node;
using graph::NodeId;
using sim::Duration;

// Fraction of a solo run's wall time spent saturating the GPU. The paper's
// workloads are GPU-bound at their Table-2 batch sizes (two concurrent
// Inception jobs take twice as long as one, §2.3); 0.92 leaves room for
// CPU-side ramp-up/drain.
constexpr double kGpuWorkFraction = 0.88;

// log-normal helper parameterized by median.
Duration LogNormalDuration(sim::Rng& rng, double median_us, double sigma) {
  const double v = rng.LogNormal(std::log(median_us * 1e3), sigma);
  return Duration::Nanos(static_cast<std::int64_t>(v));
}

}  // namespace

std::int64_t ModelSpec::ClientMemoryMb(int batch) const {
  return static_cast<std::int64_t>(
      std::ceil(activation_mb_per_item * static_cast<double>(batch)));
}

const std::vector<ModelSpec>& AllModels() {
  static const std::vector<ModelSpec> kModels = {
      // Paper Table 2 rows. branch_lengths reflect each architecture's
      // characteristic parallel width: 4-way Inception modules, 3-way
      // GoogLeNet modules, AlexNet's two grouped towers, VGG's plain chain,
      // and residual blocks (main path + shortcut).
      {.name = "inception-v4",
       .paper_batch = 150,
       .total_nodes = 15599,
       .gpu_nodes = 13309,
       .paper_runtime_s = 0.81,
       .branch_lengths = {7, 7, 7, 7},
       .heavy_work_share = 0.88,
       .heavy_node_frac = 0.15,
       .graph_seed = 101,
       .params_mb = 163,
       .activation_mb_per_item = 1.05},
      {.name = "googlenet",
       .paper_batch = 200,
       .total_nodes = 18980,
       .gpu_nodes = 15948,
       .paper_runtime_s = 1.09,
       .branch_lengths = {6, 6, 6},
       .heavy_work_share = 0.88,
       .heavy_node_frac = 0.15,
       .graph_seed = 102,
       .params_mb = 27,
       .activation_mb_per_item = 1.10},
      {.name = "alexnet",
       .paper_batch = 256,
       .total_nodes = 23774,
       .gpu_nodes = 19902,
       .paper_runtime_s = 1.13,
       .branch_lengths = {5, 5},
       .heavy_work_share = 0.85,
       .heavy_node_frac = 0.12,
       .graph_seed = 103,
       .params_mb = 233,
       .activation_mb_per_item = 0.85},
      {.name = "vgg16",
       .paper_batch = 120,
       .total_nodes = 11297,
       .gpu_nodes = 9965,
       .paper_runtime_s = 0.83,
       .branch_lengths = {9},
       .heavy_work_share = 0.92,
       .heavy_node_frac = 0.22,
       .graph_seed = 104,
       .params_mb = 528,
       .activation_mb_per_item = 2.00},
      {.name = "resnet-50",
       .paper_batch = 144,
       .total_nodes = 14472,
       .gpu_nodes = 12280,
       .paper_runtime_s = 0.79,
       .branch_lengths = {6, 1},
       .heavy_work_share = 0.88,
       .heavy_node_frac = 0.15,
       .graph_seed = 105,
       .params_mb = 98,
       .activation_mb_per_item = 1.45},
      {.name = "resnet-101",
       .paper_batch = 128,
       .total_nodes = 14034,
       .gpu_nodes = 12082,
       .paper_runtime_s = 0.85,
       .branch_lengths = {6, 1},
       .heavy_work_share = 0.88,
       .heavy_node_frac = 0.15,
       .graph_seed = 106,
       .params_mb = 170,
       .activation_mb_per_item = 1.60},
      {.name = "resnet-152",
       .paper_batch = 100,
       .total_nodes = 12495,
       .gpu_nodes = 10963,
       .paper_runtime_s = 0.80,
       .branch_lengths = {6, 1},
       .heavy_work_share = 0.88,
       .heavy_node_frac = 0.15,
       .graph_seed = 107,
       .params_mb = 230,
       .activation_mb_per_item = 2.10},
  };
  return kModels;
}

const ModelSpec& GetModel(const std::string& name) {
  for (const ModelSpec& m : AllModels()) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("unknown model: " + name);
}

std::string ModelKey(const std::string& model, int batch) {
  return model + "@" + std::to_string(batch);
}

Graph BuildModel(const ModelSpec& spec) {
  if (spec.branch_lengths.empty()) {
    throw std::invalid_argument("model needs at least one branch");
  }
  sim::Rng rng(spec.graph_seed);
  Graph g(spec.name);
  g.Reserve(static_cast<std::size_t>(spec.total_nodes));

  // Structure: `segments` sequential stages, each a set of parallel pure-GPU
  // branch chains joined by a GPU merge node, plus CPU "administrative" side
  // nodes hanging off each merge. CPU nodes sit OFF the GPU data path — as
  // in real TF graphs, where inline host ops would stall the stream — so
  // they overlap with the job's own kernels instead of bubbling the device.
  int branch_sum = 0;
  for (int l : spec.branch_lengths) branch_sum += l;
  const int per_segment_gpu = branch_sum + 1;  // + merge node
  const int segments = std::max(1, spec.gpu_nodes / per_segment_gpu);
  const int pad_gpu = spec.gpu_nodes - segments * per_segment_gpu;
  const int cpu_side_total = spec.total_nodes - spec.gpu_nodes - 1;  // - input
  if (cpu_side_total < 0) {
    throw std::invalid_argument("gpu_nodes exceeds total_nodes");
  }

  std::int64_t gpu_left = spec.gpu_nodes;
  std::int64_t heavy_left = static_cast<std::int64_t>(
      std::llround(spec.heavy_node_frac * static_cast<double>(spec.gpu_nodes)));

  std::vector<bool> is_heavy;  // by node id, for the calibration pass
  auto add_gpu_node = [&](std::span<const NodeId> inputs) {
    Node n;
    n.device = Device::kGpu;
    // Kernel-launch path. Kept small: real TF enqueues kernels into CUDA
    // streams asynchronously, so back-to-back kernels of one job leave
    // almost no pipeline bubble even when the graph is a narrow chain.
    n.cpu_time = LogNormalDuration(rng, 0.5, 0.5);
    const bool heavy = rng.NextDouble() < static_cast<double>(heavy_left) /
                                              static_cast<double>(gpu_left);
    --gpu_left;
    // Kernels are pixel-level data-parallel over the whole batch: at the
    // paper's batch sizes their block counts meet or exceed the device's
    // resident-block capacity, so concurrent requests get essentially no
    // spatial multiplexing (paper §2.3).
    if (heavy) {
      --heavy_left;
      n.block_work = LogNormalDuration(rng, 150.0, 0.45);
      n.blocks_base = rng.Uniform(0.0, 16.0);
      n.blocks_per_item = rng.Uniform(4.0, 10.0);
    } else {
      n.block_work = LogNormalDuration(rng, 8.0, 0.9);
      n.blocks_base = rng.Uniform(0.0, 8.0);
      n.blocks_per_item = rng.Uniform(2.5, 6.0);
    }
    const NodeId id = g.AddNode(n, inputs);
    is_heavy.push_back(heavy);
    return id;
  };
  auto add_cpu_node = [&](NodeId input) {
    Node n;
    n.device = Device::kCpu;
    n.cpu_time = LogNormalDuration(rng, 10.0, 0.8);
    g.AddNode(n, {&input, 1});
    is_heavy.push_back(false);
  };

  // Input / batching node (CPU; decode cost scales with batch, §2.1).
  {
    Node input;
    input.device = Device::kCpu;
    input.cpu_time = Duration::Micros(30);
    input.cpu_time_per_item = Duration::Micros(50);
    g.AddNode(input, {});
    is_heavy.push_back(false);
  }

  NodeId prev = 0;
  int cpu_emitted = 0;
  std::vector<NodeId> ends;  // each branch's last node, inputs of the merge
  ends.reserve(spec.branch_lengths.size());
  for (int s = 0; s < segments; ++s) {
    ends.clear();
    for (const int length : spec.branch_lengths) {
      NodeId cur = prev;
      for (int i = 0; i < length; ++i) cur = add_gpu_node({&cur, 1});
      ends.push_back(cur);
    }
    prev = add_gpu_node(ends);
    // Evenly spread administrative CPU side nodes (no downstream consumers).
    const int cpu_target =
        static_cast<int>(static_cast<std::int64_t>(cpu_side_total) * (s + 1) /
                         segments);
    for (; cpu_emitted < cpu_target; ++cpu_emitted) add_cpu_node(prev);
  }
  for (int i = 0; i < pad_gpu; ++i) prev = add_gpu_node({&prev, 1});

  // --- calibration -------------------------------------------------------
  // Normalize per-block work so total GPU work at the paper batch size
  // equals the Table-2 runtime scaled by the reference device parallelism,
  // split heavy_work_share : (1 - heavy_work_share) between heavy kernels
  // and the rest. "Heavy" after generation = top blocks_per_item >= 1.0.
  const double slots = static_cast<double>(
      gpusim::GpuSpec::Gtx1080Ti().total_block_slots());
  const double target_slot_ns =
      spec.paper_runtime_s * kGpuWorkFraction * slots * 1e9;
  double heavy_raw = 0, small_raw = 0;
  for (const Node& n : g.nodes()) {
    if (!n.is_gpu()) continue;
    const double w = static_cast<double>(n.BlocksFor(spec.paper_batch)) *
                     static_cast<double>(n.block_work.nanos());
    (is_heavy[static_cast<std::size_t>(n.id)] ? heavy_raw : small_raw) += w;
  }
  const double heavy_scale =
      heavy_raw > 0 ? target_slot_ns * spec.heavy_work_share / heavy_raw : 0;
  const double small_scale =
      small_raw > 0 ? target_slot_ns * (1.0 - spec.heavy_work_share) / small_raw
                    : 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    Node& n = g.MutableNode(static_cast<NodeId>(i));
    if (!n.is_gpu()) continue;
    n.block_work = n.block_work * (is_heavy[i] ? heavy_scale : small_scale);
  }

  g.Finish();
  return g;
}

const graph::Graph& SharedModel(const std::string& name) {
  struct Slot {
    std::once_flag built;
    std::optional<Graph> graph;
  };
  const ModelSpec& spec = GetModel(name);  // throws for unknown names
  static std::vector<Slot> slots(AllModels().size());
  Slot& slot = slots[static_cast<std::size_t>(&spec - AllModels().data())];
  std::call_once(slot.built, [&] { slot.graph.emplace(BuildModel(spec)); });
  return *slot.graph;
}

}  // namespace olympian::models
