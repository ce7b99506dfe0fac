// Unit tests for the model zoo: Table-2 fidelity, determinism, and the
// Figure-4 node-duration distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "gpusim/gpu_spec.h"
#include "metrics/stats.h"
#include "models/model_zoo.h"
#include "serving/server.h"

namespace olympian::models {
namespace {

TEST(ModelZooTest, HasAllSevenPaperModels) {
  EXPECT_EQ(AllModels().size(), 7u);
  for (const char* name :
       {"inception-v4", "googlenet", "alexnet", "vgg16", "resnet-50",
        "resnet-101", "resnet-152"}) {
    EXPECT_NO_THROW(GetModel(name)) << name;
  }
}

TEST(ModelZooTest, UnknownModelThrows) {
  EXPECT_THROW(GetModel("mobilenet"), std::out_of_range);
}

TEST(ModelZooTest, ModelKeyFormat) {
  EXPECT_EQ(ModelKey("vgg16", 120), "vgg16@120");
}

TEST(ModelZooTest, ClientMemoryScalesWithBatch) {
  const ModelSpec& m = GetModel("inception-v4");
  EXPECT_GT(m.ClientMemoryMb(100), 0);
  EXPECT_GT(m.ClientMemoryMb(200), m.ClientMemoryMb(100));
}

TEST(ModelZooTest, BuildIsDeterministic) {
  const ModelSpec& spec = GetModel("resnet-152");
  const graph::Graph a = BuildModel(spec);
  const graph::Graph b = BuildModel(spec);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.in_degrees(), b.in_degrees());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<graph::NodeId>(i);
    const auto& na = a.node(id);
    const auto& nb = b.node(id);
    EXPECT_EQ(na.device, nb.device);
    EXPECT_EQ(na.block_work, nb.block_work);
    EXPECT_EQ(na.cpu_time, nb.cpu_time);
    EXPECT_TRUE(std::ranges::equal(a.outputs(id), b.outputs(id))) << i;
  }
}

TEST(SharedModelTest, OneInstancePerNameAcrossCallsAndExperiments) {
  const graph::Graph& g = SharedModel("googlenet");
  EXPECT_EQ(&SharedModel("googlenet"), &g);
  EXPECT_NE(&SharedModel("alexnet"), &g);
  serving::Experiment a(serving::ServerOptions{});
  serving::Experiment b(serving::ServerOptions{});
  EXPECT_EQ(&a.LoadModel("googlenet"), &g);
  EXPECT_EQ(&b.LoadModel("googlenet"), &g);
  EXPECT_EQ(&b.LoadModel("alexnet"), &SharedModel("alexnet"));
}

TEST(SharedModelTest, MatchesBuildModelNodeForNode) {
  for (const char* name : {"googlenet", "resnet-152"}) {
    const graph::Graph& shared = SharedModel(name);
    const graph::Graph built = BuildModel(GetModel(name));
    ASSERT_EQ(shared.size(), built.size()) << name;
    EXPECT_EQ(shared.name(), built.name());
    EXPECT_EQ(shared.in_degrees(), built.in_degrees());
    for (std::size_t i = 0; i < built.size(); ++i) {
      const auto id = static_cast<graph::NodeId>(i);
      const auto& s = shared.node(id);
      const auto& b = built.node(id);
      EXPECT_EQ(s.device, b.device);
      EXPECT_EQ(s.cpu_time, b.cpu_time);
      EXPECT_EQ(s.cpu_time_per_item, b.cpu_time_per_item);
      EXPECT_EQ(s.blocks_base, b.blocks_base);
      EXPECT_EQ(s.blocks_per_item, b.blocks_per_item);
      EXPECT_EQ(s.block_work, b.block_work);
      EXPECT_TRUE(std::ranges::equal(shared.outputs(id), built.outputs(id)))
          << name << " node " << i;
    }
  }
}

TEST(SharedModelTest, UnknownModelThrows) {
  EXPECT_THROW(SharedModel("mobilenet"), std::out_of_range);
}

TEST(SharedModelTest, RacingFirstCallsGetOneInstance) {
  // No other test here asks for vgg16's shared graph, so this is the first
  // call even when the whole binary runs in one process.
  constexpr int kThreads = 8;
  std::vector<const graph::Graph*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, &start, t] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(t)] = &SharedModel("vgg16");
    });
  }
  for (std::thread& th : threads) th.join();
  for (const graph::Graph* g : seen) EXPECT_EQ(g, seen[0]);
  EXPECT_EQ(seen[0]->size(),
            static_cast<std::size_t>(GetModel("vgg16").total_nodes));
}

// Parameterized over all seven models: the structural Table-2 numbers must
// hold exactly, and work/duration invariants must be sane.
class AllModelsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsTest, MatchesTable2NodeCounts) {
  const ModelSpec& spec = GetModel(GetParam());
  const graph::Graph g = BuildModel(spec);
  EXPECT_EQ(g.size(), static_cast<std::size_t>(spec.total_nodes));
  EXPECT_EQ(g.gpu_node_count(), static_cast<std::size_t>(spec.gpu_nodes));
  g.Validate();  // single source, connected, acyclic
}

TEST_P(AllModelsTest, CalibratedGpuWorkMatchesRuntime) {
  // Total GPU work at the paper batch size should equal the Table-2 runtime
  // times the reference device parallelism (the builder's normalization).
  const ModelSpec& spec = GetModel(GetParam());
  const graph::Graph g = BuildModel(spec);
  const double slots = static_cast<double>(
      gpusim::GpuSpec::Gtx1080Ti().total_block_slots());
  const double work_s = g.TotalGpuWork(spec.paper_batch).seconds() / slots;
  EXPECT_NEAR(work_s, spec.paper_runtime_s * 0.88,
              0.02 * spec.paper_runtime_s);
}

TEST_P(AllModelsTest, NodeDurationDistributionMatchesFigure4) {
  // Figure 4 (Inception): most node durations are tiny, with a heavy tail —
  // the property that makes node-granularity switching cheap. We check the
  // solo (uncontended) duration of each GPU node's kernel on the reference
  // device.
  const ModelSpec& spec = GetModel(GetParam());
  const graph::Graph g = BuildModel(spec);
  const auto ref = gpusim::GpuSpec::Gtx1080Ti();
  metrics::Series durations_us;
  for (const auto& n : g.nodes()) {
    if (!n.is_gpu()) continue;
    const auto blocks = n.BlocksFor(spec.paper_batch);
    const auto waves = (blocks + ref.total_block_slots() - 1) /
                       ref.total_block_slots();
    durations_us.Add(n.block_work.micros() * static_cast<double>(waves));
  }
  // Majority small, almost all under a millisecond-scale bound, tail exists.
  EXPECT_GT(durations_us.CdfAt(30.0), 0.70);
  EXPECT_GT(durations_us.CdfAt(1000.0), 0.90);
  EXPECT_GT(durations_us.Max(), 500.0);
}

TEST_P(AllModelsTest, GpuWorkScalesRoughlyLinearlyWithBatch) {
  // The linear node-work model (paper Figure 20's premise).
  const ModelSpec& spec = GetModel(GetParam());
  const graph::Graph g = BuildModel(spec);
  const double w50 = g.TotalGpuWork(50).seconds();
  const double w100 = g.TotalGpuWork(100).seconds();
  const double w200 = g.TotalGpuWork(200).seconds();
  EXPECT_NEAR(w200 / w100, 2.0, 0.1);
  EXPECT_NEAR(w100 / w50, 2.0, 0.15);  // blocks_base makes it affine
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, AllModelsTest,
    ::testing::Values("inception-v4", "googlenet", "alexnet", "vgg16",
                      "resnet-50", "resnet-101", "resnet-152"));

}  // namespace
}  // namespace olympian::models
