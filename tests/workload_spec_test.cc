// Tests for the declarative workload-spec parser (serving/workload_spec.h).

#include <gtest/gtest.h>

#include "serving/workload_spec.h"

namespace olympian::serving {
namespace {

WorkloadSpec WorkloadSpecParse(const std::string& text) {
  return WorkloadSpec::ParseString(text);
}

TEST(WorkloadSpecTest, ParsesFullSpec) {
  const auto spec = WorkloadSpec::ParseString(R"(
# a comment
seed 42
gpus 2
pool-threads 500
policy priority
quantum-us 1200
client inception-v4 batch=100 n=10 weight=2 priority=5
client resnet-152 batch=50 n=3 interarrival-ms=200
)");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.num_gpus, 2);
  EXPECT_EQ(spec.pool_threads, 500u);
  EXPECT_EQ(spec.policy, "priority");
  EXPECT_EQ(spec.quantum, sim::Duration::Micros(1200));
  ASSERT_EQ(spec.clients.size(), 2u);
  EXPECT_EQ(spec.clients[0].model, "inception-v4");
  EXPECT_EQ(spec.clients[0].batch, 100);
  EXPECT_EQ(spec.clients[0].num_batches, 10);
  EXPECT_EQ(spec.clients[0].weight, 2);
  EXPECT_EQ(spec.clients[0].priority, 5);
  EXPECT_EQ(spec.clients[1].mean_interarrival, sim::Duration::Millis(200));
}

TEST(WorkloadSpecTest, DefaultsApply) {
  const auto spec = WorkloadSpecParse("client vgg16 batch=10 n=1");
  EXPECT_EQ(spec.policy, "none");
  EXPECT_EQ(spec.num_gpus, 1);
  EXPECT_EQ(spec.clients[0].weight, 1);
}

TEST(WorkloadSpecTest, TrailingCommentsIgnored) {
  const auto spec =
      WorkloadSpecParse("client vgg16 batch=10 n=1  # inline comment");
  EXPECT_EQ(spec.clients[0].batch, 10);
}

TEST(WorkloadSpecTest, UnknownDirectiveRejected) {
  EXPECT_THROW(WorkloadSpecParse("quantums-us 5\nclient vgg16 n=1"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, UnknownClientAttrRejected) {
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batches=10"),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpecParse("client vgg16 min-share=0.25"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, MalformedAttrRejected) {
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batch"),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpecParse("client vgg16 batch=abc"),
               std::invalid_argument);
  for (const char* attr : {"batch=", "batch=10x", "batch=1.5",
                           "batch=0", "n=0", "weight=0", "weight=-2",
                           "priority=3x", "interarrival-ms=-1"}) {
    EXPECT_THROW(WorkloadSpecParse(std::string("client vgg16 ") + attr),
                 std::invalid_argument)
        << attr;
  }
}

TEST(WorkloadSpecTest, EmptySpecRejected) {
  EXPECT_THROW(WorkloadSpecParse("# nothing here"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpecParse("seed 5"), std::invalid_argument);
}

TEST(WorkloadSpecTest, BadNumbersReportLine) {
  // Each bad line sits on line 2; every rejection is an invalid_argument
  // that names it, including values too large for the field.
  for (const char* bad :
       {"gpus zero", "gpus 2x", "gpus 2 3", "gpus", "seed -1",
        "pool-threads -1", "pool-threads 0", "pool-threads 300x",
        "quantum-us 0", "quantum-us 9223372036854775807",
        "client vgg16 batch=99999999999", "client vgg16 batch=10x",
        "client vgg16 n=0", "client vgg16 interarrival-ms=-5",
        "client vgg16 interarrival-ms=9223372036854775807"}) {
    try {
      WorkloadSpecParse(std::string("seed 1\n") + bad + "\nclient vgg16 n=1");
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << bad << " -> " << e.what();
    }
  }
}

TEST(WorkloadSpecTest, ToServerOptionsCopiesFields) {
  const auto spec = WorkloadSpecParse("seed 9\ngpus 2\nclient vgg16 n=1");
  const auto opts = spec.ToServerOptions();
  EXPECT_EQ(opts.seed, 9u);
  EXPECT_EQ(opts.num_gpus, 2);
}

TEST(WorkloadSpecTest, SpecRunsEndToEnd) {
  const auto spec = WorkloadSpec::ParseString(
      "seed 3\nclient resnet-152 batch=20 n=2\nclient resnet-152 batch=20 n=2");
  Experiment exp(spec.ToServerOptions());
  const auto results = exp.Run(spec.clients);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].batches_completed, 2);
}

TEST(WorkloadSpecTest, MissingFileThrows) {
  EXPECT_THROW(WorkloadSpec::LoadFile("/does/not/exist.spec"),
               std::runtime_error);
}

}  // namespace
}  // namespace olympian::serving
