#include <gtest/gtest.h>

#include <limits>

#include "core/hkmeans.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Run `level` and serial Lloyd from the same init and demand identical
/// trajectories (assignments exact, centroids to FP-accumulation slop).
void expect_matches_serial(Level level, const data::Dataset& ds,
                           const KmeansConfig& config,
                           const MachineConfig& machine) {
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(level, ds, config, machine);
  EXPECT_EQ(got.iterations, ref.iterations) << level_name(level);
  EXPECT_EQ(got.converged, ref.converged) << level_name(level);
  EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
      << level_name(level);
  EXPECT_LT(centroid_max_abs_diff(got.centroids, ref.centroids), 1e-4)
      << level_name(level);
  EXPECT_NEAR(got.inertia, ref.inertia, 1e-6 * (1.0 + ref.inertia))
      << level_name(level);
}

class EngineLevelTest : public ::testing::TestWithParam<Level> {};

TEST_P(EngineLevelTest, MatchesSerialOnBlobs) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(400, 12, 5, 42);
  KmeansConfig config;
  config.k = 5;
  config.max_iterations = 15;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, MatchesSerialOnUniformNoise) {
  // Uniform noise exercises many near-tie argmin decisions.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(300, 6, 7);
  KmeansConfig config;
  config.k = 8;
  config.max_iterations = 8;
  config.init = InitMethod::kRandom;
  config.seed = 3;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, MatchesSerialWithKmeansPlusPlus) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_blobs(120, 4, 3, 5);
  KmeansConfig config;
  config.k = 3;
  config.init = InitMethod::kPlusPlus;
  config.max_iterations = 10;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, KEqualsOne) {
  const MachineConfig machine = MachineConfig::tiny(1, 2, 8192);
  const data::Dataset ds = data::make_uniform(50, 3, 2);
  KmeansConfig config;
  config.k = 1;
  config.max_iterations = 4;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, FewerSamplesThanWorkers) {
  // 2 nodes x 2 CGs x 4 CPEs = 16 CPEs but only 5 samples: some flow units
  // stay idle and the result must still be exact.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(5, 3, 8);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 6;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, SingleDimension) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(64, 1, 13);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 10;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, NonDividingShapes) {
  // n, k, d all prime: block ranges and slices are ragged everywhere.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(97, 13, 3);
  KmeansConfig config;
  config.k = 7;
  config.max_iterations = 7;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, ChargesSimulatedTime) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_blobs(100, 8, 2, 3);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 3;
  config.tolerance = -1;  // force all 3 iterations
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  EXPECT_GT(result.cost.total_s(), 0.0);
  EXPECT_GT(result.last_iteration_cost.total_s(), 0.0);
  EXPECT_GT(result.cost.compute_s, 0.0);
  EXPECT_GT(result.cost.dma_bytes, 0u);
  // Total across 3 identical-shape iterations ≈ 3x the last one.
  EXPECT_NEAR(result.cost.total_s(),
              3 * result.last_iteration_cost.total_s(),
              0.5 * result.cost.total_s());
  // Every engine moves at least the dataset once per iteration.
  EXPECT_GE(result.cost.dma_bytes,
            3 * ds.n() * ds.d() * machine.elem_bytes);
}

TEST_P(EngineLevelTest, PipelineOnAndOffAreBitIdentical) {
  // The double-buffered tile pipeline is an execution-order change only:
  // trajectories must match the sequential loop bit for bit, and the
  // overlap ledger must record what the shortened critical path saved.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(300, 10, 4, 11);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 10;
  config.tile_samples = 8;  // force several tiles per worker at every level
  for (const bool gate : {false, true}) {
    config.gate_assign = gate;
    config.pipeline_tiles = true;
    const KmeansResult piped = run_level(GetParam(), ds, config, machine);
    config.pipeline_tiles = false;
    const KmeansResult plain = run_level(GetParam(), ds, config, machine);
    EXPECT_EQ(piped.iterations, plain.iterations);
    EXPECT_EQ(assignment_agreement(piped.assignments, plain.assignments),
              1.0);
    EXPECT_EQ(centroid_max_abs_diff(piped.centroids, plain.centroids), 0.0);
    // The sequential model hides nothing; the pipelined one hides tile
    // traffic and is never slower.
    EXPECT_EQ(plain.cost.overlapped_dma_s + plain.cost.overlapped_net_s, 0.0);
    EXPECT_GT(piped.cost.overlapped_dma_s + piped.cost.overlapped_net_s, 0.0);
    EXPECT_LT(piped.cost.total_s(), plain.cost.total_s());
    // Hidden seconds reconcile with the modelled saving. Per rank the
    // ledger is exact; across ranks combine_tallies takes per-field maxima
    // (critical path), and since the GEMM sweep shrank the overlap window
    // below some ranks' tile DMA the hidden share varies by rank — the
    // field-wise max then decomposes only to ppm, not to the last bit.
    EXPECT_NEAR(plain.cost.total_s() - piped.cost.total_s(),
                piped.cost.overlapped_dma_s + piped.cost.overlapped_net_s,
                1e-6 * plain.cost.total_s());
  }
}

TEST_P(EngineLevelTest, FlopAccountingMatches2nkd) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(60, 4, 5);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 1;
  config.tolerance = -1;
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  // Level 3 counts per-slice work; every level must land on 2nkd total.
  EXPECT_EQ(result.cost.flops, 2ull * 60 * 3 * 4);
}

TEST_P(EngineLevelTest, WrongPlanLevelRejected) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(32, 2, 4);
  KmeansConfig config;
  config.k = 2;
  const ProblemShape shape{32, 2, 2};
  const Level other = GetParam() == Level::kLevel1 ? Level::kLevel2
                                                   : Level::kLevel1;
  const PartitionPlan plan = make_plan(other, shape, machine);
  util::Matrix centroids(2, 2);
  switch (GetParam()) {
    case Level::kLevel1:
      EXPECT_THROW(
          run_level1(ds, config, machine, plan, std::move(centroids)),
          swhkm::InvalidArgument);
      break;
    case Level::kLevel2:
      EXPECT_THROW(
          run_level2(ds, config, machine, plan, std::move(centroids)),
          swhkm::InvalidArgument);
      break;
    case Level::kLevel3:
      EXPECT_THROW(
          run_level3(ds, config, machine, plan, std::move(centroids)),
          swhkm::InvalidArgument);
      break;
  }
}

/// Blob samples with one coordinate replaced by `v`.
util::Matrix blobs_with(float v) {
  util::Matrix m = data::make_blobs(64, 6, 3, 5).samples();
  m.at(37, 4) = v;
  return m;
}

TEST_P(EngineLevelTest, NonFiniteSampleRaisesTypedError) {
  // A single NaN used to reach the engines' argmin; the dataset boundary
  // now rejects it (and infinities) before any rank starts.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 3;
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(run_level(GetParam(), data::Dataset("bad", blobs_with(v)),
                           config, machine),
                 swhkm::InvalidArgument);
  }
}

TEST(SerialLloyd, NonFiniteSampleRaisesTypedError) {
  // Reproduced the crash: one NaN made lloyd_serial index the update
  // accumulator with the argmin's "no centroid" sentinel.
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 3;
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(
        lloyd_serial(data::Dataset("bad", blobs_with(v)), config),
        swhkm::InvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, EngineLevelTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

// ------------------------------------------------- level-specific shapes

TEST(Level2, ExplicitGroupSizesAllAgree) {
  const MachineConfig machine = MachineConfig::tiny(1, 8, 16384);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 9);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (std::size_t g : {1ul, 2ul, 4ul, 8ul}) {
    const KmeansResult got = run_level(Level::kLevel2, ds, config, machine, g);
    EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
        << "m_group=" << g;
  }
}

TEST(Level3, ExplicitCgGroupSizesAllAgree) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 16384);  // 4 CGs
  const data::Dataset ds = data::make_blobs(160, 6, 4, 9);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (std::size_t p : {1ul, 2ul, 4ul}) {
    const KmeansResult got =
        run_level(Level::kLevel3, ds, config, machine, 0, p);
    EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
        << "m'_group=" << p;
  }
}

TEST(Level3, KSmallerThanGroupLeavesIdleSliceHolders) {
  // k=2 over m'_group=4 CGs: two CGs hold empty slices and must not
  // disturb the argmin.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 16384);
  const data::Dataset ds = data::make_blobs(80, 4, 2, 21);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 6;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(Level::kLevel3, ds, config, machine, 0, 4);
  EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0);
}

TEST(Level1, LdmOverflowCaughtByEngine) {
  // A plan hand-built for a larger LDM must be rejected by the engine's
  // allocator when run against the real machine.
  MachineConfig machine = MachineConfig::tiny(1, 2, 64 * 1024);
  const ProblemShape shape{64, 50, 40};
  PartitionPlan plan = make_plan(Level::kLevel1, shape, machine);
  machine.ldm_bytes = 4096;  // shrink after planning
  const data::Dataset ds = data::make_uniform(64, 40, 3);
  KmeansConfig config;
  config.k = 50;
  util::Matrix centroids(50, 40);
  EXPECT_THROW(run_level1(ds, config, machine, plan, std::move(centroids)),
               swhkm::CapacityError);
}

TEST(Engines, Level2StreamsWhenSliceDoesNotFit) {
  // Tiny LDM forces the streamed layout; result must stay exact.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 2048);
  const data::Dataset ds = data::make_blobs(100, 16, 4, 13);
  KmeansConfig config;
  config.k = 24;
  config.max_iterations = 5;
  const ProblemShape shape{100, 24, 16};
  const PartitionPlan plan = make_plan(Level::kLevel2, shape, machine);
  EXPECT_FALSE(plan.ldm.resident);
  expect_matches_serial(Level::kLevel2, ds, config, machine);
}

TEST(Engines, CostTalliesScaleWithMachineShrink) {
  // Same problem on 1 vs 4 nodes: per-iteration simulated time must drop.
  const data::Dataset ds = data::make_blobs(800, 8, 4, 31);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 2;
  config.tolerance = -1;
  // Ungated: the bound gate prunes this workload to zero distance work by
  // the second iteration (compute_s == 0 on both machines), which is
  // covered by the gated-assign tests; this one pins the sweep scaling.
  config.gate_assign = false;
  const KmeansResult small =
      run_level(Level::kLevel1, ds, config, MachineConfig::tiny(1, 4, 8192));
  const KmeansResult large =
      run_level(Level::kLevel1, ds, config, MachineConfig::tiny(4, 4, 8192));
  EXPECT_GT(small.last_iteration_cost.compute_s,
            large.last_iteration_cost.compute_s);
}

}  // namespace
}  // namespace swhkm::core
