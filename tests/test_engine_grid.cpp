#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "core/hkmeans.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Cross-product parity grid: every engine level under every combination
/// of the engine toggles that change host execution (bound gate,
/// hierarchical collectives, s-step fold, SDC defense) must land
/// bit-identical to serial Lloyd — same iteration count, same assignments,
/// same centroid bits. One shared iteration loop runs all three levels, so
/// this grid is the net under any change to it. (`gemm_assign` only picks
/// the priced kernel — the host runs the GEMM selector either way — so the
/// grid runs the shipped GEMM pricing; GemmEngineTest covers chain pricing.)
///
/// The shape is ragged on purpose: n = 1001 divides by neither the tile
/// nor any rank/CPE/flow-unit count, k = 7 leaves a short last slice for
/// both Level 2 (m_group = 2, slices of 4) and Level 3 (m'_group = 3,
/// slices of 3), and tiny(6, ...) puts its 12 CGs on two supernodes so the
/// hierarchical schedule runs a live inter-supernode stage (and one Level 3
/// CG group straddles the boundary).
constexpr std::size_t kNodes = 6;
constexpr std::size_t kCpesPerCg = 4;
constexpr std::size_t kLdmBytes = 8192;
constexpr std::size_t kN = 1001;
constexpr std::size_t kD = 9;
constexpr std::size_t kK = 7;
constexpr std::size_t kMGroup = 2;
constexpr std::size_t kMprimeGroup = 3;
constexpr std::size_t kTileSamples = 4;

const data::Dataset& grid_dataset() {
  static const data::Dataset ds = data::make_blobs(kN, kD, 5, 2024);
  return ds;
}

KmeansConfig grid_base_config() {
  KmeansConfig config;
  config.k = kK;
  config.max_iterations = 20;  // serial Lloyd converges at 15
  config.tile_samples = kTileSamples;
  return config;
}

const KmeansResult& grid_reference() {
  static const KmeansResult ref =
      lloyd_serial(grid_dataset(), grid_base_config());
  return ref;
}

// level, gate_assign, hier_collectives, sstep_tiles, sdc_checks
using GridParam = std::tuple<Level, bool, bool, std::size_t, bool>;

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  const auto [level, gate, hier, sstep, sdc] = info.param;
  std::string name = "L";
  name += std::to_string(static_cast<int>(level));
  name += gate ? "_gate" : "_nogate";
  name += hier ? "_hier" : "_flat";
  name += "_s" + std::to_string(sstep);
  name += sdc ? "_sdc" : "_nosdc";
  return name;
}

class EngineGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(EngineGrid, BitIdenticalToSerialLloyd) {
  const auto [level, gate, hier, sstep, sdc] = GetParam();
  const MachineConfig machine =
      MachineConfig::tiny(kNodes, kCpesPerCg, kLdmBytes);
  ASSERT_GT(machine.num_supernodes(), 1u);
  KmeansConfig config = grid_base_config();
  config.gate_assign = gate;
  config.hier_collectives = hier;
  config.sstep_tiles = sstep;
  config.sdc_checks = sdc;

  const ProblemShape shape{kN, kK, kD};
  const PartitionPlan plan =
      make_plan(level, shape, machine, level == Level::kLevel2 ? kMGroup : 0,
                level == Level::kLevel3 ? kMprimeGroup : 0);
  // The cells must really price the GEMM sweep, not its downgrade.
  ASSERT_TRUE(gemm_scratch_fits(kTileSamples, plan, machine, sstep));

  const KmeansResult got = run_plan(plan, grid_dataset(), config, machine);
  const KmeansResult& ref = grid_reference();
  ASSERT_GT(ref.iterations, 2u);
  EXPECT_EQ(got.iterations, ref.iterations);
  ASSERT_TRUE(ref.converged);
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_EQ(got.assignments, ref.assignments);
  ASSERT_EQ(got.centroids.size(), ref.centroids.size());
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0);
  EXPECT_EQ(got.history.size(), got.iterations);
  if (gate && got.iterations > 1) {
    // The grid must exercise the gate's pruned path, not just its sweep.
    EXPECT_GT(got.cost.pruned_samples, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Toggles, EngineGrid,
    ::testing::Combine(::testing::Values(Level::kLevel1, Level::kLevel2,
                                         Level::kLevel3),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Bool()),
    grid_name);

}  // namespace
}  // namespace swhkm::core
