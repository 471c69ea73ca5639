#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/hkmeans.hpp"
#include "simarch/trace.hpp"
#include "swmpi/collectives.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Bit-for-bit equality: assignments exact and every centroid float
/// identical. The gate only ever *skips* evaluations, so nothing weaker
/// than memcmp is acceptable here.
void expect_bit_identical(const KmeansResult& got, const KmeansResult& ref,
                          const char* label) {
  ASSERT_EQ(got.iterations, ref.iterations) << label;
  EXPECT_EQ(got.assignments, ref.assignments) << label;
  ASSERT_EQ(got.centroids.size(), ref.centroids.size()) << label;
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0)
      << label;
}

class GatedLevelTest : public ::testing::TestWithParam<Level> {};

TEST_P(GatedLevelTest, PruneRateZeroOnFirstIterationPositiveLater) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(400, 12, 5, 42);
  KmeansConfig config;
  config.k = 5;
  config.max_iterations = 15;
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  ASSERT_FALSE(result.history.empty());
  // Iteration 0 has no bounds yet: every sample sweeps, by construction.
  EXPECT_EQ(result.history[0].prune_rate, 0.0);
  double best_rate = 0;
  for (const IterationStats& it : result.history) {
    EXPECT_GE(it.prune_rate, 0.0);
    EXPECT_LE(it.prune_rate, 1.0);
    best_rate = std::max(best_rate, it.prune_rate);
  }
  // Well-separated blobs converge geometrically; the gate must bite.
  EXPECT_GT(best_rate, 0.5);
  // And the ledger must agree with the gate: savings only come from
  // skipped sweeps.
  EXPECT_GT(result.accel.savings(), 0.0);
  EXPECT_LE(result.accel.distance_computations, result.accel.lloyd_equivalent);
}

TEST_P(GatedLevelTest, BitIdenticalToSerialOnCoincidentTiedPoints) {
  // Adversarial workload: only 6 distinct points, each repeated 32 times,
  // with k = 9 > 6 distinct values. kFirstK seeding then produces
  // *coincident* centroids (exact distance ties on every duplicate), and
  // the run keeps empty clusters alive. The gate's strict upper < lower
  // test must leave every tie-break to the same left-to-right argmin the
  // serial scan uses.
  const std::size_t reps = 32;
  const std::size_t distinct = 6;
  const std::size_t d = 3;
  std::vector<float> values;
  values.reserve(reps * distinct * d);
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t q = 0; q < distinct; ++q) {
      for (std::size_t u = 0; u < d; ++u) {
        values.push_back(static_cast<float>((q * (u + 1)) % distinct));
      }
    }
  }
  const data::Dataset ds(
      "ties", util::Matrix::from_vector(reps * distinct, d, values));
  KmeansConfig config;
  config.k = 9;
  config.max_iterations = 12;
  config.gate_assign = true;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  expect_bit_identical(got, ref, level_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllLevels, GatedLevelTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(GatedAssign, BoundsResetAcrossCheckpointRestore) {
  // Interrupt a gated engine run at iteration 3, checkpoint, restore, and
  // finish with a fresh engine. The restored leg must re-seed its bounds
  // from a full sweep (stale bounds would mis-gate against the restored
  // centroids) and land bit-identical to the uninterrupted run.
  const data::Dataset ds = data::make_blobs(360, 10, 4, 17);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 9;
  config.tolerance = -1;  // fixed-length legs
  const KmeansResult full = run_level(Level::kLevel1, ds, config, machine);

  KmeansConfig first_leg = config;
  first_leg.max_iterations = 3;
  const KmeansResult part = run_level(Level::kLevel1, ds, first_leg, machine);
  const std::string path = ::testing::TempDir() + "/swhkm_gated_ckpt.bin";
  save_checkpoint(part, path);
  const KmeansResult restored = load_checkpoint(path);

  // Engine restart from the restored centroids.
  KmeansConfig second_leg = config;
  second_leg.max_iterations = config.max_iterations - restored.iterations;
  const PartitionPlan plan = make_plan(
      Level::kLevel1, ProblemShape{ds.n(), config.k, ds.d()}, machine);
  const KmeansResult engine_resumed =
      run_level1(ds, second_leg, machine, plan, restored.centroids);
  ASSERT_EQ(engine_resumed.iterations, second_leg.max_iterations);
  EXPECT_EQ(engine_resumed.assignments, full.assignments);
  EXPECT_EQ(std::memcmp(engine_resumed.centroids.data(),
                        full.centroids.data(),
                        full.centroids.size() * sizeof(float)),
            0);

  // Serial resume_lloyd from the same checkpoint agrees too — the engines
  // and the serial baseline share one trajectory.
  const KmeansResult serial_resumed = resume_lloyd(ds, config, restored);
  ASSERT_EQ(serial_resumed.iterations, full.iterations);
  EXPECT_EQ(serial_resumed.assignments, full.assignments);
  EXPECT_EQ(std::memcmp(serial_resumed.centroids.data(),
                        full.centroids.data(),
                        full.centroids.size() * sizeof(float)),
            0);
}

TEST(GatedAssign, EngineDistancesAtMostSerialHamerly) {
  // The engine gate skips a sample at zero cost; serial Hamerly pays an
  // upper-bound tightening distance for every sample that fails its first
  // check. On a workload that keeps moving, the engine's ledger must not
  // exceed the serial accelerated baseline's.
  const data::Dataset ds = data::make_uniform(600, 8, 11);
  KmeansConfig config;
  config.k = 12;
  config.max_iterations = 12;
  AccelStats hamerly_stats;
  const KmeansResult ref = hamerly_serial(ds, config, &hamerly_stats);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(Level::kLevel1, ds, config, machine);
  ASSERT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.accel.lloyd_equivalent, hamerly_stats.lloyd_equivalent);
  EXPECT_LE(got.accel.distance_computations,
            hamerly_stats.distance_computations);
}

TEST(GatedAssign, Level3ChargesCompactedCollectiveVolumes) {
  // Trace-level check of the cost model: the Level 3 argmin collective is
  // charged per *unresolved* sample at 24 bytes across the slice group.
  // The per-iteration accumulator/publish charges are constant, so the
  // net-byte drop from iteration 0 must equal exactly
  // pruned * 24 * (p - 1) * p (every one of the group's p ranks skips the
  // record exchange with its p-1 peers).
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const std::size_t p = 2;
  const data::Dataset ds = data::make_blobs(300, 8, 4, 23);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  config.tolerance = -1;
  simarch::Trace gated_trace;
  config.trace = &gated_trace;
  const KmeansResult gated = run_level(Level::kLevel3, ds, config, machine,
                                       0, p);
  KmeansConfig ungated_config = config;
  simarch::Trace ungated_trace;
  ungated_config.trace = &ungated_trace;
  ungated_config.gate_assign = false;
  const KmeansResult ungated =
      run_level(Level::kLevel3, ds, ungated_config, machine, 0, p);
  ASSERT_EQ(gated.iterations, ungated.iterations);
  ASSERT_GT(gated.history.size(), 1u);

  double total_rate = 0;
  for (std::size_t t = 1; t < gated.history.size(); ++t) {
    const IterationStats& it = gated.history[t];
    const auto pruned = static_cast<std::uint64_t>(
        std::llround(it.prune_rate * static_cast<double>(ds.n())));
    EXPECT_EQ(gated.history[0].net_bytes - it.net_bytes,
              pruned * sizeof(swmpi::MinLoc2) * (p - 1) * p)
        << "iteration " << t;
    // DMA shrinks with the gate too (resolved samples stream once, into
    // their owner, instead of into every rank of the group).
    if (pruned > 0) {
      EXPECT_LT(it.dma_bytes, gated.history[0].dma_bytes)
          << "iteration " << t;
    }
    total_rate += it.prune_rate;
  }
  ASSERT_GT(total_rate, 0.0) << "workload never pruned; test is vacuous";

  // Iteration 0 sweeps everything, so its DMA matches the ungated engine
  // bit for bit; the collective payload is 8 bytes/sample wider (MinLoc2).
  EXPECT_EQ(gated.history[0].dma_bytes, ungated.history[0].dma_bytes);
  // The model prices the ungated record at the 16-byte argmin even though
  // the host combines ungated spans over MinLoc2 too: every one of the
  // group's p ranks pays the 8-byte gap per sample to each of its p - 1
  // peers, and the gated update publish adds the k-double drift per CG.
  EXPECT_EQ(gated.history[0].net_bytes - ungated.history[0].net_bytes,
            ds.n() * (sizeof(swmpi::MinLoc2) - 16) * (p - 1) * p +
                machine.num_cgs() * config.k * sizeof(double));

  // And the simulated timeline agrees: across the run the gated engine
  // spends strictly less simulated time in the network phase.
  const std::vector<double> gated_phases = gated_trace.phase_totals();
  const std::vector<double> ungated_phases = ungated_trace.phase_totals();
  const auto net = static_cast<std::size_t>(simarch::Phase::kNetComm);
  const auto read = static_cast<std::size_t>(simarch::Phase::kSampleRead);
  EXPECT_LT(gated_phases[read], ungated_phases[read]);
  // Gated records are wider on iteration 0 but compaction wins overall.
  EXPECT_LT(gated_phases[net], ungated_phases[net]);
}

TEST(GatedAssign, ResolveTileSamplesValidatesAgainstLdm) {
  // tiny(1, 4, 2048): 4 CPEs x 2 KiB LDM = 8192 bytes of aggregate
  // scratchpad; with the GEMM sweep off, a 24-byte record caps the tile at
  // 341 samples.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 2048);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, ProblemShape{256, 2, 4}, machine);
  EXPECT_EQ(resolve_tile_samples(256, plan, machine, 1, false), 256u);
  EXPECT_EQ(resolve_tile_samples(341, plan, machine, 1, false), 341u);
  EXPECT_THROW(resolve_tile_samples(342, plan, machine, 1, false),
               InfeasibleError);
  EXPECT_THROW(resolve_tile_samples(0, plan, machine), InfeasibleError);

  // The GEMM sweep's per-sample candidate scratch (60 bytes) + the
  // k_local-double norm cache ride on top: 84 bytes/sample + 16 caps the
  // default-config tile at 97 samples on the same machine.
  EXPECT_EQ(resolve_tile_samples(97, plan, machine), 97u);
  EXPECT_THROW(resolve_tile_samples(98, plan, machine), InfeasibleError);

  // s-step folding multiplies the live record footprint on Level 3 only
  // (the other levels retire each tile's records on the register bus).
  const MachineConfig l3_machine = MachineConfig::tiny(2, 4, 2048);
  const PartitionPlan l3_plan =
      make_plan(Level::kLevel3, ProblemShape{256, 4, 4}, l3_machine, 0, 2);
  EXPECT_EQ(resolve_tile_samples(85, l3_plan, l3_machine, 4, false), 85u);
  EXPECT_THROW(resolve_tile_samples(86, l3_plan, l3_machine, 4, false),
               InfeasibleError);
  EXPECT_EQ(resolve_tile_samples(341, plan, machine, 4, false), 341u);
  EXPECT_THROW(resolve_tile_samples(64, plan, machine, 0, false),
               InfeasibleError);

  // The engines reject through the same path.
  const data::Dataset ds = data::make_blobs(64, 4, 2, 9);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 2;
  config.tile_samples = 100000;
  EXPECT_THROW(run_level(Level::kLevel1, ds, config, machine),
               InfeasibleError);
}

TEST(GatedAssign, ResolveTileSamplesRejectsOverflowingFootprints) {
  // A footprint product past SIZE_MAX must read as "too big", never wrap
  // to a small byte count that passes the budget. Both requests below wrap
  // to a zero-byte record footprint in plain size_t arithmetic: the Level 3
  // span (16 x 2^62 samples) would then step its tile loop by 0 forever,
  // and the Level 1 tile would reach the allocator.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const std::size_t huge = std::size_t{1} << 62;
  const PartitionPlan l3_plan =
      make_plan(Level::kLevel3, ProblemShape{256, 4, 4}, machine, 0, 2);
  const PartitionPlan l1_plan =
      make_plan(Level::kLevel1, ProblemShape{256, 2, 4}, machine);
  for (const bool gemm : {false, true}) {
    EXPECT_THROW(resolve_tile_samples(16, l3_plan, machine, huge, gemm),
                 InfeasibleError);
    EXPECT_THROW(resolve_tile_samples(huge, l1_plan, machine, 1, gemm),
                 InfeasibleError);
  }
  EXPECT_FALSE(gemm_scratch_fits(huge, l1_plan, machine));

  // The engine rejects the tile through the same path instead of trying
  // to allocate its records.
  const data::Dataset ds = data::make_blobs(64, 4, 2, 9);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 2;
  config.tile_samples = huge;
  EXPECT_THROW(run_level(Level::kLevel1, ds, config, machine),
               InfeasibleError);
}

TEST(GatedAssign, MinLoc2CombineMatchesSerialTopTwo) {
  // The top-two combine is pure selection, so any fold shape must agree
  // with a serial left-to-right scan — including duplicate distances and
  // index tie-breaks.
  const std::vector<std::pair<double, std::uint64_t>> cases[] = {
      {{3.0, 0}, {1.0, 1}, {2.0, 2}, {1.0, 3}},
      {{5.0, 4}, {5.0, 1}, {5.0, 2}},
      {{2.5, 7}, {0.5, 3}, {0.5, 0}, {9.0, 1}, {0.25, 6}},
      {{1.0, 0}},
  };
  for (const auto& entries : cases) {
    // Reference: the combine is a pure function of the candidate multiset —
    // winner is the lexicographic (value, index) minimum (value ties
    // resolve toward the smaller centroid index, like an ascending-j
    // scan), second is the second-smallest value counting multiplicity.
    std::vector<std::pair<double, std::uint64_t>> sorted(entries);
    std::sort(sorted.begin(), sorted.end());
    swhkm::swmpi::MinLoc2 ref{sorted[0].first, sorted[0].second,
                              sorted.size() > 1
                                  ? sorted[1].first
                                  : std::numeric_limits<double>::max()};
    // Every left-to-right fold of singleton records, plus a two-half tree
    // fold, must match.
    swhkm::swmpi::CombineMinLoc2 combine;
    auto make = [](const std::pair<double, std::uint64_t>& e) {
      return swhkm::swmpi::MinLoc2{e.first, e.second,
                                   std::numeric_limits<double>::max()};
    };
    swhkm::swmpi::MinLoc2 left = make(entries[0]);
    for (std::size_t i = 1; i < entries.size(); ++i) {
      combine(left, make(entries[i]));
    }
    EXPECT_EQ(left.value, ref.value);
    EXPECT_EQ(left.index, ref.index);
    EXPECT_EQ(left.second, ref.second);

    const std::size_t mid = entries.size() / 2;
    if (mid > 0 && mid < entries.size()) {
      swhkm::swmpi::MinLoc2 a = make(entries[0]);
      for (std::size_t i = 1; i < mid; ++i) {
        combine(a, make(entries[i]));
      }
      swhkm::swmpi::MinLoc2 b = make(entries[mid]);
      for (std::size_t i = mid + 1; i < entries.size(); ++i) {
        combine(b, make(entries[i]));
      }
      combine(a, b);
      EXPECT_EQ(a.value, ref.value);
      EXPECT_EQ(a.index, ref.index);
      EXPECT_EQ(a.second, ref.second);
    }
  }
}

}  // namespace
}  // namespace swhkm::core
