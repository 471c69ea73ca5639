#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_common.hpp"
#include "core/kmeans.hpp"
#include "core/partition.hpp"
#include "simarch/topology.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace swhkm::core::detail {

// One loop, three grid policies. The paper's three partitions (n, nk, nkd)
// are one Lloyd iteration run over three processor grids, so the engines
// share one iteration skeleton, run_engine<Policy>. The loop owns
// everything that is not grid-specific; a grid policy P supplies:
//
//   explicit P(EngineLoop& loop);
//       Per-rank setup; may run collectives on loop.world (Level 3 splits
//       its CG-group communicator here).
//   AssignOutcome assign(EngineLoop& loop);
//       Gate, score and merge this rank's samples into loop.acc and
//       loop.assignments, then charge the level's sweep costs (sample and
//       centroid streams, sweep compute, Level 1/2 tile overlap).
//   void charge_exchange(EngineLoop& loop);
//       The level's combine charges, after the loop's SDC charge.
//
// Modeled seconds are sums of doubles, so the hooks run at exactly the
// points where each level adds its charges: per CostTally field, the order
// of `+=` is what keeps the model bit-stable.

/// Run-wide state shared by every rank: the validated inputs, the priced
/// kernel and the resolved tile size, the collective schedule, and the result
/// — whose centroids are the one shared read-only snapshot all ranks score
/// against (refreshed only at the bulk-synchronous iteration edge inside
/// reduce_and_update), so centroid memory is O(k*d) per run, not per rank.
struct EngineRun {
  EngineRun(Level level, const char* name, const data::Dataset& dataset,
            const KmeansConfig& config, const simarch::MachineConfig& machine,
            const PartitionPlan& plan, util::Matrix initial_centroids);

  /// Finalize the rank-0 ledgers into the returned result.
  KmeansResult finish();

  const data::Dataset& dataset;
  const KmeansConfig& config;
  const simarch::MachineConfig& machine;
  const PartitionPlan& plan;
  const char* const name;
  const std::size_t num_cgs = machine.num_cgs();
  const std::size_t k = config.k;
  const std::size_t d = dataset.d();
  const std::size_t eb = machine.elem_bytes;
  // The kernel the model prices; the host always runs the GEMM selector,
  // whose records are byte-identical to the chain kernel's. An LDM too
  // small for the candidate/norm scratch prices the chain kernel instead of
  // rejecting a tile that fits without it; record-footprint overflow still
  // throws through resolve_tile_samples.
  const bool gemm = config.gemm_assign &&
                    gemm_scratch_fits(config.tile_samples, plan, machine,
                                      config.sstep_tiles);
  const std::size_t tile_samples = resolve_tile_samples(
      config.tile_samples, plan, machine, config.sstep_tiles, gemm);
  const bool hier = config.hier_collectives;
  const std::size_t xover = machine.collective_crossover_bytes();
  // Launch schedule: one supernode's CGs per intra group and the machine's
  // crossover with hier_collectives on, the flat width-1 spec off.
  const swmpi::HierarchySpec hierarchy =
      hier ? swmpi::HierarchySpec{static_cast<int>(machine.cgs_per_node *
                                                   machine.supernode_nodes),
                                  xover}
           : swmpi::HierarchySpec{};
  const simarch::Topology topo{machine};
  telemetry::Telemetry* const tel = config.telemetry;
  KmeansResult result;
};

/// What a policy's assign phase reports to the loop.
struct AssignOutcome {
  std::uint64_t samples = 0;      ///< samples this rank gated or swept
  std::uint64_t swept = 0;        ///< of which the gate left unresolved
  std::uint64_t pruned = 0;       ///< this rank's CostTally::pruned_samples
  std::uint64_t evals = 0;        ///< point-centroid distances computed
  std::uint64_t lloyd_evals = 0;  ///< what an ungated sweep would compute
  double sweep_row_s = 0;         ///< seconds per swept row (ABFT base)
};

/// One rank's loop: the state every level shares, and the phases
/// run_engine calls in order each iteration.
class EngineLoop {
 public:
  EngineLoop(EngineRun& run, swmpi::Comm& world);
  EngineLoop(const EngineLoop&) = delete;
  EngineLoop& operator=(const EngineLoop&) = delete;

  /// Flight/fault points, the snapshot scrub, and this iteration's gate
  /// digest, safe radii and centroid norms; opens a fresh tally.
  void begin_iteration(std::size_t iter);
  /// Assign-phase telemetry plus the shared charges that follow the
  /// policy's sweep: flops, safe radii, and the SDC defense.
  void charge_assign(const AssignOutcome& out);
  /// Publish charges, accumulator scrub, sharded update, then the
  /// iteration ledgers. Returns true once the run has converged.
  bool update(std::size_t iter);
  /// Fold the per-rank distance ledgers (one closing collective).
  void close();

  /// Clear `scores` and score samples [t0, t0 + scores.size()) — or the
  /// compacted gate survivors `ids` — against centroid rows
  /// [j_begin, j_end) through the GEMM selector (an empty slice only
  /// clears).
  template <typename Rec>
  void score(std::size_t t0, std::size_t j_begin, std::size_t j_end,
             std::span<Rec> scores) {
    score_gen([t0](std::size_t t) { return t0 + t; }, j_begin, j_end, scores);
  }
  template <typename Rec>
  void score_ids(std::span<const std::uint32_t> ids, std::size_t j_begin,
                 std::size_t j_end, std::span<Rec> scores) {
    score_gen([ids](std::size_t t) { return std::size_t{ids[t]}; }, j_begin,
              j_end, scores);
  }

  /// Flight-record a tile boundary (kTileStart / kTileEnd) for samples
  /// [t0, t1); a no-op without a flight ring.
  void tile_event(telemetry::FlightEventKind kind, std::size_t t0,
                  std::size_t t1) {
    if (flight != nullptr) {
      flight->record(kind, static_cast<std::uint32_t>(global_iter), 0, t0,
                     t1);
    }
  }

  EngineRun& run;
  swmpi::Comm& world;
  const data::Dataset& dataset = run.dataset;
  const simarch::MachineConfig& machine = run.machine;
  util::Matrix& centroids = run.result.centroids;
  std::vector<std::uint32_t>& assignments = run.result.assignments;
  const std::size_t cg = static_cast<std::size_t>(world.rank());

  // Engine-side metric handles, resolved once per rank (name lookup is the
  // slow path); null with telemetry off. Gate counters tick on every rank —
  // replicated gate work is real per-rank work — while the sim.* ledgers
  // tick on cg 0 only, mirroring the history rows they reconcile against.
  telemetry::Telemetry* const tel = run.tel;
  telemetry::MetricsShard* const tshard =
      tel != nullptr ? &tel->metrics().shard(world.global_rank()) : nullptr;
  telemetry::FlightRing* const flight =
      tshard != nullptr ? tshard->flight() : nullptr;
  telemetry::Histogram* const survivor_hist =
      tshard != nullptr ? &tshard->histogram("engine.gate.survivor_tile")
                        : nullptr;
  telemetry::Histogram* const overlap_hist =
      tshard != nullptr ? &tshard->histogram("engine.pipeline.overlap_s")
                        : nullptr;
  const bool spans_on = tel != nullptr && tel->config().wall_spans;

  const bool gate = run.config.gate_assign;
  const bool sdc = run.config.sdc_checks;
  UpdateAccumulator acc{run.k, run.d};
  /// (k*d + k) accumulator bytes — the update reduce_scatter payload.
  const std::size_t accum_bytes = (run.k * run.d + run.k) * run.eb;

  // Bound-gated assign state (per rank; only the samples this rank sweeps
  // are ever touched): Hamerly upper/lower bounds per sample, the
  // published per-centroid drift, and the safe radii.
  std::vector<double> upper;
  std::vector<double> lower;
  std::vector<double> drift;
  std::vector<double> safe;

  // The current iteration, set by begin_iteration. Iteration 0 has no
  // bounds yet, so every sample sweeps (and the trajectory stays exact
  // from the very first assignment).
  std::uint64_t global_iter = 0;
  bool gating = false;
  DriftDigest digest;
  std::span<const double> norms;
  simarch::CostTally tally;

 private:
  template <typename Rec, typename IndexFn>
  void score_gen(IndexFn index, std::size_t j_begin, std::size_t j_end,
                 std::span<Rec> scores) {
    clear_scores(scores);
    if (j_begin >= j_end) {
      return;
    }
    const std::size_t fallback_rows =
        score_tile_gemm_gen(dataset, index, scores.size(), centroids, norms,
                            j_begin, j_end, scores, gemm_hooks_);
    if (fallback_ctr_ != nullptr) {
      fallback_ctr_->add(fallback_rows);
    }
  }
  telemetry::Counter* counter(const char* name, bool ledger_rank = true) {
    return tshard != nullptr && ledger_rank ? &tshard->counter(name) : nullptr;
  }
  void scrub_snapshot();
  void scrub_accumulator();

  telemetry::Counter* const pruned_ctr_ =
      counter("engine.gate.pruned_samples");
  telemetry::Counter* const swept_ctr_ = counter("engine.gate.swept_samples");
  // Rows whose GEMM candidate list overflowed into the exact full-slice
  // sweep (coincident-centroid piles); every rank counts its own slice.
  telemetry::Counter* const fallback_ctr_ =
      counter("engine.gemm.fallback_rows");
  telemetry::Counter* const sim_net_ = counter("sim.net_bytes", cg == 0);
  telemetry::Counter* const sim_dma_ = counter("sim.dma_bytes", cg == 0);
  double rank_clock_ = 0;
  double assign_start_us_ = 0;
  std::uint64_t distance_comps_ = 0;
  std::uint64_t lloyd_equivalent_ = 0;
  // SDC defense (KmeansConfig::sdc_checks): snapshot/accumulator CRC
  // scrubbing, ABFT checksum columns on the GEMM panels, counts
  // conservation in the sharded update. sdc_iter_ feeds the tile-scratch
  // flip hook the current global iteration; snap_crc_ is this rank's
  // reference CRC of the published snapshot bits.
  std::uint64_t sdc_iter_ = 0;
  std::uint32_t snap_crc_ = 0;
  bool snap_crc_valid_ = false;
  GemmSdcHooks gemm_sdc_;
  GemmSdcHooks* const gemm_hooks_ = sdc ? &gemm_sdc_ : nullptr;
  std::uint64_t abft_recomputed_before_ = 0;
  // Per-iteration ||c||^2 cache for the GEMM-formulated sweep. Gated
  // iterations refresh only the rows the published drift marks moved — an
  // unmoved row's stored float bits are unchanged, so its cached norm is
  // still bit-exact.
  CentroidNormCache norm_cache_;
};

/// The full-k block sweep Levels 1 and 2 share: each block (a Level 1 CPE's
/// samples, a Level 2 CPE group's flow unit) gates each tile against the
/// bounds, scores all k centroids for the unresolved survivors through the
/// GEMM selector, and merges the tile before the next one. The merge walks
/// the whole tile in ascending i — resolved samples accumulate under their
/// stored assignment, swept ones under the fresh argmin — so the fused sums
/// keep the exact summation order of the ungated sweep and the centroid
/// bits cannot move.
class FullKSweep {
 public:
  /// Samples one block left unresolved, and of those the gate tightened.
  struct Block {
    std::uint64_t unresolved = 0;
    std::uint64_t tightened = 0;
  };

  explicit FullKSweep(EngineLoop& loop);

  /// Sweep block [begin, end), adding it to this iteration's totals.
  Block run(std::size_t begin, std::size_t end);

  /// The iteration's AssignOutcome from the blocks' totals (which then
  /// restart for the next iteration).
  AssignOutcome outcome(double sweep_row_s);

  /// Modeled tile overlap: the machine double-buffers tile t+1's sample
  /// and centroid DMA under tile t's sweep, hiding up to a (T-1)/T share
  /// of the sweep (T tiles in the largest block). Hidden seconds come
  /// proportionally out of the two DMA phases and move into
  /// overlapped_dma_s, so total_s() shrinks by exactly what the overlap
  /// bought. On the host one thread runs the tiles in order; the overlap
  /// is the model's.
  void hide_dma(std::uint64_t max_block_samples, double sample_dma_s,
                double centroid_dma_s, double sweep_compute_s);

 private:
  EngineLoop& loop_;
  std::vector<std::uint32_t> ids_;  // the tile's gate survivors
  std::vector<TileScore2> scores_;
  std::uint64_t samples_ = 0;
  Block totals_;
};

/// The engine iteration: one SPMD rank per CG, each running the shared
/// phases around `Policy`'s grid hooks.
template <typename Policy>
KmeansResult run_engine(Level level, const char* name,
                        const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  EngineRun run(level, name, dataset, config, machine, plan,
                std::move(initial_centroids));
  swmpi::run_spmd(
      static_cast<int>(run.num_cgs),
      [&run](swmpi::Comm& world) {
        EngineLoop loop(run, world);
        Policy policy(loop);
        for (std::size_t it = 0; it < run.config.max_iterations; ++it) {
          loop.begin_iteration(it);
          loop.charge_assign(policy.assign(loop));
          policy.charge_exchange(loop);
          if (loop.update(it)) {
            break;
          }
        }
        loop.close();
      },
      config.fault_plan,
      run.tel != nullptr && run.tel->config().swmpi ? &run.tel->metrics()
                                                    : nullptr,
      run.hierarchy);
  return run.finish();
}

}  // namespace swhkm::core::detail
