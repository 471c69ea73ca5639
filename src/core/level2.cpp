#include "core/level2.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"

namespace swhkm::core {

namespace {

/// Level 2 grid (nk-partition): each CPE group of a CG takes one flow
/// unit's block; every member CPE reads the whole sample (replication
/// factor g) and scores its centroid slice, with the group's register-bus
/// argmin combine selecting the winner (priced in charge_exchange). The g
/// slices tile [0, k) contiguously, so functionally the combine is one
/// ascending scan of all centroids — the full-k sweep Level 1 runs, over
/// flow-unit blocks. A gated sample skips the replicated read, the slice
/// sweep and the register combine, and is accumulated by its stored
/// assignment's owner from a single read. Tightening is local here: the
/// sample is already replicated to the group and the assigned centroid's
/// full row lives in one member's slice; the verdict rides the register
/// bus.
class Level2Grid {
 public:
  explicit Level2Grid(detail::EngineLoop& loop) : sweep_(loop) {}

  detail::AssignOutcome assign(detail::EngineLoop& loop) {
    const detail::EngineRun& run = loop.run;
    const simarch::MachineConfig& machine = run.machine;
    const std::size_t g = run.plan.m_group;
    const std::size_t groups_per_cg = machine.cpes_per_cg / g;
    const std::size_t d = run.d;
    const std::size_t eb = run.eb;
    std::uint64_t sample_bytes = 0;
    std::uint64_t max_group_samples = 0;
    max_group_unresolved_ = 0;
    max_group_tightened_ = 0;
    for (std::size_t grp = 0; grp < groups_per_cg; ++grp) {
      const std::size_t flow_unit = loop.cg * groups_per_cg + grp;
      const auto [begin, end] = detail::block_range(
          run.dataset.n(), run.plan.num_flow_units, flow_unit);
      const detail::FullKSweep::Block block = sweep_.run(begin, end);
      const std::uint64_t count = end - begin;
      // Unresolved samples pay the replicated read (every member CPE of
      // the group needs the vector to score its slice); gated ones are
      // read once by the accumulating owner.
      sample_bytes += loop.gating ? block.unresolved * d * eb * g +
                                        (count - block.unresolved) * d * eb
                                  : count * d * eb * g;
      max_group_samples = std::max(max_group_samples, count);
      max_group_unresolved_ =
          std::max(max_group_unresolved_, block.unresolved);
      max_group_tightened_ = std::max(max_group_tightened_, block.tightened);
    }

    simarch::CostTally& tally = loop.tally;
    const double sample_read_before = tally.sample_read_s;
    detail::charge_sample_stream(tally, machine, sample_bytes,
                                 max_group_samples);
    const double sample_dma_s = tally.sample_read_s - sample_read_before;
    const double centroid_stream_before = tally.centroid_stream_s;
    if (!loop.gating || max_group_unresolved_ > 0) {
      detail::charge_centroid_traffic(tally, machine, run.plan,
                                      max_group_unresolved_);
    }
    const double centroid_dma_s =
        tally.centroid_stream_s - centroid_stream_before;
    // Swept survivor slice-rows run at the active kernel's rate; tighten
    // rows are always single-row exact distances (multi-chain).
    const double sweep_row_s = run.gemm ? machine.gemm_row_seconds(d)
                                        : machine.assign_row_seconds(d);
    const double sweep_compute_s =
        static_cast<double>(max_group_unresolved_ * run.plan.k_local) *
            sweep_row_s +
        static_cast<double>(max_group_tightened_) *
            machine.assign_row_seconds(d);
    tally.compute_s += sweep_compute_s;
    // Tile t+1's replicated sample read and centroid re-stream land under
    // tile t's slice sweep.
    sweep_.hide_dma(max_group_samples, sample_dma_s, centroid_dma_s,
                    sweep_compute_s);
    return sweep_.outcome(sweep_row_s);
  }

  /// Per-sample argmin combine on the register buses (groups of a CG run
  /// in parallel; charge the busiest group) — compacted to the unresolved
  /// samples — then the update-phase reduce of same-slice CPEs across the
  /// CG's groups. Gated runs combine the 24-byte top-two record (the
  /// runner-up must survive the slice combine to seed the lower bound);
  /// ungated runs keep the seed's 16-byte argmin. Each tightening distance
  /// is one double broadcast from the slice owner over the same bus.
  void charge_exchange(detail::EngineLoop& loop) {
    const std::size_t g = loop.run.plan.m_group;
    simarch::RegComm reg(loop.machine, loop.tally);
    reg.account_allreduce(loop.gate ? 24 : 16, g, max_group_unresolved_);
    reg.account_allreduce(8, g, max_group_tightened_);
    reg.account_allreduce(loop.run.plan.k_local * loop.run.d * loop.run.eb,
                          loop.machine.cpes_per_cg / g);
  }

 private:
  detail::FullKSweep sweep_;
  std::uint64_t max_group_unresolved_ = 0;
  std::uint64_t max_group_tightened_ = 0;
};

}  // namespace

KmeansResult run_level2(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine<Level2Grid>(Level::kLevel2, "level2", dataset,
                                        config, machine, plan,
                                        std::move(initial_centroids));
}

}  // namespace swhkm::core
