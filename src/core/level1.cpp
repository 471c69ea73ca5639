#include "core/level1.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"

namespace swhkm::core {

namespace {

/// Level 1 grid (n-partition): every CPE streams its own contiguous block
/// of samples through the full-k sweep against all k centroids.
class Level1Grid {
 public:
  explicit Level1Grid(detail::EngineLoop& loop) : sweep_(loop) {}

  detail::AssignOutcome assign(detail::EngineLoop& loop) {
    const detail::EngineRun& run = loop.run;
    const simarch::MachineConfig& machine = run.machine;
    const std::size_t cpes = machine.cpes_per_cg;
    const std::size_t k = run.k;
    const std::size_t d = run.d;
    const std::size_t eb = run.eb;
    // Swept survivor rows run at the active kernel's rate; the gate's
    // tighten rows are always single-row exact distances (multi-chain).
    const double sweep_row_s = run.gemm ? machine.gemm_row_seconds(d)
                                        : machine.assign_row_seconds(d);
    const double tighten_row_s = machine.assign_row_seconds(d);
    std::uint64_t sample_bytes = 0;
    std::uint64_t max_cpe_samples = 0;
    double max_cpe_sweep_s = 0;  // sweep + tighten seconds, slowest CPE
    std::size_t cpes_with_sweep = 0;
    for (std::size_t cpe = 0; cpe < cpes; ++cpe) {
      const auto [begin, end] = detail::block_range(
          run.dataset.n(), machine.total_cpes(), loop.cg * cpes + cpe);
      const detail::FullKSweep::Block block = sweep_.run(begin, end);
      const std::uint64_t count = end - begin;
      sample_bytes += count * d * eb;
      max_cpe_samples = std::max(max_cpe_samples, count);
      max_cpe_sweep_s = std::max(
          max_cpe_sweep_s,
          static_cast<double>(block.unresolved * k) * sweep_row_s +
              static_cast<double>(block.tightened) * tighten_row_s);
      if (block.unresolved > 0) {
        ++cpes_with_sweep;
      }
    }

    // Only CPEs with unresolved work (re)load the full centroid set; a
    // fully-gated CPE just accumulates from stored assignments. Every
    // sample still streams once — the accumulator needs it regardless.
    simarch::CostTally& tally = loop.tally;
    const std::size_t loading_cpes = loop.gating ? cpes_with_sweep : cpes;
    const double centroid_dma_s =
        static_cast<double>(loading_cpes * k * d * eb) / machine.dma_bandwidth;
    tally.centroid_stream_s += centroid_dma_s;
    tally.dma_bytes += loading_cpes * k * d * eb;
    const double sample_read_before = tally.sample_read_s;
    detail::charge_sample_stream(tally, machine, sample_bytes,
                                 max_cpe_samples);
    const double sample_dma_s = tally.sample_read_s - sample_read_before;
    tally.compute_s += max_cpe_sweep_s;
    sweep_.hide_dma(max_cpe_samples, sample_dma_s, centroid_dma_s,
                    max_cpe_sweep_s);
    return sweep_.outcome(sweep_row_s);
  }

  /// The CG's CPEs reduce their accumulators over register communication
  /// before the machine-wide sharded update.
  void charge_exchange(detail::EngineLoop& loop) {
    simarch::RegComm reg(loop.machine, loop.tally);
    reg.account_allreduce(loop.accum_bytes, loop.machine.cpes_per_cg);
  }

 private:
  detail::FullKSweep sweep_;
};

}  // namespace

KmeansResult run_level1(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine<Level1Grid>(Level::kLevel1, "level1", dataset,
                                        config, machine, plan,
                                        std::move(initial_centroids));
}

}  // namespace swhkm::core
