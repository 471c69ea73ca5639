#include "core/engine_loop.hpp"

#include <algorithm>
#include <string>

#include "core/metrics.hpp"
#include "simarch/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace swhkm::core::detail {

namespace {

/// Throws unless `plan` is a `level` plan for this dataset/config whose LDM
/// layout really fits; returns it.
const PartitionPlan& checked_plan(Level level, const data::Dataset& dataset,
                                  const KmeansConfig& config,
                                  const simarch::MachineConfig& machine,
                                  const PartitionPlan& plan) {
  SWHKM_REQUIRE(plan.level == level,
                std::string("plan is not a ") + level_name(level) + " plan");
  SWHKM_REQUIRE(plan.shape.n == dataset.n() && plan.shape.d == dataset.d() &&
                    plan.shape.k == config.k,
                "plan shape does not match the dataset/config");
  validate_ldm_layout(plan, machine);
  return plan;
}

}  // namespace

EngineRun::EngineRun(Level level, const char* name,
                     const data::Dataset& dataset, const KmeansConfig& config,
                     const simarch::MachineConfig& machine,
                     const PartitionPlan& plan,
                     util::Matrix initial_centroids)
    : dataset(dataset),
      config(config),
      machine(machine),
      plan(checked_plan(level, dataset, config, machine, plan)),
      name(name) {
  if (config.gemm_assign && !gemm) {
    SWHKM_WARN << name << ": GEMM scratch for tile_samples="
               << config.tile_samples
               << " overflows LDM; pricing the chain kernel (bit-identical)";
  }
  result.assignments.assign(dataset.n(), 0);
  result.centroids = std::move(initial_centroids);
}

KmeansResult EngineRun::finish() {
  warn_empty_clusters(result.empty_clusters, name);
  if (config.gate_assign && result.iterations > 1) {
    // Safe-radius maintenance: k(k-1)/2 centroid pairs per gated
    // iteration, counted once (the per-rank copies are replicas).
    result.accel.centroid_distance_computations =
        (result.iterations - 1) * k * (k - 1) / 2;
  }
  result.inertia = inertia(dataset, result.centroids, result.assignments);
  return std::move(result);
}

EngineLoop::EngineLoop(EngineRun& run, swmpi::Comm& world)
    : run(run), world(world) {
  if (sdc) {
    gemm_sdc_.check = true;
    gemm_sdc_.flip = [this](std::span<std::byte> bytes) {
      this->world.memory_fault_point(swmpi::MemorySite::kTileScratch,
                                     sdc_iter_, bytes);
    };
  }
  if (gate) {
    upper.assign(dataset.n(), 0.0);
    lower.assign(dataset.n(), 0.0);
    drift.assign(run.k, 0.0);
  }
}

void EngineLoop::begin_iteration(std::size_t iter) {
  // Global iteration index: the RecoveryDriver runs the engines in legs,
  // and fault schedules / trace rows are addressed globally.
  global_iter = run.config.iteration_base + iter;
  if (flight != nullptr) {
    flight->record(telemetry::FlightEventKind::kIterationStart,
                   static_cast<std::uint32_t>(global_iter), 0, 0, 0,
                   rank_clock_);
  }
  world.fault_point(swmpi::FaultSite::kAssign, global_iter);
  if (sdc) {
    scrub_snapshot();
  }
  assign_start_us_ = spans_on ? tel->now_us() : 0.0;
  acc.reset();
  tally = simarch::CostTally{};
  abft_recomputed_before_ = gemm_sdc_.recomputed;

  gating = gate && iter > 0;
  digest = gating ? drift_digest(drift) : DriftDigest{};
  if (gating) {
    compute_safe_radii(centroids, safe);
  }
  // Drift is only published on gated runs; without it the cache has no
  // invalidation signal, so recompute all k rows each iteration. The host
  // selector always needs the norms; the model charges the refresh only
  // where it prices the GEMM kernel.
  const std::size_t norm_rows =
      gating ? norm_cache_.refresh_from_drift(centroids, drift)
             : norm_cache_.refresh_full(centroids);
  if (run.gemm) {
    tally.compute_s +=
        static_cast<double>(norm_rows) * machine.gemm_row_seconds(run.d);
    // Norm refresh seconds are charged above, but its O(k d) products stay
    // out of `flops`, which keeps its exact 2nkd distance-work meaning
    // (FlopAccountingMatches2nkd) and prices the FLOP *rate* from the
    // panel product alone.
  }
  norms = std::span<const double>(norm_cache_.norms.data(),
                                  norm_cache_.norms.size());
}

void EngineLoop::scrub_snapshot() {
  // Snapshot scrub phase. Protocol: capture the reference CRC (cold start
  // only — warm iterations captured it right after the update published
  // the rows), barrier, expose the shared snapshot to flip_memory (at most
  // one rank writes), barrier, then every rank re-reads and verifies. The
  // barriers order the injected write against all ranks' reads; they run
  // on `world` because the snapshot is machine-wide state (Level 3's group
  // split only covers the assign-phase argmin). Capture-after-update needs
  // none: the update's closing allreduce orders the writes, and the next
  // update's entry allgather orders this read before new writes.
  sdc_iter_ = global_iter;
  const std::span<float> snap = centroids.flat();
  if (!snap_crc_valid_) {
    snap_crc_ = util::crc32(std::as_bytes(snap));
    snap_crc_valid_ = true;
  }
  swmpi::barrier(world);
  world.memory_fault_point(swmpi::MemorySite::kSnapshot, global_iter,
                           std::as_writable_bytes(snap));
  swmpi::barrier(world);
  if (util::crc32(std::as_bytes(snap)) != snap_crc_) {
    if (tshard != nullptr) {
      tshard->counter("sdc.snapshot.crc_fail").add(1);
    }
    throw SilentCorruptionError(
        "sdc: centroid snapshot CRC mismatch at iteration " +
        std::to_string(global_iter) +
        " — published centroid bits were corrupted in memory");
  }
}

void EngineLoop::charge_assign(const AssignOutcome& out) {
  if (spans_on) {
    tel->spans().record("assign", static_cast<std::uint32_t>(cg),
                        static_cast<std::uint32_t>(global_iter),
                        assign_start_us_, tel->now_us() - assign_start_us_);
  }
  if (swept_ctr_ != nullptr) {
    swept_ctr_->add(out.swept);
    pruned_ctr_->add(out.samples - out.swept);
  }
  const std::size_t k = run.k;
  const std::size_t d = run.d;
  tally.flops += out.evals * 2 * d;
  if (gating) {
    // Safe radii: k(k-1)/2 centroid-pair rows from the shared snapshot,
    // recomputed by every CG each iteration.
    tally.compute_s += static_cast<double>(k * (k - 1) / 2) *
                       machine.assign_row_seconds(d);
    tally.flops += k * (k - 1) * d;
  }
  tally.pruned_samples += out.pruned;
  distance_comps_ += out.evals;
  lloyd_equivalent_ += out.lloyd_evals;
  if (sdc) {
    // Modeled SDC overhead, charged only when the defense is armed so
    // defense-off model numbers stay pinned: the ABFT checksum adds two
    // extra dot chains per 16-row panel (1/8 of the sweep rate), the
    // snapshot + accumulator CRC scrubs stream their bytes once, and the
    // frame trailers + conservation allreduce ride the network.
    tally.compute_s +=
        static_cast<double>(out.swept) * out.sweep_row_s * 0.125;
    tally.compute_s += static_cast<double>(k * d * run.eb + accum_bytes) /
                       machine.dma_bandwidth;
    const std::uint64_t sdc_net = 16 * 2 * run.num_cgs + sizeof(double);
    tally.net_comm_s += run.topo.allgather_time(sdc_net, 0, run.num_cgs);
    tally.net_bytes += sdc_net;
    tally.net_rounds += 1;  // the counts-conservation allreduce
    tally.sdc_recomputed += gemm_sdc_.recomputed - abft_recomputed_before_;
    if (tshard != nullptr && gemm_sdc_.recomputed != abft_recomputed_before_) {
      tshard->counter("sdc.abft.detected")
          .add(gemm_sdc_.recomputed - abft_recomputed_before_);
    }
  }
}

bool EngineLoop::update(std::size_t iter) {
  const std::size_t k = run.k;
  const std::size_t d = run.d;
  const std::size_t num_cgs = run.num_cgs;
  // Update: the machine-wide sharded phase — reduce_scatter of the fused
  // accumulator (each sample was accumulated exactly once machine-wide, so
  // the world collective is the functional truth), every CG applying its
  // own shard of rows, then one allgather publishing the refreshed rows
  // with the (shift, empties) stats riding as a 16-byte per-rank header
  // (plus the k-double drift vector when gating). The collectives are
  // charged to net_comm_s; update_s only covers this CG's shard.
  const std::size_t publish_bytes =
      k * d * run.eb + 16 * num_cgs + (gate ? k * sizeof(double) : 0);
  if (run.hier) {
    const simarch::CollectiveCharge rs = run.topo.hier_reduce_scatter_charge(
        accum_bytes, 0, num_cgs, run.xover);
    const simarch::CollectiveCharge ag =
        run.topo.hier_allgather_charge(publish_bytes, 0, num_cgs);
    tally.net_comm_s += rs.seconds + ag.seconds;
    tally.net_crossing_bytes += rs.crossing_bytes + ag.crossing_bytes;
    if (cg == 0) {
      tick_collective_charge(tshard, "sim.collective.update_rs", rs);
      tick_collective_charge(tshard, "sim.collective.update_ag", ag);
    }
  } else {
    tally.net_comm_s += run.topo.reduce_scatter_time(accum_bytes, 0, num_cgs) +
                        run.topo.allgather_time(publish_bytes, 0, num_cgs);
  }
  tally.net_bytes += accum_bytes + publish_bytes;
  tally.net_rounds += 2;  // reduce_scatter + allgather
  world.fault_point(swmpi::FaultSite::kUpdate, global_iter);
  if (sdc) {
    scrub_accumulator();
  }
  const double update_start_us = spans_on ? tel->now_us() : 0.0;
  const UpdateOutcome outcome = reduce_and_update(
      world, centroids, acc,
      gate ? std::span<double>(drift.data(), drift.size())
           : std::span<double>{},
      sdc ? dataset.n() : 0);
  if (sdc) {
    // Re-capture the reference CRC from the freshly published rows (see
    // scrub_snapshot for the ordering argument).
    snap_crc_ = util::crc32(std::as_bytes(centroids.flat()));
    snap_crc_valid_ = true;
  }
  if (spans_on) {
    tel->spans().record("update", static_cast<std::uint32_t>(cg),
                        static_cast<std::uint32_t>(global_iter),
                        update_start_us, tel->now_us() - update_start_us);
  }
  const double shift = outcome.shift;
  const auto [u_begin, u_end] = block_range(k, num_cgs, cg);
  const std::size_t shard_rows = u_end - u_begin;
  tally.update_s +=
      static_cast<double>(2 * shard_rows * d) /
          (machine.cg_flops() * machine.compute_efficiency) +
      static_cast<double>(shard_rows * d * run.eb) / machine.dma_bandwidth;

  if (run.config.trace != nullptr) {
    run.config.trace->record_iteration(static_cast<std::uint32_t>(cg),
                                       static_cast<std::uint32_t>(global_iter),
                                       rank_clock_, tally);
  }
  world.fault_point(swmpi::FaultSite::kCollective, global_iter);
  const simarch::CostTally combined = combine_tallies(world, tally);
  rank_clock_ += combined.total_s();  // bulk-synchronous iteration edge
  if (flight != nullptr) {
    flight->record(telemetry::FlightEventKind::kIterationEnd,
                   static_cast<std::uint32_t>(global_iter), 0, 0, 0,
                   rank_clock_);
  }
  KmeansResult& result = run.result;
  if (cg == 0) {
    result.cost += combined;
    result.last_iteration_cost = combined;
    result.iterations = iter + 1;
    result.empty_clusters = outcome.empty_clusters;
    result.history.push_back({shift, combined.total_s(),
                              static_cast<double>(combined.pruned_samples) /
                                  static_cast<double>(dataset.n()),
                              combined.net_bytes, combined.dma_bytes,
                              combined.flops, combined.net_rounds});
    result.history.back().net_crossing_bytes = combined.net_crossing_bytes;
    result.history.back().sdc_recomputed = combined.sdc_recomputed;
    fill_phase_stats(result.history.back(), combined);
    if (sim_net_ != nullptr) {
      sim_net_->add(combined.net_bytes);
      sim_dma_->add(combined.dma_bytes);
    }
  }
  if (shift <= run.config.tolerance) {
    if (cg == 0) {
      result.converged = true;
    }
    return true;
  }
  return false;
}

void EngineLoop::scrub_accumulator() {
  // Accumulator scrub: capture the sums CRC at accumulation end, expose the
  // (sums, counts) pair to flip_memory — the modeled DRAM flip between
  // accumulation and fold — and verify the sums before they enter the
  // reduction. Counts are deliberately left out of the CRC: a counts flip
  // is caught by the Σcounts == n conservation guard inside
  // reduce_and_update, keeping both detectors honest.
  const std::span<double> sums(acc.sums.data(), acc.sums.size());
  const std::span<double> counts(acc.counts.data(), acc.counts.size());
  const std::uint32_t sums_crc = util::crc32(std::as_bytes(sums));
  world.memory_fault_point(swmpi::MemorySite::kUpdateAccum, global_iter,
                           std::as_writable_bytes(sums),
                           std::as_writable_bytes(counts));
  if (util::crc32(std::as_bytes(sums)) != sums_crc) {
    if (tshard != nullptr) {
      tshard->counter("sdc.accum.crc_fail").add(1);
    }
    throw SilentCorruptionError(
        "sdc: update accumulator CRC mismatch on rank " +
        std::to_string(world.global_rank()) + " at iteration " +
        std::to_string(global_iter) +
        " — accumulator sums were corrupted before the fold");
  }
}

void EngineLoop::close() {
  // Every rank leaves the loop at the same iteration (shift is
  // replicated), so one closing collective folds the per-rank distance
  // ledgers.
  std::uint64_t counters[2] = {distance_comps_, lloyd_equivalent_};
  swmpi::allreduce_sum(world, std::span<std::uint64_t>(counters, 2));
  if (cg == 0) {
    run.result.accel.distance_computations = counters[0];
    run.result.accel.lloyd_equivalent = counters[1];
  }
}

FullKSweep::FullKSweep(EngineLoop& loop) : loop_(loop) {
  scores_.resize(loop.run.tile_samples);
  if (loop.gate) {
    ids_.reserve(loop.run.tile_samples);
  }
}

FullKSweep::Block FullKSweep::run(std::size_t begin, std::size_t end) {
  EngineLoop& l = loop_;
  const std::size_t k = l.run.k;
  Block block;
  for (std::size_t t0 = begin; t0 < end; t0 += l.run.tile_samples) {
    const std::size_t t1 = std::min(end, t0 + l.run.tile_samples);
    l.tile_event(telemetry::FlightEventKind::kTileStart, t0, t1);
    // Ungated tiles score every sample, so scores_[pos] is sample t0 + pos.
    if (!l.gating) {
      l.score(t0, 0, k, std::span<TileScore2>(scores_.data(), t1 - t0));
    } else {
      ids_.clear();
      block.tightened += gate_tile(l.dataset, l.centroids, t0, t1,
                                   l.assignments, l.drift, l.digest, l.safe,
                                   l.upper, l.lower, /*tighten=*/true, ids_);
      if (l.survivor_hist != nullptr) {
        l.survivor_hist->observe(static_cast<double>(ids_.size()));
      }
      if (!ids_.empty()) {
        l.score_ids(std::span<const std::uint32_t>(ids_.data(), ids_.size()),
                    0, k, std::span<TileScore2>(scores_.data(), ids_.size()));
      }
    }
    std::size_t pos = 0;
    for (std::size_t i = t0; i < t1; ++i) {
      std::uint32_t j;
      if (!l.gating || (pos < ids_.size() && ids_[pos] == i)) {
        const TileScore2& rec = scores_[pos];
        j = static_cast<std::uint32_t>(rec.index);
        l.assignments[i] = j;
        if (l.gate) {
          refresh_bounds(rec, l.upper[i], l.lower[i]);
        }
        ++pos;
      } else {
        j = l.assignments[i];
      }
      l.acc.add_sample(j, l.dataset.sample(i));
    }
    block.unresolved += pos;
    l.tile_event(telemetry::FlightEventKind::kTileEnd, t0, t1);
  }
  samples_ += end - begin;
  totals_.unresolved += block.unresolved;
  totals_.tightened += block.tightened;
  return block;
}

AssignOutcome FullKSweep::outcome(double sweep_row_s) {
  const std::size_t k = loop_.run.k;
  const AssignOutcome out{.samples = samples_,
                          .swept = totals_.unresolved,
                          .pruned = samples_ - totals_.unresolved,
                          .evals = totals_.unresolved * k + totals_.tightened,
                          .lloyd_evals = samples_ * k,
                          .sweep_row_s = sweep_row_s};
  samples_ = 0;
  totals_ = Block{};
  return out;
}

void FullKSweep::hide_dma(std::uint64_t max_block_samples,
                          double sample_dma_s, double centroid_dma_s,
                          double sweep_compute_s) {
  EngineLoop& l = loop_;
  const std::size_t tile_samples = l.run.tile_samples;
  const double tile_dma_s = sample_dma_s + centroid_dma_s;
  if (!(max_block_samples > tile_samples && tile_dma_s > 0)) {
    return;
  }
  const std::size_t ntiles =
      (max_block_samples + tile_samples - 1) / tile_samples;
  const double window = sweep_compute_s * static_cast<double>(ntiles - 1) /
                        static_cast<double>(ntiles);
  const double hidden = std::min(tile_dma_s, window);
  const double f = hidden / tile_dma_s;
  l.tally.sample_read_s -= f * sample_dma_s;
  l.tally.centroid_stream_s -= f * centroid_dma_s;
  l.tally.overlapped_dma_s += hidden;
  if (l.overlap_hist != nullptr) {
    l.overlap_hist->observe(hidden);
  }
}

}  // namespace swhkm::core::detail
