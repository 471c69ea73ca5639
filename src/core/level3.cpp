#include "core/level3.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"

namespace swhkm::core {

namespace {

/// Level 3 grid (nkd-partition): every CG of a CG group reads each
/// unresolved sample (its CPEs taking d_local dims each) and scores its own
/// centroid slice [j_begin, j_end), a span of `sstep_tiles` tiles at a
/// time; one batched argmin combine over the group communicator then
/// resolves the whole compacted span — and a fully-gated span skips the
/// collective outright (every rank computed the same empty compaction, so
/// the collective discipline holds). The simulated cost still prices the
/// paper's per-sample combine; only the wall-clock synchronisation is
/// batched. The winner's slice owner accumulates, in ascending i —
/// resolved samples under their stored assignment — so the fused sums keep
/// the exact summation order of the ungated sweep.
class Level3Grid {
 public:
  explicit Level3Grid(detail::EngineLoop& loop)
      : p_(loop.run.plan.mprime_group),
        group_(loop.cg / p_),
        within_(loop.cg % p_),
        group_comm_(loop.world.split(static_cast<int>(group_),
                                     static_cast<int>(within_))),
        j_begin_(std::min(within_ * loop.run.plan.k_local, loop.run.k)),
        j_end_(std::min(loop.run.k, j_begin_ + loop.run.plan.k_local)),
        // s-step deferred reduction: one combine launch per span of
        // `sstep` consecutive tiles instead of one per tile. The fold stays
        // element-wise over disjoint sample ranges, so any span size is
        // bit-identical; only the collective *round* count moves.
        span_samples_(loop.run.tile_samples * loop.run.config.sstep_tiles),
        record_bytes_(loop.gate ? sizeof(swmpi::MinLoc2)
                                : kArgminRecordBytes) {
    const detail::EngineRun& run = loop.run;
    // Group argmin combine price per sample: tiny payloads, so the
    // hierarchical charge's size-adaptive stage always lands on the
    // binomial tree (and degenerates to the exact flat charge whenever the
    // group sits inside one supernode — every group at paper placements).
    // Gated spans carry MinLoc2 records — 8 bytes per sample more than the
    // plain argmin, the price of the exact global runner-up distance. The
    // host combines ungated spans over the same MinLoc2 record, but an
    // ungated machine needs only the kArgminRecordBytes argmin, so that is
    // what the model prices.
    group_charge_ = run.topo.hier_allreduce_charge(record_bytes_, group_ * p_,
                                                   p_, run.xover);
    group_combine_time_ =
        run.hier ? group_charge_.seconds
                 : run.topo.allreduce_time(record_bytes_, group_ * p_, p_);
    for (SpanSlot& s : slots_) {
      s.dc.reserve(span_samples_);
      if (loop.gate) {
        s.ids.reserve(span_samples_);
      }
    }
    // Every rank of the group keeps a *private* replica of the bounds and
    // assignments for the group's samples: the gate inputs (combined
    // MinLoc2 records, published drift) are replicated bit-identically, so
    // the replicas never diverge and every rank computes the same tile
    // compaction with no extra exchange — and no rank ever reads a vector
    // another rank writes.
    if (loop.gate) {
      local_assign_.assign(run.dataset.n(), 0);
    }
  }

  detail::AssignOutcome assign(detail::EngineLoop& loop) {
    const detail::EngineRun& run = loop.run;
    const auto [begin, end] =
        detail::block_range(run.dataset.n(), run.plan.num_flow_units, group_);
    unresolved_ = 0;
    std::uint64_t owned_resolved = 0;
    double drain_first_us = -1.0;
    double drain_wall_us = 0.0;
    // Stage span [t0, t1): gate + score each of its sub-tiles into the
    // slot's deferred-combine store, then *launch* the span's single argmin
    // combine (the binomial up-phase send posts without waiting) so the
    // drain can overlap the next span's sweep. Sub-tiles claim records in
    // ascending order, so the combined store maps 1:1 onto the span's
    // survivors in ascending i.
    const auto stage = [&](SpanSlot& s) {
      s.ids.clear();
      s.dc.reset();
      for (std::size_t sub0 = s.t0; sub0 < s.t1; sub0 += run.tile_samples) {
        const std::size_t sub1 = std::min(s.t1, sub0 + run.tile_samples);
        if (!loop.gate) {
          loop.score(sub0, j_begin_, j_end_, s.dc.claim(sub1 - sub0));
          continue;
        }
        const std::size_t before = s.ids.size();
        if (!loop.gating) {
          for (std::size_t i = sub0; i < sub1; ++i) {
            s.ids.push_back(static_cast<std::uint32_t>(i));
          }
        } else {
          // No tightening at this level: the assigned centroid's row is
          // dimension-split across the group's CPEs and slice-split across
          // its CGs, so one exact distance would cost the combine the gate
          // exists to skip. Bounds + safe radii only.
          detail::gate_tile(run.dataset, loop.centroids, sub0, sub1,
                            local_assign_, loop.drift, loop.digest, loop.safe,
                            loop.upper, loop.lower, /*tighten=*/false, s.ids);
        }
        const std::size_t fresh = s.ids.size() - before;
        if (loop.survivor_hist != nullptr && loop.gating) {
          loop.survivor_hist->observe(static_cast<double>(fresh));
        }
        if (fresh == 0) {
          continue;
        }
        loop.score_ids(
            std::span<const std::uint32_t>(s.ids.data() + before, fresh),
            j_begin_, j_end_, s.dc.claim(fresh));
      }
      // A fully-gated span claimed nothing: launch() skips the collective
      // and no round is charged.
      if (s.dc.launch(group_comm_, swmpi::CombineMinLoc2{}) && p_ > 1) {
        loop.tally.net_rounds += 1;
      }
    };
    // Retire span [s.t0, s.t1): drain its combine, then merge the resolved
    // winners in ascending-i order (the bit-identity invariant). Ungated
    // spans resolved every sample, so records[pos] is sample t0 + pos.
    const auto retire = [&](SpanSlot& s) {
      if (s.dc.active()) {
        const double t_us = loop.spans_on ? loop.tel->now_us() : 0.0;
        s.dc.finish();
        if (loop.spans_on) {
          if (drain_first_us < 0) {
            drain_first_us = t_us;
          }
          drain_wall_us += loop.tel->now_us() - t_us;
        }
      }
      const auto scores = s.dc.records();
      std::size_t pos = 0;
      for (std::size_t i = s.t0; i < s.t1; ++i) {
        std::uint32_t winner;
        if (!loop.gate || (pos < s.ids.size() && s.ids[pos] == i)) {
          const swmpi::MinLoc2& rec = scores[pos];
          winner = static_cast<std::uint32_t>(rec.index);
          if (loop.gate) {
            local_assign_[i] = winner;
            detail::refresh_bounds(rec, loop.upper[i], loop.lower[i]);
          }
          if (within_ == 0) {
            loop.assignments[i] = winner;
          }
          ++pos;
        } else {
          winner = local_assign_[i];
          if (owns(winner)) {
            ++owned_resolved;
          }
        }
        if (owns(winner)) {
          loop.acc.add_sample(winner, run.dataset.sample(i));
        }
      }
      unresolved_ += pos;
      loop.tile_event(telemetry::FlightEventKind::kTileEnd, s.t0, s.t1);
    };
    // Double buffer: span t retires only after span t+1 is staged, so its
    // combine keeps draining under that span's gate + sweep. Retire order
    // stays ascending, so the accumulator's summation order — and the
    // centroid bits — cannot move.
    SpanSlot* staged = nullptr;
    for (std::size_t t0 = begin; t0 < end; t0 += span_samples_) {
      SpanSlot& s = staged == &slots_[0] ? slots_[1] : slots_[0];
      s.t0 = t0;
      s.t1 = std::min(end, t0 + span_samples_);
      loop.tile_event(telemetry::FlightEventKind::kTileStart, s.t0, s.t1);
      stage(s);
      if (staged != nullptr) {
        retire(*staged);
      }
      staged = &s;
    }
    if (staged != nullptr) {
      retire(*staged);
    }
    if (loop.spans_on && drain_first_us >= 0 && p_ > 1) {
      loop.tel->spans().record("combine_drain",
                               static_cast<std::uint32_t>(loop.cg),
                               static_cast<std::uint32_t>(loop.global_iter),
                               drain_first_us, drain_wall_us);
    }

    // DMA: unresolved samples stream into every CG of the group; a
    // resolved sample is read only by the CG owning its assigned slice
    // (for the accumulator).
    const simarch::MachineConfig& machine = run.machine;
    simarch::CostTally& tally = loop.tally;
    count_ = end - begin;
    const std::uint64_t streamed =
        loop.gate ? unresolved_ + owned_resolved : count_;
    detail::charge_sample_stream(tally, machine, streamed * run.d * run.eb,
                                 streamed);
    const double centroid_stream_before = tally.centroid_stream_s;
    if (!loop.gate || unresolved_ > 0) {
      detail::charge_centroid_traffic(tally, machine, run.plan, unresolved_);
    }
    tile_dma_s_ = tally.centroid_stream_s - centroid_stream_before;
    const double sweep_row_s =
        run.gemm ? machine.gemm_row_seconds(run.plan.d_local)
                 : machine.assign_row_seconds(run.plan.d_local);
    sweep_compute_s_ = static_cast<double>(unresolved_) *
                       static_cast<double>(run.plan.k_local) * sweep_row_s;
    tally.compute_s += sweep_compute_s_;

    // The group's ranks gate the same samples, so only the slice-0 rank
    // reports the prune count (volume counters sum across ranks). Slice
    // widths tile [0, k) within each group, so the machine-wide distance
    // ledgers sum to exactly swept-samples x k and samples x k.
    const std::uint64_t width = j_end_ - j_begin_;
    return {.samples = count_,
            .swept = unresolved_,
            .pruned = within_ == 0 ? count_ - unresolved_ : 0,
            .evals = unresolved_ * width,
            .lloyd_evals = count_ * width,
            .sweep_row_s = sweep_row_s};
  }

  /// Per-sample mesh reduce of the CPEs' distance partials, then the
  /// per-sample network argmin across the CG group — both compacted to the
  /// unresolved samples — and the span double buffer's overlap.
  void charge_exchange(detail::EngineLoop& loop) {
    const detail::EngineRun& run = loop.run;
    simarch::CostTally& tally = loop.tally;
    simarch::RegComm reg(loop.machine, tally);
    reg.account_allreduce(run.plan.k_local * run.eb,
                          loop.machine.cpes_per_cg, unresolved_);
    const double tile_net_s =
        static_cast<double>(unresolved_) * group_combine_time_;
    tally.net_comm_s += tile_net_s;
    tally.net_bytes += unresolved_ * record_bytes_ * (p_ - 1);
    if (run.hier) {
      tally.net_crossing_bytes += unresolved_ * group_charge_.crossing_bytes;
      if (loop.cg == 0 && p_ > 1 && unresolved_ > 0) {
        detail::tick_collective_charge(
            loop.tshard, "sim.collective.group_argmin", group_charge_);
      }
    }

    // Span overlap: all but the first span's combine drain (and centroid
    // reload) issue under another span's distance sweep, so up to a
    // (T-1)/T share of the sweep hides that traffic. The combine is hidden
    // first (it is the phase the split-phase start/finish really
    // overlaps); leftover window hides the modelled centroid re-stream.
    // Hidden seconds move into the overlapped_* ledgers — total_s()
    // shrinks by exactly what the overlap bought.
    if (count_ > span_samples_) {
      const std::size_t ntiles = (count_ + span_samples_ - 1) / span_samples_;
      const double window = sweep_compute_s_ *
                            static_cast<double>(ntiles - 1) /
                            static_cast<double>(ntiles);
      const double hide_net = std::min(tile_net_s, window);
      const double hide_dma = std::min(tile_dma_s_, window - hide_net);
      tally.net_comm_s -= hide_net;
      tally.overlapped_net_s += hide_net;
      tally.centroid_stream_s -= hide_dma;
      tally.overlapped_dma_s += hide_dma;
      if (loop.overlap_hist != nullptr) {
        loop.overlap_hist->observe(hide_net + hide_dma);
      }
    }
  }

 private:
  /// Double-buffered span slot: span t+1 is staged (gate + score each
  /// sub-tile, one deferred-combine launch) while span t's combine drains.
  struct SpanSlot {
    std::size_t t0 = 0;
    std::size_t t1 = 0;
    std::vector<std::uint32_t> ids;
    swmpi::DeferredCombine<swmpi::MinLoc2, swmpi::CombineMinLoc2> dc;
  };

  bool owns(std::uint32_t j) const { return j >= j_begin_ && j < j_end_; }

  const std::size_t p_;       // CGs per CG group (m'_group)
  const std::size_t group_;   // CG-group index (flow unit)
  const std::size_t within_;  // slice holder index
  swmpi::Comm group_comm_;
  const std::size_t j_begin_;  // this CG's centroid slice [j_begin, j_end)
  const std::size_t j_end_;
  const std::size_t span_samples_;
  // The (distance, index) argmin an ungated machine sends per sample.
  static constexpr std::size_t kArgminRecordBytes = 16;
  const std::size_t record_bytes_;  // modeled combine record per sample
  simarch::CollectiveCharge group_charge_;
  double group_combine_time_ = 0;
  SpanSlot slots_[2];
  std::vector<std::uint32_t> local_assign_;
  // This iteration's sweep, carried from assign to charge_exchange.
  std::uint64_t count_ = 0;
  std::uint64_t unresolved_ = 0;
  double sweep_compute_s_ = 0;
  double tile_dma_s_ = 0;
};

}  // namespace

KmeansResult run_level3(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine<Level3Grid>(Level::kLevel3, "level3", dataset,
                                        config, machine, plan,
                                        std::move(initial_centroids));
}

}  // namespace swhkm::core
