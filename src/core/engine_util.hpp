#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "data/dataset.hpp"
#include "util/log.hpp"
#include "util/matrix.hpp"

namespace swhkm::core::detail {

/// Squared Euclidean distance in double precision — the one distance kernel
/// shared by the serial baseline and every engine level, so trajectories
/// can only diverge through summation *order*, never through arithmetic.
inline double squared_distance(std::span<const float> x,
                               std::span<const float> c) {
  double sum = 0;
  for (std::size_t u = 0; u < x.size(); ++u) {
    const double diff = static_cast<double>(x[u]) - static_cast<double>(c[u]);
    sum += diff * diff;
  }
  return sum;
}

/// Partial distance over a dimension slice [u_begin, u_end): the Level 3
/// per-CPE kernel.
inline double partial_squared_distance(std::span<const float> x,
                                       std::span<const float> c,
                                       std::size_t u_begin,
                                       std::size_t u_end) {
  double sum = 0;
  for (std::size_t u = u_begin; u < u_end; ++u) {
    const double diff = static_cast<double>(x[u]) - static_cast<double>(c[u]);
    sum += diff * diff;
  }
  return sum;
}

/// Scan centroids [j_begin, j_end) for the nearest one; ties break toward
/// the smaller index, matching a serial left-to-right scan.
inline std::pair<double, std::uint32_t> nearest_in_slice(
    std::span<const float> x, const util::Matrix& centroids,
    std::size_t j_begin, std::size_t j_end) {
  double best = std::numeric_limits<double>::max();
  std::uint32_t best_j = 0;
  for (std::size_t j = j_begin; j < j_end; ++j) {
    const double dist = squared_distance(x, centroids.row(j));
    if (dist < best) {
      best = dist;
      best_j = static_cast<std::uint32_t>(j);
    }
  }
  return {best, best_j};
}

/// Samples per assign-phase tile. A tile is the unit the engines batch
/// their argmin state over: one collective (Level 3) or one accumulation
/// sweep per tile instead of per sample. Any value gives bit-identical
/// results (the tile argmin preserves the left-to-right tie-break); 256
/// keeps a tile's argmin records at a few KiB while amortising the per-batch
/// synchronisation far past the point of diminishing returns.
inline constexpr std::size_t kAssignTileSamples = 256;

/// Centroid rows scored per cache block inside a tile sweep: the block
/// stays hot in L1 while the tile's samples stream past it, and each row
/// gets an independent accumulation chain (see score_tile) — 16 chains
/// saturate the FP pipes without spilling vector registers.
inline constexpr std::size_t kCentroidRowBlock = 16;

/// Local (distance, centroid-index) argmin record, the serial Lloyd tile's
/// record; the tile kernels are templated so serial callers do not need
/// the swmpi headers.
struct TileScore {
  double value = 0;
  std::uint64_t index = 0;
};

/// Argmin record that also tracks the runner-up distance — the local half
/// of swmpi::MinLoc2. The bound-gated engines need the exact second-closest
/// distance to seed the Hamerly lower bound after a full sweep.
struct TileScore2 {
  double value = 0;
  std::uint64_t index = 0;
  double second = 0;
};

/// Detects records carrying a runner-up slot (TileScore2 / swmpi::MinLoc2);
/// the tile kernels stay a single template over both record widths.
template <typename MinLocT>
concept HasSecond = requires(MinLocT r) { r.second; };

/// Reset a tile's argmin records to "no centroid seen": +inf distance and
/// a sentinel index that loses every tie (ranks with an empty centroid
/// slice contribute exactly this to the Level 3 combine).
template <typename MinLocT>
inline void clear_scores(std::span<MinLocT> scores) {
  for (MinLocT& s : scores) {
    s.value = std::numeric_limits<double>::max();
    s.index = std::numeric_limits<std::uint64_t>::max();
    if constexpr (HasSecond<MinLocT>) {
      s.second = std::numeric_limits<double>::max();
    }
  }
}

/// Offer one (distance, centroid) candidate to an argmin record. Strict
/// `<` everywhere: ties resolve toward the smaller index (candidates
/// arrive in ascending j), and an equal-to-best distance lands in the
/// runner-up slot — the same top-two semantics as a serial left-to-right
/// scan.
template <typename MinLocT>
inline void offer_score(MinLocT& rec, double value, std::uint64_t index) {
  if constexpr (HasSecond<MinLocT>) {
    if (value < rec.value) {
      rec.second = rec.value;
      rec.value = value;
      rec.index = index;
    } else if (value < rec.second) {
      rec.second = value;
    }
  } else {
    if (value < rec.value) {
      rec.value = value;
      rec.index = index;
    }
  }
}

/// One sample against one full u-major centroid panel: runs
/// kCentroidRowBlock independent accumulation chains, each summing
/// (x[u]-c[u])^2 in ascending u with separate sub/mul/add — the exact
/// operation sequence of squared_distance, so every distance is
/// bit-identical to the serial kernel.
inline void sample_block_chains_generic(const float* __restrict__ x,
                                        const double* __restrict__ panel,
                                        std::size_t d,
                                        double* __restrict__ acc) {
  // __restrict__ matters: without it the compiler must assume acc aliases
  // panel, which forces a store per chain step and blocks vectorisation.
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      const double diff = xu - row[jj];
      acc[jj] += diff * diff;
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define SWHKM_KERNEL_DISPATCH 1
/// AVX2 build of the same source. 4-wide doubles are the same IEEE
/// operations as scalar, so results stay bit-identical to the generic
/// build. The rule that keeps them so: implicit arithmetic is never
/// contracted into FMA (swhkm and everything linking it compile with
/// -ffp-contract=off), because fusing diff*diff into acc skips the
/// rounding of a product that is *not* exact in double. Explicit FMA is
/// used only where the product is exact (dot_rows_* below).
__attribute__((target("avx2"))) inline void sample_block_chains_avx2(
    const float* __restrict__ x, const double* __restrict__ panel,
    std::size_t d, double* __restrict__ acc) {
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      const double diff = xu - row[jj];
      acc[jj] += diff * diff;
    }
  }
}

using SampleBlockFn = void (*)(const float*, const double*, std::size_t,
                               double*);
inline SampleBlockFn resolve_sample_block_chains() {
  if (__builtin_cpu_supports("avx2")) {
    return &sample_block_chains_avx2;
  }
  return &sample_block_chains_generic;
}
/// Resolved once per process; both candidates are bit-identical.
inline const SampleBlockFn sample_block_chains = resolve_sample_block_chains();
#else
inline constexpr auto sample_block_chains = &sample_block_chains_generic;
#endif

/// Score centroids [j_begin, j_end) against `count` samples named by
/// `sample_index(0..count-1)` and combine into `scores` (one record per
/// sample, caller-initialised — see clear_scores). Serial Lloyd's kernel
/// and, through the score_tile / score_tile_ids entry points below, the
/// independent oracle the GEMM selector's records are tested against; the
/// engines run the selector.
///
/// Structure: centroid rows are processed in blocks of kCentroidRowBlock,
/// each block transposed into a u-major double panel that stays hot in L1
/// while the tile's samples stream past it. Per sample the block runs one
/// independent accumulation chain per centroid (sample_block_chains),
/// which hides FP add latency — the seed's one-distance-at-a-time loop
/// was serial-dependency bound, not flop bound.
///
/// Bit-exactness: each chain is the exact operation sequence of
/// squared_distance (see sample_block_chains; float->double conversion is
/// value-preserving, and no FMA contraction on any dispatched target) —
/// and blocks visit centroid indices in ascending order with a strict
/// `<`, resolving ties toward the smaller index like the serial
/// left-to-right scan in nearest_in_slice. Trajectories therefore cannot
/// diverge.
template <typename MinLocT, typename SampleIndexFn>
inline void score_tile_gen(const data::Dataset& dataset,
                           SampleIndexFn sample_index, std::size_t count,
                           const util::Matrix& centroids, std::size_t j_begin,
                           std::size_t j_end, std::span<MinLocT> scores) {
  const std::size_t d = centroids.cols();
  std::vector<double> panel(kCentroidRowBlock * d);
  for (std::size_t jb = j_begin; jb < j_end; jb += kCentroidRowBlock) {
    const std::size_t bw = std::min(j_end - jb, kCentroidRowBlock);
    for (std::size_t u = 0; u < d; ++u) {
      for (std::size_t jj = 0; jj < bw; ++jj) {
        panel[u * bw + jj] =
            static_cast<double>(centroids.at(jb + jj, u));
      }
    }
    for (std::size_t t = 0; t < count; ++t) {
      const auto x = dataset.sample(sample_index(t));
      double acc[kCentroidRowBlock] = {};
      if (bw == kCentroidRowBlock) {
        sample_block_chains(x.data(), panel.data(), d, acc);
      } else {
        for (std::size_t u = 0; u < d; ++u) {
          const double xu = static_cast<double>(x[u]);
          const double* row = panel.data() + u * bw;
          for (std::size_t jj = 0; jj < bw; ++jj) {
            const double diff = xu - row[jj];
            acc[jj] += diff * diff;
          }
        }
      }
      MinLocT& best = scores[t];
      for (std::size_t jj = 0; jj < bw; ++jj) {
        offer_score(best, acc[jj], jb + jj);
      }
    }
  }
}

/// Contiguous-range entry point (the seed's signature).
template <typename MinLocT>
inline void score_tile(const data::Dataset& dataset, std::size_t i_begin,
                       std::size_t i_end, const util::Matrix& centroids,
                       std::size_t j_begin, std::size_t j_end,
                       std::span<MinLocT> scores) {
  score_tile_gen(
      dataset, [i_begin](std::size_t t) { return i_begin + t; },
      i_end - i_begin, centroids, j_begin, j_end, scores);
}

/// Compacted entry point: score only the samples listed in `ids` (the
/// unresolved survivors of the bound gate), scores[t] belonging to
/// ids[t]. The gather indirection costs one extra load per sample; the
/// panel-blocked sweep and its bit-exactness argument are unchanged.
template <typename MinLocT>
inline void score_tile_ids(const data::Dataset& dataset,
                           std::span<const std::uint32_t> ids,
                           const util::Matrix& centroids, std::size_t j_begin,
                           std::size_t j_end, std::span<MinLocT> scores) {
  score_tile_gen(
      dataset, [ids](std::size_t t) { return static_cast<std::size_t>(ids[t]); },
      ids.size(), centroids, j_begin, j_end, scores);
}

// ---------------------------------------------------------------------------
// GEMM-formulated distance sweep
//
// ||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c recast over the same u-major
// centroid panel as the multi-chain kernel, but accumulating dot products
// (one exact-product FMA per element instead of sub+mul+add, R samples per
// pass over the panel) with the centroid norms cached across tiles. The
// GEMM value g_j is *only a candidate selector*: each row's exact top-two
// record is formed by rescoring a tau-bounded candidate set with
// squared_distance, so the records — including every tie-break — are
// byte-identical to the serial left-to-right scan.
// ---------------------------------------------------------------------------

/// Per-row candidate capacity of the GEMM selector. A full list is first
/// compacted against the row's current bar; only when more than this many
/// centroids still sit within tau of the running top-two does the row fall
/// back to an exact full-slice sweep — the adversarial coincident-centroid
/// case, where the GEMM path would rescore everything anyway.
inline constexpr std::size_t kGemmCandidates = 8;

/// One selector candidate: the centroid index and its GEMM lower bound
/// g - tau, kept so a full list can be re-screened against a tighter bar.
struct GemmCandidate {
  double lower = 0;
  std::uint32_t index = 0;
};

/// ||c||^2 of one row in double: ascending-u sum of exact float squares
/// (a float's square is exact in double), the canonical norm the cache and
/// the selector share.
inline double row_squared_norm(std::span<const float> c) {
  double sum = 0;
  for (std::size_t u = 0; u < c.size(); ++u) {
    const double cu = static_cast<double>(c[u]);
    sum += cu * cu;
  }
  return sum;
}

/// Per-iteration cache of centroid squared norms for the GEMM selector.
///
/// Invalidation contract: a cached norm is stale exactly when the stored
/// float row changed. The sharded update publishes per-centroid drift
/// computed from the *stored float positions* (see apply_update_rows), so
/// drift[j] == 0 implies every coordinate's double diff was exactly 0.0 —
/// i.e. the stored bits are unchanged up to -0.0 vs +0.0, whose squares
/// are the same +0.0 — and the cached norm is still bit-exact. Gated runs
/// therefore refresh only the drifted rows; ungated runs (no drift
/// published) recompute every norm each iteration.
struct CentroidNormCache {
  std::vector<double> norms;
  bool valid = false;

  /// Full recompute; returns the number of rows refreshed.
  std::size_t refresh_full(const util::Matrix& centroids) {
    norms.resize(centroids.rows());
    for (std::size_t j = 0; j < centroids.rows(); ++j) {
      norms[j] = row_squared_norm(centroids.row(j));
    }
    valid = true;
    return centroids.rows();
  }

  /// Refresh only the rows whose published drift is nonzero (plus a full
  /// recompute when the cache is cold or the shape moved). Returns the
  /// number of rows refreshed — what the engines charge to the cost model.
  std::size_t refresh_from_drift(const util::Matrix& centroids,
                                 std::span<const double> drift) {
    if (!valid || norms.size() != centroids.rows() ||
        drift.size() != centroids.rows()) {
      return refresh_full(centroids);
    }
    std::size_t refreshed = 0;
    for (std::size_t j = 0; j < centroids.rows(); ++j) {
      if (drift[j] > 0) {
        norms[j] = row_squared_norm(centroids.row(j));
        ++refreshed;
      }
    }
    return refreshed;
  }

  void invalidate() { valid = false; }
};

// ---------------------------------------------------------------------------
// Register-blocked dot microkernel
//
// One call computes R samples x kCentroidRowBlock centroids of dot
// products: dots[r * 16 + jj] = sum_u xb[u * R + r] * panel[u * 16 + jj],
// summed in ascending u from +0.0. `xb` is one row block of the tile,
// packed u-major in double (pack_tile_rows); `panel` is one centroid block,
// u-major and padded to 16 lanes. Every operand is a float widened to
// double, and a product of two floats (24-bit significands) is exact in
// double's 53 bits, so fma(x, c, acc) and acc + x*c round once, at the
// same point: every variant — FMA or not, any R — returns the same bits
// as the generic build, dot for dot. The R x 16 accumulators are
// independent chains, which is what hides the FMA latency.
// ---------------------------------------------------------------------------

/// One dispatch variant of the dot microkernel.
struct DotKernel {
  const char* name;
  std::size_t rows;  ///< R: samples per call (the packed row block height)
  void (*fn)(const double* __restrict__ xb, const double* __restrict__ panel,
             std::size_t d, double* __restrict__ dots);
};

/// Portable build: plain mul + add (never contracted, see
/// sample_block_chains_avx2), the reference the dispatched variants match.
inline void dot_rows_generic(const double* __restrict__ xb,
                             const double* __restrict__ panel, std::size_t d,
                             double* __restrict__ dots) {
  constexpr std::size_t kR = 2;
  double acc[kR][kCentroidRowBlock] = {};
  for (std::size_t u = 0; u < d; ++u) {
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t r = 0; r < kR; ++r) {
      const double xr = xb[u * kR + r];
      for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
        acc[r][jj] += xr * row[jj];
      }
    }
  }
  std::copy(&acc[0][0], &acc[0][0] + kR * kCentroidRowBlock, dots);
}

#if defined(SWHKM_KERNEL_DISPATCH)
/// AVX2 + FMA: 3 samples x 4 ymm of centroids = 12 accumulators; with the
/// broadcast and the folded panel loads they fit the 16 ymm registers.
/// Named accumulators, not an array: GCC keeps a __m256d array mirrored in
/// memory here and stores it every step.
__attribute__((target("avx2,fma"))) inline void dot_rows_avx2(
    const double* __restrict__ xb, const double* __restrict__ panel,
    std::size_t d, double* __restrict__ dots) {
  constexpr std::size_t kR = 3;
  __m256d a00 = _mm256_setzero_pd(), a01 = a00, a02 = a00, a03 = a00;
  __m256d a10 = a00, a11 = a00, a12 = a00, a13 = a00;
  __m256d a20 = a00, a21 = a00, a22 = a00, a23 = a00;
  for (std::size_t u = 0; u < d; ++u) {
    const double* row = panel + u * kCentroidRowBlock;
    const __m256d c0 = _mm256_loadu_pd(row);
    const __m256d c1 = _mm256_loadu_pd(row + 4);
    const __m256d c2 = _mm256_loadu_pd(row + 8);
    const __m256d c3 = _mm256_loadu_pd(row + 12);
    const __m256d x0 = _mm256_broadcast_sd(xb + u * kR);
    a00 = _mm256_fmadd_pd(x0, c0, a00);
    a01 = _mm256_fmadd_pd(x0, c1, a01);
    a02 = _mm256_fmadd_pd(x0, c2, a02);
    a03 = _mm256_fmadd_pd(x0, c3, a03);
    const __m256d x1 = _mm256_broadcast_sd(xb + u * kR + 1);
    a10 = _mm256_fmadd_pd(x1, c0, a10);
    a11 = _mm256_fmadd_pd(x1, c1, a11);
    a12 = _mm256_fmadd_pd(x1, c2, a12);
    a13 = _mm256_fmadd_pd(x1, c3, a13);
    const __m256d x2 = _mm256_broadcast_sd(xb + u * kR + 2);
    a20 = _mm256_fmadd_pd(x2, c0, a20);
    a21 = _mm256_fmadd_pd(x2, c1, a21);
    a22 = _mm256_fmadd_pd(x2, c2, a22);
    a23 = _mm256_fmadd_pd(x2, c3, a23);
  }
  const __m256d out[kR][4] = {
      {a00, a01, a02, a03}, {a10, a11, a12, a13}, {a20, a21, a22, a23}};
  for (std::size_t r = 0; r < kR; ++r) {
    for (std::size_t q = 0; q < 4; ++q) {
      _mm256_storeu_pd(dots + r * kCentroidRowBlock + q * 4, out[r][q]);
    }
  }
}

/// AVX-512F: 8 samples x 2 zmm of centroids = 16 accumulators of 32 zmm.
__attribute__((target("avx512f"))) inline void dot_rows_avx512(
    const double* __restrict__ xb, const double* __restrict__ panel,
    std::size_t d, double* __restrict__ dots) {
  constexpr std::size_t kR = 8;
  __m512d acc[kR][2];
  for (std::size_t r = 0; r < kR; ++r) {
    acc[r][0] = _mm512_setzero_pd();
    acc[r][1] = _mm512_setzero_pd();
  }
  for (std::size_t u = 0; u < d; ++u) {
    const double* row = panel + u * kCentroidRowBlock;
    const __m512d c0 = _mm512_loadu_pd(row);
    const __m512d c1 = _mm512_loadu_pd(row + 8);
    for (std::size_t r = 0; r < kR; ++r) {
      const __m512d xr = _mm512_set1_pd(xb[u * kR + r]);
      acc[r][0] = _mm512_fmadd_pd(xr, c0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(xr, c1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < kR; ++r) {
    _mm512_storeu_pd(dots + r * kCentroidRowBlock, acc[r][0]);
    _mm512_storeu_pd(dots + r * kCentroidRowBlock + 8, acc[r][1]);
  }
}
#endif

/// The variants this host can run, generic first and fastest last.
inline const std::vector<DotKernel>& dot_kernel_variants() {
  static const std::vector<DotKernel> variants = [] {
    std::vector<DotKernel> v{{"generic", 2, &dot_rows_generic}};
#if defined(SWHKM_KERNEL_DISPATCH)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      v.push_back({"avx2", 3, &dot_rows_avx2});
    }
    if (__builtin_cpu_supports("avx512f")) {
      v.push_back({"avx512", 8, &dot_rows_avx512});
    }
#endif
    return v;
  }();
  return variants;
}

/// The variant the GEMM sweep runs: resolved once per process.
inline const DotKernel& dot_kernel() {
  static const DotKernel& best = dot_kernel_variants().back();
  return best;
}

/// Pack `count` samples u-major in double, R rows per block: sample t lands
/// at xp[(t / R) * R * d + u * R + t % R]. The last block's missing rows
/// stay zero (caller-zeroed), so the microkernel always runs whole blocks;
/// their dots are simply not read.
template <typename SampleIndexFn>
inline void pack_tile_rows(const data::Dataset& dataset,
                           SampleIndexFn sample_index, std::size_t count,
                           std::size_t rows, double* xp) {
  const std::size_t d = dataset.d();
  for (std::size_t t = 0; t < count; ++t) {
    const auto x = dataset.sample(sample_index(t));
    double* dst = xp + (t / rows) * rows * d + t % rows;
    for (std::size_t u = 0; u < d; ++u) {
      dst[u * rows] = static_cast<double>(x[u]);
    }
  }
}

/// ABFT instrumentation of the GEMM tile sweep (KmeansConfig::sdc_checks).
///
/// `flip` (optional) exposes each freshly-built scratch panel to the fault
/// plan's deterministic flip_memory events — the injection side. `check`
/// arms the checksum-column defense: per block the clean panel's column
/// sums chk[u] = sum_jj panel[u*bw+jj] (and an absolute-value twin for the
/// error bound) are captured *before* the flip hook runs, and per sample
/// sum_jj dots[jj] is compared against x . chk — two floating-point
/// evaluations of the same real bilinear form, whose spread is bounded by
/// the summation-error tolerance below. A mismatch means the panel no
/// longer holds the centroid bits it was built from: the panel is rebuilt
/// from the (authoritative, separately-scrubbed) centroid matrix and the
/// sample's row block recomputed through the *same* kernel — detector plus
/// bit-identical corrector, so a caught flip changes no result bytes, only
/// the `detected`/`recomputed` tallies (one each per damaged panel).
struct GemmSdcHooks {
  std::function<void(std::span<std::byte>)> flip;
  bool check = false;
  std::uint64_t detected = 0;    ///< checksum mismatches observed
  std::uint64_t recomputed = 0;  ///< panels rebuilt + samples rescored
};

/// Forward-error radius of the GEMM value: |g_j - d_j| <= tau_j where d_j
/// is the exact-kernel (squared_distance) value. Both are floating-point
/// evaluations of the same real quantity; the summation bounds give
/// |g - d| <~ (4d + 11) eps (||x||^2 + ||c||^2), and 16 (d + 2) keeps a
/// >= 3x margin at every d >= 1.
inline double gemm_tau_scale(std::size_t d) {
  return 16.0 * static_cast<double>(d + 2) *
         std::numeric_limits<double>::epsilon();
}

/// Stable in-place compaction of a full candidate list against the row's
/// current bar: entries whose lower bound no longer reaches it are dropped,
/// the rest keep their ascending-j order. The bar only tightens, so a
/// dropped entry could never pass the final screen either. Returns the new
/// length.
inline std::uint32_t compact_candidates(GemmCandidate* list, std::uint32_t n,
                                        double bar) {
  std::uint32_t keep = 0;
  for (std::uint32_t c = 0; c < n; ++c) {
    if (list[c].lower <= bar) {
      list[keep++] = list[c];
    }
  }
  return keep;
}

/// GEMM-selected, exactly-rescored tile sweep: same contract as
/// score_tile_gen (centroids [j_begin, j_end) against `count` samples,
/// records combined into caller-cleared `scores`), byte-identical output.
/// Returns the number of rows that overflowed the candidate list and took
/// the exact full-slice fallback.
///
/// Pass 1 (selector): the tile is packed once (pack_tile_rows, R rows per
/// block for the dispatched DotKernel); per centroid block, each row block
/// gets its R x 16 dots from one microkernel call, and each row forms
/// g_j = ||x||^2 + ||c_j||^2 - 2 x.c_j with error radius tau_j. A running
/// top-two of the uppers (g + tau) gives U2; any j with lower bound
/// g_j - tau_j <= U2 is appended, with that bound, to the row's candidate
/// list (ascending j by construction). A full list is first compacted
/// against the current U2 (compact_candidates). U2 only tightens, so the
/// list stays a superset of every j whose exact distance can reach the
/// final top-two; it overflows only when more than kGemmCandidates
/// centroids are genuinely tied within tau. Every DotKernel variant returns
/// the same dot bits, so the lists and the fallback count do not depend on
/// the dispatch either.
///
/// Pass 2 (exact rescore): each row's candidates still within the final U2
/// are offered to its record via squared_distance in ascending j — the
/// serial operation sequence and tie-break. Omitted centroids satisfy
/// d_j > U2_final >= (exact second smallest), so they cannot change value,
/// index or second; the record is therefore byte-identical to a full
/// serial scan. An overflowed row falls back to an exact sweep of the
/// whole slice.
template <typename MinLocT, typename SampleIndexFn>
inline std::size_t score_tile_gemm_gen(const data::Dataset& dataset,
                                       SampleIndexFn sample_index,
                                       std::size_t count,
                                       const util::Matrix& centroids,
                                       std::span<const double> norms,
                                       std::size_t j_begin, std::size_t j_end,
                                       std::span<MinLocT> scores,
                                       GemmSdcHooks* sdc = nullptr,
                                       const DotKernel& kernel = dot_kernel()) {
  const std::size_t d = centroids.cols();
  const double tau_scale = gemm_tau_scale(d);
  constexpr std::uint32_t kOverflow = kGemmCandidates + 1;
  constexpr std::size_t kLanes = kCentroidRowBlock;
  const std::size_t rows = kernel.rows;
  const std::size_t row_blocks = (count + rows - 1) / rows;
  std::vector<double> xpack(row_blocks * rows * d, 0.0);
  pack_tile_rows(dataset, sample_index, count, rows, xpack.data());
  std::vector<double> panel(kLanes * d);
  std::vector<double> dots(rows * kLanes);
  std::vector<double> nx(row_blocks * rows, 0.0);
  std::vector<double> u1(count, std::numeric_limits<double>::max());
  std::vector<double> u2(count, std::numeric_limits<double>::max());
  std::vector<GemmCandidate> cand(count * kGemmCandidates);
  std::vector<std::uint32_t> cand_n(count, 0);  // kOverflow = overflowed
  // ABFT checksum column of the current panel and its absolute-value twin
  // (the error-bound magnitude). Captured from the clean panel before the
  // flip hook can damage it.
  std::vector<double> chk;
  std::vector<double> chkabs;
  // ||x||^2 off the packed tile: R independent ascending-u chains of exact
  // squares per block, each the operation sequence of row_squared_norm.
  for (std::size_t b = 0; b < row_blocks; ++b) {
    const double* const xb = xpack.data() + b * rows * d;
    double* const nb = nx.data() + b * rows;
    for (std::size_t u = 0; u < d; ++u) {
      for (std::size_t r = 0; r < rows; ++r) {
        nb[r] += xb[u * rows + r] * xb[u * rows + r];
      }
    }
  }
  for (std::size_t jb = j_begin; jb < j_end; jb += kLanes) {
    const std::size_t bw = std::min(j_end - jb, kLanes);
    // The panel is built dense (u * bw + jj) — the layout the checksums
    // and the flip hook see — then widened in place to the kernel's 16
    // lanes with zero padding. Descending order never overwrites an entry
    // before it is read: u * kLanes + jj >= u * bw + jj.
    const auto build_panel = [&] {
      for (std::size_t jj = 0; jj < bw; ++jj) {
        const float* const c = centroids.row(jb + jj).data();
        for (std::size_t u = 0; u < d; ++u) {
          panel[u * bw + jj] = static_cast<double>(c[u]);
        }
      }
    };
    const auto widen_panel = [&] {
      if (bw == kLanes) {
        return;
      }
      for (std::size_t u = d; u-- > 0;) {
        for (std::size_t jj = kLanes; jj-- > 0;) {
          panel[u * kLanes + jj] = jj < bw ? panel[u * bw + jj] : 0.0;
        }
      }
    };
    const auto capture_checksums = [&] {
      chk.assign(d, 0.0);
      chkabs.assign(d, 0.0);
      for (std::size_t u = 0; u < d; ++u) {
        for (std::size_t jj = 0; jj < bw; ++jj) {
          const double v = panel[u * bw + jj];
          chk[u] += v;
          chkabs[u] += std::abs(v);
        }
      }
    };
    build_panel();
    if (sdc != nullptr && sdc->check) {
      capture_checksums();
    }
    if (sdc != nullptr && sdc->flip) {
      sdc->flip(std::as_writable_bytes(
          std::span<double>(panel.data(), bw * d)));
    }
    widen_panel();
    for (std::size_t b = 0; b < row_blocks; ++b) {
      const double* const xb = xpack.data() + b * rows * d;
      const std::size_t t0 = b * rows;
      const std::size_t live = std::min(rows, count - t0);
      kernel.fn(xb, panel.data(), d, dots.data());
      if (sdc != nullptr && sdc->check) {
        // sum_jj dots[jj] and x . chk are two summation orders of the same
        // real bilinear form sum_{u,jj} x[u] * panel[u*bw+jj]; their spread
        // is bounded by (d + bw) roundings against the absolute-value
        // magnitude, with a 64x margin. A violation means the panel's bits
        // are not the centroid bits the checksum saw — rebuild it and
        // recompute the block through the identical kernel (bit-identical
        // repair; later blocks see the clean panel too).
        for (std::size_t r = 0; r < live; ++r) {
          double got = 0;
          for (std::size_t jj = 0; jj < bw; ++jj) {
            got += dots[r * kLanes + jj];
          }
          double ref = 0;
          double mag = 0;
          for (std::size_t u = 0; u < d; ++u) {
            const double xu = xb[u * rows + r];
            ref += xu * chk[u];
            mag += std::abs(xu) * chkabs[u];
          }
          const double tol = 64.0 * static_cast<double>(d + bw) *
                             std::numeric_limits<double>::epsilon() * mag;
          if (!(std::abs(got - ref) <= tol)) {
            ++sdc->detected;
            build_panel();
            widen_panel();
            kernel.fn(xb, panel.data(), d, dots.data());
            ++sdc->recomputed;
            break;
          }
        }
      }
      for (std::size_t r = 0; r < live; ++r) {
        // The row's selector state lives in locals for the block: the
        // candidate stores would otherwise force a reload of every field
        // (GemmCandidate holds a double and a uint32).
        const std::size_t t = t0 + r;
        const double* const row_dots = dots.data() + r * kLanes;
        const double nxt = nx[t];
        double b1 = u1[t];
        double b2 = u2[t];
        std::uint32_t n = cand_n[t];
        GemmCandidate* const list = cand.data() + t * kGemmCandidates;
        for (std::size_t jj = 0; jj < bw; ++jj) {
          const std::size_t j = jb + jj;
          const double scale = nxt + norms[j];
          const double g = scale - 2.0 * row_dots[jj];
          const double tau = tau_scale * scale;
          const double up = g + tau;
          const double lower = g - tau;
          // The common case first, as a branch: an upper that does not
          // beat U2 moves neither U1 nor U2, and a lower above the
          // unmoved bar is not admitted, so nothing changes. Testing it
          // up front keeps U2 off a min() dependency chain.
          if (!(up < b2) && !(lower <= (HasSecond<MinLocT> ? b2 : b1))) {
            continue;
          }
          if (up < b1) {
            b2 = b1;
            b1 = up;
          } else if (up < b2) {
            b2 = up;
          }
          // A winner-only record needs just the exact winner, so U1 suffices;
          // the top-two records screen against U2.
          const double bar = HasSecond<MinLocT> ? b2 : b1;
          if (lower <= bar) {
            if (n == kGemmCandidates) {
              n = compact_candidates(list, n, bar);
            }
            if (n < kGemmCandidates) {
              list[n++] = {lower, static_cast<std::uint32_t>(j)};
            } else {
              n = kOverflow;  // sticky: this row takes the exact fallback
            }
          }
        }
        u1[t] = b1;
        u2[t] = b2;
        cand_n[t] = n;
      }
    }
  }
  std::size_t fallback_rows = 0;
  for (std::size_t t = 0; t < count; ++t) {
    MinLocT& rec = scores[t];
    const auto x = dataset.sample(sample_index(t));
    const std::uint32_t n = cand_n[t];
    if (n == kOverflow) {
      ++fallback_rows;
      for (std::size_t j = j_begin; j < j_end; ++j) {
        offer_score(rec, squared_distance(x, centroids.row(j)), j);
      }
      continue;
    }
    const double bar = HasSecond<MinLocT> ? u2[t] : u1[t];
    const GemmCandidate* const list = cand.data() + t * kGemmCandidates;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (list[c].lower <= bar) {
        const std::size_t j = list[c].index;
        offer_score(rec, squared_distance(x, centroids.row(j)), j);
      }
    }
  }
  return fallback_rows;
}

/// Contiguous-range GEMM entry point (mirrors score_tile); returns the
/// fallback row count. `kernel` defaults to the dispatched variant; tests
/// and the microbenchmark pin one.
template <typename MinLocT>
inline std::size_t score_tile_gemm(const data::Dataset& dataset,
                                   std::size_t i_begin, std::size_t i_end,
                                   const util::Matrix& centroids,
                                   std::span<const double> norms,
                                   std::size_t j_begin, std::size_t j_end,
                                   std::span<MinLocT> scores,
                                   GemmSdcHooks* sdc = nullptr,
                                   const DotKernel& kernel = dot_kernel()) {
  return score_tile_gemm_gen(
      dataset, [i_begin](std::size_t t) { return i_begin + t; },
      i_end - i_begin, centroids, norms, j_begin, j_end, scores, sdc, kernel);
}

/// Compacted GEMM entry point (mirrors score_tile_ids); returns the
/// fallback row count.
template <typename MinLocT>
inline std::size_t score_tile_ids_gemm(const data::Dataset& dataset,
                                       std::span<const std::uint32_t> ids,
                                       const util::Matrix& centroids,
                                       std::span<const double> norms,
                                       std::size_t j_begin, std::size_t j_end,
                                       std::span<MinLocT> scores,
                                       GemmSdcHooks* sdc = nullptr) {
  return score_tile_gemm_gen(
      dataset,
      [ids](std::size_t t) { return static_cast<std::size_t>(ids[t]); },
      ids.size(), centroids, norms, j_begin, j_end, scores, sdc);
}

/// Top-two centroid drifts of one update, with the argmax. What a Hamerly
/// lower-bound update needs: a sample assigned to the fastest-moving
/// centroid only has to defend against the *second* fastest mover, every
/// other sample against the fastest (Hamerly 2010, the "other centroids"
/// refinement).
struct DriftDigest {
  double max1 = 0;          ///< largest drift
  double max2 = 0;          ///< largest drift over the other centroids
  std::size_t argmax = 0;   ///< smallest index attaining max1
};

inline DriftDigest drift_digest(std::span<const double> drift) {
  DriftDigest digest;
  for (std::size_t j = 0; j < drift.size(); ++j) {
    if (drift[j] > digest.max1) {
      digest.max2 = digest.max1;
      digest.max1 = drift[j];
      digest.argmax = j;
    } else if (drift[j] > digest.max2) {
      digest.max2 = drift[j];
    }
  }
  return digest;
}

/// Max drift over centroids other than `j`. On a tie for the maximum the
/// strict `>` above leaves the duplicate in max2, so the exclusion stays
/// exact.
inline double drift_excluding(const DriftDigest& digest, std::size_t j) {
  return j == digest.argmax ? digest.max2 : digest.max1;
}

/// Half the distance from each centroid to its nearest other centroid —
/// Hamerly's "safe radius": a sample strictly closer to its centroid than
/// this cannot have any other centroid nearer. Depends only on the shared
/// snapshot every rank already holds (the update phase publishes all
/// refreshed rows), so every rank computes identical bits with no
/// exchange. k == 1 leaves the single radius at +inf, like the serial
/// baseline.
inline void compute_safe_radii(const util::Matrix& centroids,
                               std::vector<double>& safe) {
  const std::size_t k = centroids.rows();
  const std::size_t d = centroids.cols();
  safe.assign(k, std::numeric_limits<double>::max());
  // Each pair once — (a[u]-b[u])^2 == (b[u]-a[u])^2 exactly in IEEE, so
  // the symmetric reuse is bit-identical to two directed scans and matches
  // the engines' k(k-1)/2-row charge. Rows b > a come kCentroidRowBlock at
  // a time as a u-major panel (unused lanes zero) that every row a before
  // the block's last row streams past through sample_block_chains; each
  // lane is the exact operation sequence of squared_distance(row a, row b),
  // and min is exact and order-free, so the radii match the pairwise scan
  // bit for bit.
  std::vector<double> panel(kCentroidRowBlock * d, 0.0);
  for (std::size_t jb = 0; jb < k; jb += kCentroidRowBlock) {
    const std::size_t bw = std::min(k - jb, kCentroidRowBlock);
    for (std::size_t u = 0; u < d; ++u) {
      for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
        panel[u * kCentroidRowBlock + jj] =
            jj < bw ? static_cast<double>(centroids.at(jb + jj, u)) : 0.0;
      }
    }
    for (std::size_t a = 0; a + 1 < jb + bw; ++a) {
      double acc[kCentroidRowBlock] = {};
      sample_block_chains(centroids.row(a).data(), panel.data(), d, acc);
      for (std::size_t jj = a < jb ? 0 : a - jb + 1; jj < bw; ++jj) {
        const double half = std::sqrt(acc[jj]) / 2;
        safe[a] = std::min(safe[a], half);
        safe[jb + jj] = std::min(safe[jb + jj], half);
      }
    }
  }
}

/// Gate one tile of samples [t0, t1): advance each sample's Hamerly bounds
/// by this iteration's drift (upper chases the assigned centroid, lower
/// retreats by the worst *other* mover) and append the ids that remain
/// unresolved to `ids` (caller-cleared). A sample is resolved — provably
/// still assigned to its current centroid — only under a strict
/// upper < max(safe[a], lower): strictness means a skip implies the argmin
/// is unique and unchanged (upper < safe[a] makes every rival strictly
/// farther by the triangle inequality; upper < lower beats the true
/// second-closest), so the left-to-right tie-break — and with it exact
/// Lloyd bit-identity — survives coincident centroids. When `tighten` is
/// set, a sample failing the bound test gets one exact distance to its
/// assigned centroid (replacing the drift-inflated upper) and a second
/// chance — worth one row where a sweep costs k. Levels 1/2 enable it (the
/// assigned centroid's full row is local to the slice owner); Level 3
/// does not (the row is split over the group, so the test would cost the
/// very exchange it tries to skip). All inputs are deterministic,
/// globally-consistent quantities (assignments from the replicated argmin,
/// drift from the published allgather, radii from the shared snapshot), so
/// every rank gating the same samples builds the identical compaction with
/// no exchange. Returns the number of tightening distances spent.
inline std::size_t gate_tile(const data::Dataset& dataset,
                             const util::Matrix& centroids, std::size_t t0,
                             std::size_t t1,
                             std::span<const std::uint32_t> assignments,
                             std::span<const double> drift,
                             const DriftDigest& digest,
                             std::span<const double> safe,
                             std::span<double> upper, std::span<double> lower,
                             bool tighten, std::vector<std::uint32_t>& ids) {
  std::size_t tightened = 0;
  for (std::size_t i = t0; i < t1; ++i) {
    const std::uint32_t a = assignments[i];
    upper[i] += drift[a];
    lower[i] -= drift_excluding(digest, a);
    const double threshold = std::max(safe[a], lower[i]);
    if (upper[i] < threshold) {
      continue;
    }
    if (tighten) {
      upper[i] =
          std::sqrt(squared_distance(dataset.sample(i), centroids.row(a)));
      ++tightened;
      if (upper[i] < threshold) {
        continue;
      }
    }
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  return tightened;
}

/// Refresh a sample's bounds from a freshly swept top-two record: both
/// become exact (sqrt of the squared best / second-best distances).
template <typename MinLocT>
  requires HasSecond<MinLocT>
inline void refresh_bounds(const MinLocT& rec, double& upper, double& lower) {
  upper = std::sqrt(rec.value);
  lower = std::sqrt(rec.second);
}

/// Flat k x d accumulator plus per-centroid counts, in double.
struct UpdateAccumulator {
  explicit UpdateAccumulator(std::size_t k, std::size_t d)
      : k_(k), d_(d), sums(k * d, 0.0), counts(k, 0.0) {}

  void add_sample(std::uint32_t j, std::span<const float> x) {
    double* row = sums.data() + static_cast<std::size_t>(j) * d_;
    for (std::size_t u = 0; u < d_; ++u) {
      row[u] += static_cast<double>(x[u]);
    }
    counts[j] += 1.0;
  }

  /// Add only the [u_begin, u_end) dimension slice (Level 3 owner CPEs).
  void add_sample_slice(std::uint32_t j, std::span<const float> x,
                        std::size_t u_begin, std::size_t u_end) {
    double* row = sums.data() + static_cast<std::size_t>(j) * d_;
    for (std::size_t u = u_begin; u < u_end; ++u) {
      row[u] += static_cast<double>(x[u]);
    }
  }

  void reset() {
    sums.assign(sums.size(), 0.0);
    counts.assign(counts.size(), 0.0);
  }

  std::size_t k() const { return k_; }
  std::size_t d() const { return d_; }

  std::size_t k_;
  std::size_t d_;
  std::vector<double> sums;
  std::vector<double> counts;
};

/// What one update pass did: the largest Euclidean centroid shift, plus
/// how many clusters had no members and were frozen in place. Surfacing
/// the empty count (instead of silently freezing) is what makes a stalled
/// run diagnosable.
struct UpdateOutcome {
  double shift = 0;
  std::size_t empty_clusters = 0;
};

/// Move centroid rows [j_begin, j_end) to the mean of their assigned
/// samples, where `sums`/`counts` hold *just those rows* ((j_end-j_begin)
/// x d and (j_end-j_begin) entries) — the per-shard kernel of the sharded
/// update phase. A row with no samples keeps its position (the
/// empty-cluster rule every level shares) and is counted. Each row's
/// arithmetic is independent, and max/sqrt commute, so sharding the rows
/// over ranks and max-combining the shifts is bit-identical to one full
/// k-row pass.
/// When `row_drift` is non-null it receives, per row, the Euclidean
/// distance the stored centroid moved ((j_end - j_begin) entries; 0 for a
/// frozen empty row). The per-row sum is the ascending-u accumulation of
/// squared float-position diffs in double — the exact operation sequence
/// of sqrt(squared_distance(old_row, new_row)) — so published drifts are
/// bit-identical to a recomputation from a kept copy of the old snapshot.
inline UpdateOutcome apply_update_rows(util::Matrix& centroids,
                                       std::size_t j_begin, std::size_t j_end,
                                       std::span<const double> sums,
                                       std::span<const double> counts,
                                       double* row_drift = nullptr) {
  const std::size_t d = centroids.cols();
  double worst_shift_sq = 0;
  std::size_t empty = 0;
  for (std::size_t j = j_begin; j < j_end; ++j) {
    if (counts[j - j_begin] <= 0) {
      ++empty;
      if (row_drift != nullptr) {
        row_drift[j - j_begin] = 0.0;
      }
      continue;
    }
    double shift_sq = 0;
    const double inv = 1.0 / counts[j - j_begin];
    std::span<float> row = centroids.row(j);
    const double* sum_row = sums.data() + (j - j_begin) * d;
    for (std::size_t u = 0; u < d; ++u) {
      const float previous = row[u];
      row[u] = static_cast<float>(sum_row[u] * inv);
      // Shift is measured between *stored* (float) positions: a stable
      // centroid must report exactly zero movement, or float rounding
      // residue would keep the run from ever converging.
      const double diff =
          static_cast<double>(row[u]) - static_cast<double>(previous);
      shift_sq += diff * diff;
    }
    if (row_drift != nullptr) {
      row_drift[j - j_begin] = shift_sq > 0 ? std::sqrt(shift_sq) : 0.0;
    }
    worst_shift_sq = worst_shift_sq > shift_sq ? worst_shift_sq : shift_sq;
  }
  return {worst_shift_sq > 0 ? std::sqrt(worst_shift_sq) : 0.0, empty};
}

/// Full-range update over all k rows (serial baselines and single-shard
/// callers).
inline UpdateOutcome apply_update(util::Matrix& centroids,
                                  std::span<const double> sums,
                                  std::span<const double> counts) {
  return apply_update_rows(centroids, 0, centroids.rows(), sums, counts);
}

/// One warning per run (not per iteration) when the final update froze
/// empty clusters — the classic cause of a k-means run stalling below the
/// requested k. Callers pass the engine name so logs identify the run.
inline void warn_empty_clusters(std::size_t count, const char* engine) {
  if (count > 0) {
    SWHKM_WARN_AT(engine, -1, -1)
        << count
        << " empty cluster(s) kept their previous position in the "
           "final iteration; consider k-means|| seeding or smaller k";
  }
}

/// Contiguous block [begin, end) of `total` items for worker `index` of
/// `workers` — the dataflow partition rule all levels share. Remainder
/// items go to the lowest-index workers.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t total,
                                                       std::size_t workers,
                                                       std::size_t index) {
  const std::size_t base = total / workers;
  const std::size_t extra = total % workers;
  const std::size_t begin =
      index * base + (index < extra ? index : extra);
  const std::size_t length = base + (index < extra ? 1 : 0);
  return {begin, begin + length};
}

}  // namespace swhkm::core::detail
