#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"
#include "telemetry/telemetry.hpp"

namespace swhkm::core {
namespace {

using detail::TileScore;
using detail::TileScore2;
using simarch::MachineConfig;

/// Full-precision norm vector for a centroid matrix — what the engines'
/// CentroidNormCache holds after a refresh.
std::vector<double> norms_of(const util::Matrix& centroids) {
  std::vector<double> norms(centroids.rows());
  for (std::size_t j = 0; j < centroids.rows(); ++j) {
    norms[j] = detail::row_squared_norm(centroids.row(j));
  }
  return norms;
}

/// The GEMM sweep promises byte-identical records, so nothing weaker than
/// field-exact equality (including the runner-up slot) is acceptable.
template <typename Rec>
void expect_records_equal(std::span<const Rec> got, std::span<const Rec> ref,
                          const std::string& label) {
  ASSERT_EQ(got.size(), ref.size()) << label;
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t].value, ref[t].value) << label << " sample " << t;
    EXPECT_EQ(got[t].index, ref[t].index) << label << " sample " << t;
    if constexpr (detail::HasSecond<Rec>) {
      EXPECT_EQ(got[t].second, ref[t].second) << label << " sample " << t;
    }
  }
}

/// Run both kernels over one (dataset, centroids, slice) instance for one
/// record width and compare bit for bit.
template <typename Rec>
void check_kernel(const data::Dataset& ds, const util::Matrix& centroids,
                  std::size_t j_begin, std::size_t j_end,
                  const std::string& label) {
  const std::vector<double> norms = norms_of(centroids);
  std::vector<Rec> ref(ds.n());
  std::vector<Rec> got(ds.n());
  detail::clear_scores(std::span<Rec>(ref));
  detail::clear_scores(std::span<Rec>(got));
  detail::score_tile(ds, 0, ds.n(), centroids, j_begin, j_end,
                     std::span<Rec>(ref));
  detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                          std::span<const double>(norms), j_begin, j_end,
                          std::span<Rec>(got));
  expect_records_equal(std::span<const Rec>(got), std::span<const Rec>(ref),
                       label);

  // Compacted variant: a strided survivor subset, same contract.
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < ds.n(); i += 3) {
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<Rec> ref_ids(ids.size());
  std::vector<Rec> got_ids(ids.size());
  detail::clear_scores(std::span<Rec>(ref_ids));
  detail::clear_scores(std::span<Rec>(got_ids));
  detail::score_tile_ids(ds, std::span<const std::uint32_t>(ids), centroids,
                         j_begin, j_end, std::span<Rec>(ref_ids));
  detail::score_tile_ids_gemm(ds, std::span<const std::uint32_t>(ids),
                              centroids, std::span<const double>(norms),
                              j_begin, j_end, std::span<Rec>(got_ids));
  expect_records_equal(std::span<const Rec>(got_ids),
                       std::span<const Rec>(ref_ids), label + " ids");
}

TEST(GemmKernel, BitIdenticalAcrossShapesSlicesAndRecordWidths) {
  // Ragged everything: d values that misalign every vector width, tile
  // counts that leave partial centroid blocks, and slice ranges that start
  // mid-block. Magnitude spread (1e-3 .. 1e3) makes the norms dominate some
  // rows and vanish in others, stressing the tau screen from both sides.
  std::mt19937 rng(0xC0FFEE);
  for (const std::size_t d : {1u, 7u, 13u, 16u}) {
    for (const std::size_t k : {1u, 5u, 17u, 33u}) {
      std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
      std::uniform_int_distribution<int> mag(-3, 3);
      const std::size_t n = 37;
      std::vector<float> xs(n * d);
      for (float& v : xs) {
        v = unit(rng) * std::pow(10.0f, static_cast<float>(mag(rng)));
      }
      std::vector<float> cs(k * d);
      for (float& v : cs) {
        v = unit(rng) * std::pow(10.0f, static_cast<float>(mag(rng)));
      }
      const data::Dataset ds("rand", util::Matrix::from_vector(n, d, xs));
      const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
      const std::string label =
          "d=" + std::to_string(d) + " k=" + std::to_string(k);
      check_kernel<TileScore>(ds, centroids, 0, k, label + " full");
      check_kernel<TileScore2>(ds, centroids, 0, k, label + " full2");
      if (k > 2) {
        // Partial slice (Level 3's per-rank centroid range).
        check_kernel<TileScore>(ds, centroids, 1, k - 1, label + " slice");
        check_kernel<TileScore2>(ds, centroids, 1, k - 1, label + " slice2");
      }
    }
  }
}

TEST(GemmKernel, CoincidentCentroidsOverflowCandidateListExactly) {
  // 12 coincident centroids (> kGemmCandidates = 8) plus two distinct ones:
  // every sample sees at least 12 centroids tied within tau, so the
  // candidate list overflows and the kernel must fall back to the exact
  // full-slice sweep — preserving the left-to-right tie-break onto the
  // *first* coincident index.
  const std::size_t d = 4;
  const std::size_t k = 14;
  std::vector<float> cs(k * d, 0.0f);
  for (std::size_t u = 0; u < d; ++u) {
    cs[12 * d + u] = 5.0f;   // centroid 12 off to one side
    cs[13 * d + u] = -3.0f;  // centroid 13 off to the other
  }
  const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
  const std::size_t n = 24;
  std::vector<float> xs(n * d);
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> unit(-4.0f, 6.0f);
  for (float& v : xs) {
    v = unit(rng);
  }
  // A few samples exactly on the coincident pile: distance exactly 0 twelve
  // times over.
  for (std::size_t u = 0; u < d; ++u) {
    xs[0 * d + u] = 0.0f;
    xs[1 * d + u] = 0.0f;
  }
  const data::Dataset ds("pile", util::Matrix::from_vector(n, d, xs));
  check_kernel<TileScore>(ds, centroids, 0, k, "overflow");
  check_kernel<TileScore2>(ds, centroids, 0, k, "overflow2");
  // The winner for the on-pile samples must be index 0 (serial tie-break).
  const std::vector<double> norms = norms_of(centroids);
  std::vector<TileScore2> recs(n);
  detail::clear_scores(std::span<TileScore2>(recs));
  detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                          std::span<const double>(norms), 0, k,
                          std::span<TileScore2>(recs));
  EXPECT_EQ(recs[0].value, 0.0);
  EXPECT_EQ(recs[0].index, 0u);
  EXPECT_EQ(recs[0].second, 0.0);  // eleven more coincident at distance 0
  // The pile lies between centroids 12 and 13, so it is in every sample's
  // top two: no compaction can shrink a twelve-way tie, and every row
  // takes the fallback.
  detail::clear_scores(std::span<TileScore2>(recs));
  EXPECT_EQ(detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                                    std::span<const double>(norms), 0, k,
                                    std::span<TileScore2>(recs)),
            n);

  // The same pile through an engine: kFirstK seeds the twelve coincident
  // centroids from twelve identical leading samples, and the fallback rows
  // surface as the engine.gemm.fallback_rows counter — which only
  // observes, so the run is bit-identical with telemetry off.
  std::vector<float> engine_xs(12 * d, 0.0f);
  engine_xs.insert(engine_xs.end(), cs.begin() + 12 * d, cs.end());
  engine_xs.insert(engine_xs.end(), xs.begin(), xs.end());
  const data::Dataset engine_ds(
      "pile-engine",
      util::Matrix::from_vector(engine_xs.size() / d, d, engine_xs));
  KmeansConfig config;
  config.k = k;
  config.max_iterations = 3;
  config.tolerance = -1;
  config.gate_assign = false;
  config.tile_samples = 48;  // leaves room for the GEMM scratch in LDM
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult quiet = run_level(Level::kLevel1, engine_ds, config,
                                       machine);
  telemetry::Telemetry session;
  config.telemetry = &session;
  const KmeansResult traced = run_level(Level::kLevel1, engine_ds, config,
                                        machine);
  EXPECT_EQ(traced.assignments, quiet.assignments);
  EXPECT_EQ(std::memcmp(traced.centroids.data(), quiet.centroids.data(),
                        quiet.centroids.size() * sizeof(float)),
            0);
  EXPECT_GE(session.metrics().merged().counter_or_zero(
                "engine.gemm.fallback_rows"),
            config.max_iterations * 12);

  // Chain pricing moves only the model: the host still runs the selector,
  // so the pile still ticks the fallback counter and the bits hold.
  telemetry::Telemetry chain_session;
  config.telemetry = &chain_session;
  config.gemm_assign = false;
  const KmeansResult chain_priced = run_level(Level::kLevel1, engine_ds,
                                              config, machine);
  EXPECT_EQ(chain_priced.assignments, quiet.assignments);
  EXPECT_EQ(std::memcmp(chain_priced.centroids.data(), quiet.centroids.data(),
                        quiet.centroids.size() * sizeof(float)),
            0);
  EXPECT_GE(chain_session.metrics().merged().counter_or_zero(
                "engine.gemm.fallback_rows"),
            config.max_iterations * 12);
}

/// Score one slice with both kernels and both record widths, expecting
/// byte-identical records and no overflowed row from the GEMM kernel.
void check_fallback_free(const data::Dataset& ds,
                         const util::Matrix& centroids, std::size_t j_begin,
                         std::size_t j_end, const std::string& label) {
  const std::vector<double> norms = norms_of(centroids);
  const auto run = [&]<typename Rec>(Rec) {
    std::vector<Rec> ref(ds.n());
    std::vector<Rec> got(ds.n());
    detail::clear_scores(std::span<Rec>(ref));
    detail::clear_scores(std::span<Rec>(got));
    detail::score_tile(ds, 0, ds.n(), centroids, j_begin, j_end,
                       std::span<Rec>(ref));
    EXPECT_EQ(detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                                      std::span<const double>(norms), j_begin,
                                      j_end, std::span<Rec>(got)),
              0u)
        << label;
    for (std::size_t t = 0; t < ds.n(); ++t) {
      EXPECT_EQ(std::memcmp(&got[t], &ref[t], sizeof(Rec)), 0)
          << label << " sample " << t;
    }
  };
  run(TileScore{});
  run(TileScore2{});
}

TEST(GemmKernel, RandomOrderUniformTileNeverFallsBack) {
  // The l3 shape: a 256-sample tile against k = 512 centroids at d = 256,
  // all uniform in random order. The running bar admits ~2 H_k (about 14)
  // candidates per row over the slice; compaction against the current bar
  // must keep every row within kGemmCandidates.
  const std::size_t k = 512;
  const std::size_t d = 256;
  const data::Dataset pool = data::make_uniform(k + 256, d, 3);
  util::Matrix centroids(k, d);
  std::vector<float> xs;
  for (std::size_t i = 0; i < pool.n(); ++i) {
    const auto row = pool.sample(i);
    if (i < k) {
      std::copy(row.begin(), row.end(), centroids.row(i).begin());
    } else {
      xs.insert(xs.end(), row.begin(), row.end());
    }
  }
  const data::Dataset ds("tile", util::Matrix::from_vector(256, d, xs));
  check_fallback_free(ds, centroids, 0, k, "uniform full");
  check_fallback_free(ds, centroids, 128, 256, "uniform slice");
}

TEST(GemmKernel, DescendingCentroidOrderCompactsRepeatedly) {
  // Adversarial order: every sample sits near the origin and centroid j
  // lies at distance ~(k - j), so each new j beats the running best and is
  // admitted. Without compaction every row would overflow after eight
  // centroids; with it each full list sheds all but the newest entries and
  // no row falls back. Duplicated rows (each distance appears twice) keep
  // exact ties in the mix, which must still break toward the smaller j.
  for (const std::size_t d : {1u, 33u}) {
    const std::size_t k = 80;
    std::vector<float> cs(k * d);
    for (std::size_t j = 0; j < k; ++j) {
      const float r = 4.0f + static_cast<float>((k - j) / 2);
      for (std::size_t u = 0; u < d; ++u) {
        cs[j * d + u] = u % 2 == 0 ? r : -r;
      }
    }
    const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
    const std::size_t n = 41;
    std::vector<float> xs(n * d);
    std::mt19937 rng(static_cast<unsigned>(d));
    std::uniform_real_distribution<float> jitter(-0.25f, 0.25f);
    for (float& v : xs) {
      v = jitter(rng);
    }
    const data::Dataset ds("descending", util::Matrix::from_vector(n, d, xs));
    const std::string label = "d=" + std::to_string(d);
    check_fallback_free(ds, centroids, 0, k, label + " full");
    check_fallback_free(ds, centroids, 3, k - 5, label + " slice");
    check_kernel<TileScore>(ds, centroids, 3, k - 5, label + " ids");
    check_kernel<TileScore2>(ds, centroids, 3, k - 5, label + " ids2");
  }
}

TEST(GemmKernel, AbftRepairKeepsRecordsExact) {
  // A damaged first panel (one coordinate pushed far off) must fail the
  // checksum of the first sample it affects; the in-place repair rebuilds
  // the panel, so exactly one detection fires and every record — selector
  // state and compacted candidate lists included — matches score_tile.
  const data::Dataset ds = data::make_uniform(40, 33, 11);
  const util::Matrix centroids = data::make_uniform(64, 33, 12).samples();
  const std::vector<double> norms = norms_of(centroids);
  const auto run = [&](auto rec) {
    using Rec = decltype(rec);
    detail::GemmSdcHooks hooks;
    hooks.check = true;
    bool fired = false;
    hooks.flip = [&fired](std::span<std::byte> panel) {
      if (fired) {
        return;
      }
      fired = true;
      double v = 0;
      std::memcpy(&v, panel.data(), sizeof v);
      v += 1000.0;
      std::memcpy(panel.data(), &v, sizeof v);
    };
    std::vector<Rec> ref(ds.n());
    std::vector<Rec> got(ds.n());
    detail::clear_scores(std::span<Rec>(ref));
    detail::clear_scores(std::span<Rec>(got));
    detail::score_tile(ds, 0, ds.n(), centroids, 0, centroids.rows(),
                       std::span<Rec>(ref));
    EXPECT_EQ(detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                                      std::span<const double>(norms), 0,
                                      centroids.rows(), std::span<Rec>(got),
                                      &hooks),
              0u);
    EXPECT_EQ(hooks.detected, 1u);
    EXPECT_EQ(hooks.recomputed, 1u);
    expect_records_equal(std::span<const Rec>(got), std::span<const Rec>(ref),
                         "abft repair");
  };
  run(TileScore{});
  run(TileScore2{});
}

// ------------------------------------------------ dot microkernel variants

const detail::DotKernel* find_dot_kernel(const std::string& name) {
  for (const detail::DotKernel& kernel : detail::dot_kernel_variants()) {
    if (name == kernel.name) {
      return &kernel;
    }
  }
  return nullptr;
}

/// One instance per variant the library compiles; those the host cannot
/// run are skipped, so every host checks what it dispatches.
class DotKernelVariantTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    kernel_ = find_dot_kernel(GetParam());
    generic_ = find_dot_kernel("generic");
    ASSERT_NE(generic_, nullptr);
    if (kernel_ == nullptr) {
      GTEST_SKIP() << GetParam() << " is not supported on this host";
    }
  }
  const detail::DotKernel* kernel_ = nullptr;
  const detail::DotKernel* generic_ = nullptr;
};

/// u-major 16-lane panel of centroid rows [0, bw), padding lanes zero —
/// what score_tile_gemm_gen hands the microkernel.
std::vector<double> padded_panel(const util::Matrix& centroids,
                                 std::size_t bw) {
  const std::size_t d = centroids.cols();
  std::vector<double> panel(detail::kCentroidRowBlock * d, 0.0);
  for (std::size_t u = 0; u < d; ++u) {
    for (std::size_t jj = 0; jj < bw; ++jj) {
      panel[u * detail::kCentroidRowBlock + jj] =
          static_cast<double>(centroids.at(jj, u));
    }
  }
  return panel;
}

/// Every dot of `count` samples (sample t is ds row index(t)) against one
/// panel through `kernel`: packed in the kernel's row blocks, 16 lanes per
/// sample in the result.
template <typename IndexFn>
std::vector<double> sweep_dots(const detail::DotKernel& kernel,
                               const data::Dataset& ds, IndexFn index,
                               std::size_t count,
                               const std::vector<double>& panel) {
  constexpr std::size_t kLanes = detail::kCentroidRowBlock;
  const std::size_t d = ds.d();
  const std::size_t rows = kernel.rows;
  const std::size_t blocks = (count + rows - 1) / rows;
  std::vector<double> xpack(blocks * rows * d, 0.0);
  detail::pack_tile_rows(ds, index, count, rows, xpack.data());
  std::vector<double> dots(rows * kLanes);
  std::vector<double> out(count * kLanes);
  for (std::size_t b = 0; b < blocks; ++b) {
    kernel.fn(xpack.data() + b * rows * d, panel.data(), d, dots.data());
    for (std::size_t r = 0; r < rows && b * rows + r < count; ++r) {
      std::copy_n(dots.data() + r * kLanes, kLanes,
                  out.data() + (b * rows + r) * kLanes);
    }
  }
  return out;
}

/// Floats spread over the whole range: 1e-3..1e3 bulk plus entries near
/// FLT_MAX, denormals, and signed zeros.
std::vector<float> wide_floats(std::size_t count, std::mt19937& rng) {
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::uniform_int_distribution<int> mag(-3, 3);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<float> out(count);
  for (float& v : out) {
    switch (kind(rng)) {
      case 0:
        v = unit(rng) * std::numeric_limits<float>::max();
        break;
      case 1:
        v = unit(rng) * std::numeric_limits<float>::min();  // denormal
        break;
      case 2:
        v = unit(rng) < 0 ? -0.0f : std::numeric_limits<float>::denorm_min();
        break;
      default:
        v = unit(rng) * std::pow(10.0f, static_cast<float>(mag(rng)));
    }
  }
  return out;
}

TEST_P(DotKernelVariantTest, DotsBitIdenticalToGeneric) {
  // A product of two floats is exact in double, so FMA and mul+add round
  // identically and row blocking keeps each dot's ascending-u order: every
  // variant must reproduce the generic build's bits, dot for dot, across
  // ragged d, every tile count up to two blocks plus one, short centroid
  // blocks, the ids gather path, and magnitudes from denormal to FLT_MAX.
  constexpr std::size_t kLanes = detail::kCentroidRowBlock;
  const std::size_t rows = kernel_->rows;
  const std::size_t n = 2 * rows + 1;
  std::mt19937 rng(0xD07);
  for (const std::size_t d : {1u, 3u, 4u, 17u, 68u, 256u, 333u}) {
    const data::Dataset ds(
        "wide", util::Matrix::from_vector(n, d, wide_floats(n * d, rng)));
    const util::Matrix centroids =
        util::Matrix::from_vector(kLanes, d, wide_floats(kLanes * d, rng));
    for (const std::size_t bw : {16u, 1u, 5u, 15u}) {
      const std::vector<double> panel = padded_panel(centroids, bw);
      const std::string label =
          "d=" + std::to_string(d) + " bw=" + std::to_string(bw);
      const auto identity = [](std::size_t t) { return t; };
      for (std::size_t count = 1; count <= n; ++count) {
        const std::vector<double> got =
            sweep_dots(*kernel_, ds, identity, count, panel);
        const std::vector<double> ref =
            sweep_dots(*generic_, ds, identity, count, panel);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              got.size() * sizeof(double)),
                  0)
            << label << " count=" << count;
      }
      // Gather path: repeated, descending and strided sample ids.
      std::vector<std::uint32_t> ids;
      for (std::size_t i = n; i-- > 0;) {
        ids.push_back(static_cast<std::uint32_t>(i));
        if (i % 3 == 0) {
          ids.push_back(static_cast<std::uint32_t>(i));
        }
      }
      const auto gather = [&ids](std::size_t t) {
        return static_cast<std::size_t>(ids[t]);
      };
      const std::vector<double> got =
          sweep_dots(*kernel_, ds, gather, ids.size(), panel);
      // The generic build itself against the plain ascending-u loop.
      for (std::size_t t = 0; t < ids.size(); ++t) {
        const auto x = ds.sample(ids[t]);
        for (std::size_t jj = 0; jj < kLanes; ++jj) {
          double ref = 0;
          for (std::size_t u = 0; u < d; ++u) {
            ref += static_cast<double>(x[u]) * panel[u * kLanes + jj];
          }
          EXPECT_EQ(std::memcmp(&got[t * kLanes + jj], &ref, sizeof ref), 0)
              << label << " ids t=" << t << " jj=" << jj;
        }
      }
    }
  }
}

/// Both record widths through `kernel` and through the generic build:
/// records byte-identical, fallback counts equal. Returns the count.
std::size_t expect_tile_matches_generic(const detail::DotKernel& kernel,
                                        const detail::DotKernel& generic,
                                        const data::Dataset& ds,
                                        const util::Matrix& centroids,
                                        std::size_t j_begin,
                                        std::size_t j_end,
                                        const std::string& label) {
  const std::vector<double> norms = norms_of(centroids);
  std::size_t fallback = 0;
  const auto run = [&]<typename Rec>(Rec) {
    std::vector<Rec> got(ds.n());
    std::vector<Rec> ref(ds.n());
    detail::clear_scores(std::span<Rec>(got));
    detail::clear_scores(std::span<Rec>(ref));
    fallback = detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                                       std::span<const double>(norms),
                                       j_begin, j_end, std::span<Rec>(got),
                                       nullptr, kernel);
    EXPECT_EQ(fallback, detail::score_tile_gemm(
                            ds, 0, ds.n(), centroids,
                            std::span<const double>(norms), j_begin, j_end,
                            std::span<Rec>(ref), nullptr, generic))
        << label;
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(Rec)),
              0)
        << label;
  };
  run(TileScore{});
  run(TileScore2{});
  return fallback;
}

TEST_P(DotKernelVariantTest, TileRecordsAndFallbacksMatchGeneric) {
  // Uniform tile (no fallback), a coincident pile (every row falls back)
  // and an adversarial descending order (repeated compaction), full and
  // partial slices.
  const data::Dataset uniform = data::make_uniform(45, 68, 21);
  const util::Matrix spread = data::make_uniform(80, 68, 22).samples();
  EXPECT_EQ(expect_tile_matches_generic(*kernel_, *generic_, uniform, spread,
                                        0, 80, "uniform"),
            0u);
  expect_tile_matches_generic(*kernel_, *generic_, uniform, spread, 3, 74,
                              "uniform slice");

  const std::size_t d = 5;
  util::Matrix pile(14, d, 0.0f);
  for (std::size_t u = 0; u < d; ++u) {
    pile.at(12, u) = 5.0f;
    pile.at(13, u) = -3.0f;
  }
  std::vector<float> xs(19 * d);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> near(-0.5f, 0.5f);
  for (float& v : xs) {
    v = near(rng);
  }
  const data::Dataset around("pile", util::Matrix::from_vector(19, d, xs));
  EXPECT_EQ(expect_tile_matches_generic(*kernel_, *generic_, around, pile, 0,
                                        14, "pile"),
            19u);

  util::Matrix descending(40, 9);
  for (std::size_t j = 0; j < 40; ++j) {
    for (std::size_t u = 0; u < 9; ++u) {
      descending.at(j, u) = static_cast<float>(40 - j / 2) * (u % 2 ? -1 : 1);
    }
  }
  const data::Dataset origin = data::make_uniform(23, 9, 23);
  expect_tile_matches_generic(*kernel_, *generic_, origin, descending, 0, 40,
                              "descending");
}

TEST_P(DotKernelVariantTest, AbftRepairMidBlockAndRaggedTail) {
  // The damaged coordinate (centroid 0, u = 0) is invisible to samples
  // whose x[0] is 0, so the first detection lands exactly at `first_hit`:
  // sample 5 sits inside a row block for every R, and sample 40 of 41 in
  // the padded tail block (41 is a multiple of no variant's R). Either way
  // the block is recomputed on the rebuilt panel: one detection, one
  // repair, records equal to score_tile. k = 13 makes the damaged panel a
  // short one, rebuilt dense and widened to 16 lanes again.
  struct Case {
    std::size_t k;
    std::size_t first_hit;
  };
  for (const auto& [k, first_hit] :
       {Case{64, 5}, Case{64, 40}, Case{13, 5}, Case{13, 40}}) {
    const util::Matrix centroids = data::make_uniform(k, 33, 12).samples();
    const std::vector<double> norms = norms_of(centroids);
    util::Matrix xs = data::make_uniform(41, 33, 11).samples();
    for (std::size_t t = 0; t < first_hit; ++t) {
      xs.at(t, 0) = 0.0f;
    }
    const data::Dataset ds("abft", std::move(xs));
    const auto run = [&]<typename Rec>(Rec) {
      detail::GemmSdcHooks hooks;
      hooks.check = true;
      bool fired = false;
      hooks.flip = [&fired](std::span<std::byte> panel) {
        if (fired) {
          return;
        }
        fired = true;
        double v = 0;
        std::memcpy(&v, panel.data(), sizeof v);
        v += 1000.0;
        std::memcpy(panel.data(), &v, sizeof v);
      };
      std::vector<Rec> ref(ds.n());
      std::vector<Rec> got(ds.n());
      detail::clear_scores(std::span<Rec>(ref));
      detail::clear_scores(std::span<Rec>(got));
      detail::score_tile(ds, 0, ds.n(), centroids, 0, centroids.rows(),
                         std::span<Rec>(ref));
      EXPECT_EQ(detail::score_tile_gemm(
                    ds, 0, ds.n(), centroids, std::span<const double>(norms),
                    0, centroids.rows(), std::span<Rec>(got), &hooks,
                    *kernel_),
                0u);
      const std::string label = "k=" + std::to_string(k) +
                                " first_hit=" + std::to_string(first_hit);
      EXPECT_EQ(hooks.detected, 1u) << label;
      EXPECT_EQ(hooks.recomputed, 1u) << label;
      expect_records_equal(std::span<const Rec>(got),
                           std::span<const Rec>(ref), label);
    };
    run(TileScore{});
    run(TileScore2{});
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, DotKernelVariantTest,
                         ::testing::Values("generic", "avx2", "avx512"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(SafeRadii, BlockedMatchesPairwiseReference) {
  // compute_safe_radii streams centroid rows past 16-row panels; it must
  // reproduce the pairwise squared_distance scan bit for bit across block
  // boundaries (k around 16 and past 512), odd d, and coincident rows,
  // whose radius is exactly 0.
  std::mt19937 rng(0x5AFE);
  std::uniform_real_distribution<float> unit(-2.0f, 2.0f);
  for (const std::size_t k : {1u, 2u, 15u, 16u, 17u, 513u}) {
    for (const std::size_t d : {1u, 7u, 33u}) {
      std::vector<float> cs(k * d);
      for (float& v : cs) {
        v = unit(rng);
      }
      if (k >= 15) {
        // Rows 3 and 12 coincide (same panel block), rows 1 and k-1 too
        // (across blocks once k > 16).
        std::copy_n(cs.begin() + 3 * d, d, cs.begin() + 12 * d);
        std::copy_n(cs.begin() + 1 * d, d, cs.begin() + (k - 1) * d);
      }
      const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
      std::vector<double> ref(k, std::numeric_limits<double>::max());
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b) {
          const double half = std::sqrt(detail::squared_distance(
                                  centroids.row(a), centroids.row(b))) /
                              2;
          ref[a] = std::min(ref[a], half);
          ref[b] = std::min(ref[b], half);
        }
      }
      std::vector<double> got;
      detail::compute_safe_radii(centroids, got);
      const std::string label =
          "k=" + std::to_string(k) + " d=" + std::to_string(d);
      ASSERT_EQ(got.size(), k) << label;
      EXPECT_EQ(std::memcmp(got.data(), ref.data(), k * sizeof(double)), 0)
          << label;
      if (k >= 15) {
        EXPECT_EQ(got[3], 0.0) << label;
        EXPECT_EQ(got[12], 0.0) << label;
        EXPECT_EQ(got[1], 0.0) << label;
        EXPECT_EQ(got[k - 1], 0.0) << label;
      }
    }
  }
}

TEST(GemmKernel, NormCacheRefreshTracksDriftExactly) {
  // The invalidation contract: drift[j] == 0 implies the stored row's bits
  // are unchanged, so the cached norm stays bit-exact; drift[j] > 0 rows
  // are the only ones recomputed.
  const std::size_t k = 5;
  const std::size_t d = 3;
  std::vector<float> cs = {1.f, 2.f, 3.f,  0.5f, 0.5f, 0.5f, -1.f, 4.f, 0.f,
                           2.f, 2.f, 2.f,  7.f,  -2.f, 1.f};
  util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
  detail::CentroidNormCache cache;
  EXPECT_EQ(cache.refresh_full(centroids), k);
  const std::vector<double> before = cache.norms;

  // Move rows 1 and 3; rows 0, 2, 4 keep their bits.
  centroids.at(1, 0) = 9.0f;
  centroids.at(3, 2) = -6.0f;
  std::vector<double> drift(k, 0.0);
  drift[1] = 0.25;
  drift[3] = 1.5;
  EXPECT_EQ(cache.refresh_from_drift(centroids, drift), 2u);
  EXPECT_EQ(cache.norms[0], before[0]);
  EXPECT_EQ(cache.norms[2], before[2]);
  EXPECT_EQ(cache.norms[4], before[4]);
  EXPECT_EQ(cache.norms[1], detail::row_squared_norm(centroids.row(1)));
  EXPECT_EQ(cache.norms[3], detail::row_squared_norm(centroids.row(3)));

  // Cold cache or shape change falls back to a full recompute.
  cache.invalidate();
  EXPECT_EQ(cache.refresh_from_drift(centroids, drift), k);
  EXPECT_EQ(cache.refresh_from_drift(centroids, std::span<const double>()),
            k);
}

TEST(GemmKernel, DriftDigestAuditsSingletonAndTies) {
  // k == 1: there is no "other centroid", so the excluded max must be 0 —
  // a lower bound never retreats on a one-centroid run.
  {
    const std::vector<double> drift{3.5};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 3.5);
    EXPECT_EQ(digest.max2, 0.0);
    EXPECT_EQ(digest.argmax, 0u);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 0.0);
  }
  // All-zero drift (converged iteration, or k == 1 with a fixed centroid).
  {
    const std::vector<double> drift{0.0, 0.0};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 0.0);
    EXPECT_EQ(digest.max2, 0.0);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 0.0);
    EXPECT_EQ(detail::drift_excluding(digest, 1), 0.0);
  }
  // Tied maximum: the duplicate must survive into max2 so excluding either
  // argmax still sees the full tied drift — coincident centroids moving in
  // lockstep must not weaken anyone's lower-bound retreat.
  {
    const std::vector<double> drift{2.0, 5.0, 5.0, 1.0};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 5.0);
    EXPECT_EQ(digest.max2, 5.0);
    EXPECT_EQ(digest.argmax, 1u);
    EXPECT_EQ(detail::drift_excluding(digest, 1), 5.0);
    EXPECT_EQ(detail::drift_excluding(digest, 2), 5.0);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 5.0);
  }
}

/// Bit-for-bit equality against the serial baseline (same contract as
/// test_gated_assign's helper).
void expect_bit_identical(const KmeansResult& got, const KmeansResult& ref,
                          const std::string& label) {
  ASSERT_EQ(got.iterations, ref.iterations) << label;
  EXPECT_EQ(got.assignments, ref.assignments) << label;
  ASSERT_EQ(got.centroids.size(), ref.centroids.size()) << label;
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0)
      << label;
}

class GemmEngineTest : public ::testing::TestWithParam<Level> {};

TEST_P(GemmEngineTest, BitIdenticalToSerialAcrossGateAndSstep) {
  // The acceptance matrix: each engine level, gate on and off, s-step fold
  // factors 1/2/4 (a Level 3 knob the other levels must ignore), all
  // landing byte-identical to serial Lloyd. d = 13 keeps every panel
  // unaligned; k = 17 leaves a one-row partial centroid block; tile 48
  // leaves a ragged final tile per rank.
  const Level level = GetParam();
  const data::Dataset ds = data::make_blobs(420, 13, 6, 77);
  KmeansConfig config;
  config.k = 17;
  config.max_iterations = 14;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  for (const bool gate : {false, true}) {
    for (const std::size_t sstep : {1u, 2u, 4u}) {
      KmeansConfig cfg = config;
      cfg.gate_assign = gate;
      cfg.sstep_tiles = sstep;
      cfg.tile_samples = 48;
      const std::size_t mprime = level == Level::kLevel3 ? 2 : 0;
      const KmeansResult got = run_level(level, ds, cfg, machine, 0, mprime);
      expect_bit_identical(got, ref,
                           std::string(level_name(level)) +
                               (gate ? " gated" : " ungated") + " sstep=" +
                               std::to_string(sstep));
    }
  }
}

TEST_P(GemmEngineTest, GemmOffAndOnAgreeOnCoincidentSeeds) {
  // Satellite regression: two coincident centroids that drift apart. The
  // first two samples are identical, so kFirstK seeds centroid 0 and 1 on
  // the same bits; every tie goes left, cluster 1 starts empty and holds
  // position (zero drift — its cached norm must stay bit-exact across
  // iterations) while cluster 0's mean walks away; once samples near the
  // old seed are closer to the parked centroid than to the drifted one,
  // cluster 1 fills and both move. GEMM on, GEMM off, and serial must
  // track this trajectory bit for bit.
  const std::size_t d = 2;
  std::vector<float> xs;
  auto push = [&](float a, float b) {
    xs.push_back(a);
    xs.push_back(b);
  };
  push(0.f, 0.f);
  push(0.f, 0.f);  // duplicate seed -> coincident centroids 0 and 1
  for (int i = 0; i < 14; ++i) {
    push(0.1f * static_cast<float>(i % 4), 0.1f * static_cast<float>(i % 3));
  }
  for (int i = 0; i < 16; ++i) {
    push(10.f + 0.2f * static_cast<float>(i % 5),
         10.f - 0.2f * static_cast<float>(i % 4));
  }
  const data::Dataset ds("drift-apart",
                         util::Matrix::from_vector(xs.size() / d, d, xs));
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 10;
  config.gate_assign = true;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig gemm_cfg = config;
  gemm_cfg.gemm_assign = true;
  KmeansConfig chain_cfg = config;
  chain_cfg.gemm_assign = false;
  const std::size_t mprime = GetParam() == Level::kLevel3 ? 2 : 0;
  const KmeansResult gemm_run =
      run_level(GetParam(), ds, gemm_cfg, machine, 0, mprime);
  const KmeansResult chain_run =
      run_level(GetParam(), ds, chain_cfg, machine, 0, mprime);
  expect_bit_identical(gemm_run, ref, "gemm");
  expect_bit_identical(chain_run, ref, "chain");
  // The trajectory must actually exercise the regression: cluster 1 ends
  // up non-empty even though it started coincident and empty.
  EXPECT_EQ(ref.empty_clusters, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, GemmEngineTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(GemmEngine, SstepCutsCollectiveRoundsByTheFoldFactor) {
  // Fixed-iteration ungated Level 3 runs: per iteration the assign phase
  // posts one combine per span, so s = 4 must cut assign-phase rounds by
  // exactly 4 while staying byte-identical. tiny(2, 4) has 8 CGs; p = 2
  // makes 4 slice groups of 256 samples each -> 4 tiles of 64 per
  // iteration, folding into exactly 1 span at s = 4.
  const data::Dataset ds = data::make_blobs(1024, 8, 4, 31);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig base;
  base.k = 6;
  base.max_iterations = 5;
  base.tolerance = -1;  // fixed length
  base.gate_assign = false;
  base.tile_samples = 64;
  KmeansConfig s1 = base;
  s1.sstep_tiles = 1;
  KmeansConfig s4 = base;
  s4.sstep_tiles = 4;
  const KmeansResult r1 = run_level(Level::kLevel3, ds, s1, machine, 0, 2);
  const KmeansResult r4 = run_level(Level::kLevel3, ds, s4, machine, 0, 2);
  expect_bit_identical(r4, r1, "sstep4 vs sstep1");
  ASSERT_EQ(r1.history.size(), r4.history.size());
  for (std::size_t t = 0; t < r1.history.size(); ++t) {
    // Each iteration: 2 update rounds + assign rounds; the assign part
    // folds by exactly 4 (256 samples/rank / 64 per tile = 4 tiles).
    const std::uint64_t assign1 = r1.history[t].net_rounds - 2;
    const std::uint64_t assign4 = r4.history[t].net_rounds - 2;
    EXPECT_EQ(assign1, 4u * assign4) << "iteration " << t;
    EXPECT_GT(assign4, 0u) << "iteration " << t;
  }
}

}  // namespace
}  // namespace swhkm::core
