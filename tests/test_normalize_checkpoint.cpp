#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/lloyd.hpp"
#include "core/metrics.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhkm {
namespace {

// -------------------------------------------------------------- normalize

TEST(MinMax, ScalesIntoUnitBox) {
  data::Dataset ds = data::make_uniform(200, 4, 3, -50.0f, 120.0f);
  data::minmax_scale(ds);
  const auto [lo, hi] = ds.bounding_box();
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_NEAR(lo[u], 0.0f, 1e-5);
    EXPECT_NEAR(hi[u], 1.0f, 1e-5);
  }
}

TEST(MinMax, RoundtripsThroughInversion) {
  data::Dataset ds = data::make_uniform(100, 3, 7, 5.0f, 9.0f);
  const data::Dataset original = ds;
  const data::ScalingParams params = data::minmax_scale(ds);
  util::Matrix back = ds.samples();
  data::invert_scaling(params, back);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_NEAR(back.flat()[i], original.samples().flat()[i], 1e-4);
  }
}

TEST(MinMax, ConstantDimensionMapsToZero) {
  util::Matrix m = util::Matrix::from_vector(3, 2, {5, 1, 5, 2, 5, 3});
  data::Dataset ds("x", std::move(m));
  data::minmax_scale(ds);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ds.sample(i)[0], 0.0f);
  }
}

TEST(ZScore, StandardisesMoments) {
  data::Dataset ds = data::make_blobs(500, 3, 2, 9, 30.0, 2.0);
  data::zscore_scale(ds);
  const auto means = ds.dimension_means();
  for (double m : means) {
    EXPECT_NEAR(m, 0.0, 1e-4);
  }
  // variance ~ 1 per dimension
  double var = 0;
  for (std::size_t i = 0; i < ds.n(); ++i) {
    var += ds.sample(i)[0] * ds.sample(i)[0];
  }
  EXPECT_NEAR(var / static_cast<double>(ds.n()), 1.0, 1e-3);
}

TEST(Scaling, ApplyToQueryMatchesTrainTransform) {
  data::Dataset train = data::make_uniform(50, 2, 1, 0.0f, 10.0f);
  util::Matrix query = train.samples();  // copy before scaling
  const data::ScalingParams params = data::minmax_scale(train);
  data::apply_scaling(params, query);
  for (std::size_t i = 0; i < query.size(); ++i) {
    EXPECT_EQ(query.flat()[i], train.samples().flat()[i]);
  }
}

TEST(Scaling, DimensionMismatchRejected) {
  data::Dataset ds = data::make_uniform(10, 3, 1);
  const data::ScalingParams params = data::minmax_scale(ds);
  util::Matrix wrong(2, 4);
  EXPECT_THROW(data::apply_scaling(params, wrong), InvalidArgument);
}

TEST(Scaling, ScalingChangesClusteringOfMixedUnits) {
  // One dimension in thousands dominates unscaled distances; scaling lets
  // the structured small dimension matter.
  util::Xoshiro256 rng(5);
  util::Matrix m(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    m.at(i, 0) = static_cast<float>(rng.uniform(0, 10000));  // noise, huge
    m.at(i, 1) = i < 100 ? 0.0f : 1.0f;                      // true structure
  }
  data::Dataset ds("mixed", std::move(m));
  core::KmeansConfig config;
  config.k = 2;
  config.max_iterations = 20;
  config.init = core::InitMethod::kRandom;
  data::Dataset scaled = ds;
  data::minmax_scale(scaled);
  const auto scaled_result = core::lloyd_serial(scaled, config);
  std::vector<std::uint32_t> truth(200);
  for (std::size_t i = 100; i < 200; ++i) {
    truth[i] = 1;
  }
  EXPECT_GT(core::adjusted_rand_index(scaled_result.assignments, truth),
            0.95);
  const auto raw_result = core::lloyd_serial(ds, config);
  EXPECT_LT(core::adjusted_rand_index(raw_result.assignments, truth), 0.5);
}

// ------------------------------------------------------------- checkpoint

TEST(Checkpoint, RoundtripPreservesState) {
  const data::Dataset ds = data::make_blobs(150, 5, 3, 4);
  core::KmeansConfig config;
  config.k = 3;
  config.max_iterations = 7;
  config.tolerance = -1;
  const core::KmeansResult result = core::lloyd_serial(ds, config);
  const std::string path = ::testing::TempDir() + "/swhkm_ckpt.bin";
  core::save_checkpoint(result, path);
  const core::KmeansResult loaded = core::load_checkpoint(path);
  EXPECT_EQ(loaded.iterations, result.iterations);
  EXPECT_EQ(loaded.converged, result.converged);
  EXPECT_EQ(loaded.assignments, result.assignments);
  EXPECT_DOUBLE_EQ(loaded.inertia, result.inertia);
  EXPECT_EQ(core::centroid_max_abs_diff(loaded.centroids, result.centroids),
            0.0);
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  const data::Dataset ds = data::make_uniform(300, 4, 6);
  core::KmeansConfig first_leg;
  first_leg.k = 5;
  first_leg.max_iterations = 3;
  first_leg.tolerance = -1;
  const core::KmeansResult partial = core::lloyd_serial(ds, first_leg);

  const std::string path = ::testing::TempDir() + "/swhkm_resume.bin";
  core::save_checkpoint(partial, path);
  const core::KmeansResult restored = core::load_checkpoint(path);

  // max_iterations is the TOTAL budget: resuming a 3-iteration checkpoint
  // with a budget of 7 runs 4 more and lands exactly where an
  // uninterrupted 7-iteration run does.
  core::KmeansConfig second_leg = first_leg;
  second_leg.max_iterations = 7;
  const core::KmeansResult resumed =
      core::resume_lloyd(ds, second_leg, restored);

  core::KmeansConfig straight = first_leg;
  straight.max_iterations = 7;
  const core::KmeansResult uninterrupted = core::lloyd_serial(ds, straight);

  EXPECT_EQ(resumed.iterations, uninterrupted.iterations);
  EXPECT_EQ(core::assignment_agreement(resumed.assignments,
                                       uninterrupted.assignments),
            1.0);
  EXPECT_LT(core::centroid_max_abs_diff(resumed.centroids,
                                        uninterrupted.centroids),
            1e-6);
}

TEST(Checkpoint, ResumeNeverExceedsTotalIterationBudget) {
  // Regression: resume_lloyd used to run a full max_iterations ON TOP of
  // the checkpoint's spent iterations, so a resumed run could burn up to
  // 2x the configured budget.
  const data::Dataset ds = data::make_uniform(200, 3, 9);
  core::KmeansConfig config;
  config.k = 4;
  config.max_iterations = 3;
  config.tolerance = -1;
  const core::KmeansResult partial = core::lloyd_serial(ds, config);
  ASSERT_EQ(partial.iterations, 3u);

  core::KmeansConfig budget = config;
  budget.max_iterations = 5;
  const core::KmeansResult resumed = core::resume_lloyd(ds, budget, partial);
  EXPECT_EQ(resumed.iterations, 5u);
}

TEST(Checkpoint, ResumeWithExhaustedBudgetReturnsCheckpointState) {
  const data::Dataset ds = data::make_uniform(150, 3, 2);
  core::KmeansConfig config;
  config.k = 4;
  config.max_iterations = 4;
  config.tolerance = -1;
  const core::KmeansResult partial = core::lloyd_serial(ds, config);

  // Budget smaller than what the checkpoint already spent: no further
  // iterations, but the result must still be self-consistent (assignments
  // and inertia recomputed against the checkpoint centroids).
  core::KmeansConfig smaller = config;
  smaller.max_iterations = 2;
  const core::KmeansResult resumed =
      core::resume_lloyd(ds, smaller, partial);
  EXPECT_EQ(resumed.iterations, partial.iterations);
  EXPECT_EQ(core::centroid_max_abs_diff(resumed.centroids,
                                        partial.centroids),
            0.0);
  EXPECT_EQ(resumed.assignments,
            core::assign_serial(ds, partial.centroids));
  EXPECT_GT(resumed.inertia, 0.0);
}

TEST(Checkpoint, OverDeclaredHeaderRejected) {
  // A header whose per-array shapes each fit the payload but whose
  // combined size exceeds it must be rejected up front — the old
  // independent checks let it through to the read stage.
  const data::Dataset ds = data::make_uniform(40, 3, 5);
  core::KmeansConfig config;
  config.k = 2;
  const core::KmeansResult result = core::lloyd_serial(ds, config);
  const std::string path = ::testing::TempDir() + "/swhkm_overdecl.bin";
  core::save_checkpoint(result, path);

  // Payload is k*d*4 + n*4 = 24 + 160 = 184 bytes. Rewrite n to claim 46
  // assignment rows (46*4 = 184 <= 184 passes the independent check) so
  // the combined size 24 + 184 = 208 over-declares the file.
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file);
  const std::uint64_t bogus_n = 46;
  file.seekp(4 + 4 + 8 + 8, std::ios::beg);  // magic, version, k, d
  file.write(reinterpret_cast<const char*>(&bogus_n), sizeof(bogus_n));
  file.close();
  try {
    core::load_checkpoint(path);
    FAIL() << "over-declared checkpoint header was accepted";
  } catch (const InvalidArgument& error) {
    // Must be caught by the shape validation, not surface later as a
    // generic short-read failure.
    EXPECT_NE(std::string(error.what()).find("do not match the file size"),
              std::string::npos)
        << error.what();
  }
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/swhkm_bad_ckpt.bin";
  std::ofstream(path) << "garbage garbage garbage garbage garbage garbage";
  EXPECT_THROW(core::load_checkpoint(path), InvalidArgument);
}

TEST(Checkpoint, TruncatedFileRejected) {
  const data::Dataset ds = data::make_uniform(40, 3, 1);
  core::KmeansConfig config;
  config.k = 2;
  const core::KmeansResult result = core::lloyd_serial(ds, config);
  const std::string path = ::testing::TempDir() + "/swhkm_trunc_ckpt.bin";
  core::save_checkpoint(result, path);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << contents.substr(0, contents.size() - 8);
  EXPECT_THROW(core::load_checkpoint(path), InvalidArgument);
}

TEST(Checkpoint, ShapeMismatchOnResumeRejected) {
  const data::Dataset ds = data::make_uniform(40, 3, 1);
  core::KmeansConfig config;
  config.k = 2;
  const core::KmeansResult result = core::lloyd_serial(ds, config);
  core::KmeansConfig other = config;
  other.k = 4;
  EXPECT_THROW(core::resume_lloyd(ds, other, result), InvalidArgument);
  const data::Dataset wider = data::make_uniform(40, 5, 1);
  EXPECT_THROW(core::resume_lloyd(wider, config, result), InvalidArgument);
}

TEST(Checkpoint, EmptyResultRejected) {
  core::KmeansResult empty;
  EXPECT_THROW(core::save_checkpoint(empty, "/tmp/x.bin"), InvalidArgument);
}

// --------------------------------------------- corrupt-checkpoint corpus
//
// Format v2 hardening: every torn or bit-damaged file must surface as the
// typed CorruptCheckpointError — never a crash, a silent wrong load, or an
// untyped failure the RecoveryDriver couldn't tell from a config mistake.

namespace corpus {

std::string save_sample(const std::string& name, std::string* raw) {
  const data::Dataset ds = data::make_blobs(60, 4, 3, 21);
  core::KmeansConfig config;
  config.k = 3;
  config.max_iterations = 5;
  config.tolerance = -1;
  const core::KmeansResult result = core::lloyd_serial(ds, config);
  const std::string path = ::testing::TempDir() + "/" + name;
  core::save_checkpoint(result, path);
  std::ifstream in(path, std::ios::binary);
  raw->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return path;
}

void rewrite(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace corpus

TEST(CheckpointCorpus, TruncationAtAnyLengthRejected) {
  std::string raw;
  const std::string path = corpus::save_sample("swhkm_corpus_trunc.bin", &raw);
  ASSERT_GT(raw.size(), 57u);
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{20},
        std::size_t{55}, std::size_t{56}, std::size_t{57}, raw.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    corpus::rewrite(path, raw.substr(0, keep));
    EXPECT_THROW(core::load_checkpoint(path), CorruptCheckpointError);
  }
  corpus::rewrite(path, raw);
  EXPECT_NO_THROW(core::load_checkpoint(path));
}

TEST(CheckpointCorpus, BitFlipInPayloadFailsTheCrc) {
  std::string raw;
  const std::string path = corpus::save_sample("swhkm_corpus_flip.bin", &raw);
  constexpr std::size_t kHeaderBytes = 56;
  // Every 7th payload byte plus the first and the last — a flip anywhere
  // in the centroids or the assignments must trip the CRC.
  std::vector<std::size_t> offsets{kHeaderBytes, raw.size() - 1};
  for (std::size_t at = kHeaderBytes + 7; at < raw.size(); at += 7) {
    offsets.push_back(at);
  }
  for (std::size_t at : offsets) {
    SCOPED_TRACE("offset=" + std::to_string(at));
    std::string damaged = raw;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    corpus::rewrite(path, damaged);
    EXPECT_THROW(core::load_checkpoint(path), CorruptCheckpointError);
  }
}

TEST(CheckpointCorpus, DamagedHeaderFieldsRejected) {
  std::string raw;
  const std::string path = corpus::save_sample("swhkm_corpus_hdr.bin", &raw);
  // Protected header regions: magic [0,4), version [4,8), k/d/n shape
  // fields [8,32), payload CRC [44,48).
  std::vector<std::size_t> offsets;
  for (std::size_t at = 0; at < 32; ++at) {
    offsets.push_back(at);
  }
  for (std::size_t at = 44; at < 48; ++at) {
    offsets.push_back(at);
  }
  for (std::size_t at : offsets) {
    SCOPED_TRACE("offset=" + std::to_string(at));
    std::string damaged = raw;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x04);
    corpus::rewrite(path, damaged);
    EXPECT_THROW(core::load_checkpoint(path), CorruptCheckpointError);
  }
}

TEST(CheckpointCorpus, StaleVersionRejected) {
  std::string raw;
  const std::string path = corpus::save_sample("swhkm_corpus_v1.bin", &raw);
  std::string stale = raw;
  const std::uint32_t v1 = 1;  // pre-CRC format: unverifiable, so refused
  std::memcpy(stale.data() + 4, &v1, sizeof(v1));
  corpus::rewrite(path, stale);
  try {
    core::load_checkpoint(path);
    FAIL() << "stale v1 checkpoint was accepted";
  } catch (const CorruptCheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace swhkm
