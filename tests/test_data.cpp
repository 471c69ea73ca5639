#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "data/io.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace swhkm::data {
namespace {

// ---------------------------------------------------------------- dataset

TEST(Dataset, ShapeAccessors) {
  Dataset ds("x", util::Matrix(5, 3, 1.0f));
  EXPECT_EQ(ds.n(), 5u);
  EXPECT_EQ(ds.d(), 3u);
  EXPECT_EQ(ds.name(), "x");
  EXPECT_FALSE(ds.empty());
}

TEST(Dataset, DimensionMeans) {
  util::Matrix m = util::Matrix::from_vector(2, 2, {1, 3, 3, 5});
  Dataset ds("x", std::move(m));
  const auto means = ds.dimension_means();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 4.0);
}

TEST(Dataset, BoundingBox) {
  util::Matrix m = util::Matrix::from_vector(3, 1, {-1, 5, 2});
  Dataset ds("x", std::move(m));
  const auto [lo, hi] = ds.bounding_box();
  EXPECT_EQ(lo[0], -1.0f);
  EXPECT_EQ(hi[0], 5.0f);
}

TEST(Dataset, RejectsNonFiniteSamplesNamingTheEntry) {
  // One NaN or infinity used to reach the kernels, where a NaN distance
  // loses every comparison and the argmin names no centroid (lloyd_serial
  // crashed in the update). The constructor is the single gate every
  // loader and generator passes through.
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float v : bad) {
    std::vector<float> xs(4 * 3, 1.0f);
    xs[2 * 3 + 1] = v;
    try {
      Dataset ds("x", util::Matrix::from_vector(4, 3, std::move(xs)));
      ADD_FAILURE() << "accepted " << v;
    } catch (const swhkm::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("sample 2"), std::string::npos) << what;
      EXPECT_NE(what.find("dimension 1"), std::string::npos) << what;
    }
  }
  // Extremes that are finite stay accepted.
  const Dataset edge(
      "edge", util::Matrix::from_vector(
                  1, 3,
                  {std::numeric_limits<float>::max(),
                   -std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::denorm_min()}));
  EXPECT_EQ(edge.n(), 1u);
}

// Samples are read-only even through a non-const Dataset: a write after
// construction would bypass the finite-coordinate check above.
static_assert(
    std::is_same_v<decltype(std::declval<Dataset&>().samples()),
                   const util::Matrix&>);

TEST(Dataset, InfoCarriesShape) {
  Dataset ds("named", util::Matrix(7, 2));
  const DatasetInfo info = ds.info(3);
  EXPECT_EQ(info.name, "named");
  EXPECT_EQ(info.n, 7u);
  EXPECT_EQ(info.d, 2u);
  EXPECT_EQ(info.k, 3u);
  EXPECT_EQ(info.element_count(), 14u);
}

// ------------------------------------------------------------ Table II

TEST(Benchmarks, TableTwoShapes) {
  // These are the paper's Table II rows verbatim.
  const DatasetInfo kegg = benchmark_info(Benchmark::kKeggNetwork);
  EXPECT_EQ(kegg.n, 65554u);
  EXPECT_EQ(kegg.d, 28u);
  EXPECT_EQ(kegg.k, 256u);

  const DatasetInfo road = benchmark_info(Benchmark::kRoadNetwork);
  EXPECT_EQ(road.n, 434874u);
  EXPECT_EQ(road.d, 4u);
  EXPECT_EQ(road.k, 10000u);

  const DatasetInfo census = benchmark_info(Benchmark::kUsCensus1990);
  EXPECT_EQ(census.n, 2458285u);
  EXPECT_EQ(census.d, 68u);
  EXPECT_EQ(census.k, 10000u);

  const DatasetInfo ilsvrc = benchmark_info(Benchmark::kIlsvrc2012);
  EXPECT_EQ(ilsvrc.n, 1265723u);
  EXPECT_EQ(ilsvrc.d, 196608u);
  EXPECT_EQ(ilsvrc.k, 160000u);
  EXPECT_EQ(ilsvrc.d, 256u * 256u * 3u);  // 256x256 RGB patches
}

TEST(Benchmarks, ListsAllFour) {
  EXPECT_EQ(paper_benchmarks().size(), 4u);
}

// --------------------------------------------------------------- blobs

TEST(Blobs, ShapeAndDeterminism) {
  const Dataset a = make_blobs(100, 6, 4, 9);
  EXPECT_EQ(a.n(), 100u);
  EXPECT_EQ(a.d(), 6u);
  const Dataset b = make_blobs(100, 6, 4, 9);
  EXPECT_EQ(a.samples().flat()[17], b.samples().flat()[17]);
}

TEST(Blobs, SeedsChangeData) {
  const Dataset a = make_blobs(50, 3, 2, 1);
  const Dataset b = make_blobs(50, 3, 2, 2);
  int same = 0;
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    same += a.samples().flat()[i] == b.samples().flat()[i] ? 1 : 0;
  }
  EXPECT_LT(same, 10);
}

TEST(Blobs, ClustersAreSeparated) {
  // With default separation, same-cluster samples are much closer than
  // cross-cluster ones (memberships are round-robin by construction).
  const Dataset ds = make_blobs(60, 8, 3, 7);
  auto dist = [&](std::size_t a, std::size_t b) {
    double s = 0;
    for (std::size_t u = 0; u < ds.d(); ++u) {
      const double diff = ds.sample(a)[u] - ds.sample(b)[u];
      s += diff * diff;
    }
    return s;
  };
  const double within = dist(0, 3);   // both cluster 0
  const double across = dist(0, 1);   // clusters 0 and 1
  EXPECT_LT(within, across);
}

TEST(Blobs, RejectsZeroShapes) {
  EXPECT_THROW(make_blobs(0, 3, 2, 1), swhkm::InvalidArgument);
  EXPECT_THROW(make_blobs(10, 0, 2, 1), swhkm::InvalidArgument);
  EXPECT_THROW(make_blobs(10, 3, 0, 1), swhkm::InvalidArgument);
}

// --------------------------------------------------------------- uniform

TEST(Uniform, RespectsBounds) {
  const Dataset ds = make_uniform(200, 4, 3, -2.0f, 2.0f);
  const auto [lo, hi] = ds.bounding_box();
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_GE(lo[u], -2.0f);
    EXPECT_LT(hi[u], 2.0f);
  }
}

TEST(Uniform, RejectsEmptyInterval) {
  EXPECT_THROW(make_uniform(10, 2, 1, 1.0f, 1.0f), swhkm::InvalidArgument);
}

// ------------------------------------------------------------ surrogates

TEST(Surrogates, KeggIsPositiveSkewed) {
  const Dataset ds = make_kegg_like(500, 11);
  EXPECT_EQ(ds.d(), 28u);
  const auto [lo, hi] = ds.bounding_box();
  for (std::size_t u = 0; u < ds.d(); ++u) {
    EXPECT_GT(lo[u], 0.0f);  // reaction features are positive
  }
  // Skew: mean above median-ish value for a log-normal.
  const auto means = ds.dimension_means();
  EXPECT_GT(means[0], 0.5);
}

TEST(Surrogates, RoadLooksLikeJutland) {
  const Dataset ds = make_road_like(1000, 5);
  EXPECT_EQ(ds.d(), 4u);
  const auto [lo, hi] = ds.bounding_box();
  EXPECT_GT(lo[0], 56.0f);  // latitude band
  EXPECT_LT(hi[0], 58.5f);
  EXPECT_GT(lo[1], 7.5f);  // longitude band
  EXPECT_LT(hi[1], 12.0f);
}

TEST(Surrogates, CensusIsSmallCardinalityCodes) {
  const Dataset ds = make_census_like(300, 2);
  EXPECT_EQ(ds.d(), 68u);
  for (std::size_t i = 0; i < ds.n(); ++i) {
    for (std::size_t u = 0; u < ds.d(); ++u) {
      const float v = ds.sample(i)[u];
      EXPECT_EQ(v, std::floor(v));  // integer codes
      EXPECT_GE(v, 0.0f);
      EXPECT_LT(v, 17.0f);
    }
  }
}

TEST(Surrogates, IlsvrcPatchDimsAndRange) {
  const Dataset ds = make_ilsvrc_like(5, 8, 3);
  EXPECT_EQ(ds.d(), 8u * 8u * 3u);
  const auto [lo, hi] = ds.bounding_box();
  for (std::size_t u = 0; u < ds.d(); ++u) {
    EXPECT_GE(lo[u], 0.0f);
    EXPECT_LE(hi[u], 255.0f);
  }
}

TEST(Surrogates, IlsvrcHasSpatialCorrelation) {
  // Neighbouring pixels correlate far more than distant ones — the
  // low-frequency structure the generator promises.
  const Dataset ds = make_ilsvrc_like(64, 16, 7);
  double near = 0;
  double far = 0;
  for (std::size_t i = 0; i < ds.n(); ++i) {
    const auto x = ds.sample(i);
    near += std::abs(x[0] - x[3]);             // adjacent pixel, same row
    far += std::abs(x[0] - x[15 * 16 * 3]);    // opposite corner
  }
  EXPECT_LT(near, far);
}

TEST(Surrogates, BenchmarkSurrogateCapsShape) {
  const Dataset ds =
      make_benchmark_surrogate(Benchmark::kIlsvrc2012, 100, 3072, 1);
  EXPECT_LE(ds.n(), 100u);
  EXPECT_LE(ds.d(), 3072u);
  const Dataset census =
      make_benchmark_surrogate(Benchmark::kUsCensus1990, 50, 1024, 1);
  EXPECT_EQ(census.n(), 50u);
  EXPECT_EQ(census.d(), 68u);
}

// --------------------------------------------------------------------- io

TEST(Io, BinaryRoundtripIsExact) {
  const Dataset ds = make_blobs(40, 7, 3, 21);
  const std::string path = ::testing::TempDir() + "/swhkm_ds.bin";
  save_binary(ds, path);
  const Dataset back = load_binary(path);
  EXPECT_EQ(back.n(), ds.n());
  EXPECT_EQ(back.d(), ds.d());
  for (std::size_t i = 0; i < ds.samples().size(); ++i) {
    EXPECT_EQ(back.samples().flat()[i], ds.samples().flat()[i]);
  }
}

TEST(Io, LoadBinaryRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/swhkm_garbage.bin";
  std::ofstream(path) << "this is not a dataset at all, not even close";
  EXPECT_THROW(load_binary(path), swhkm::InvalidArgument);
}

TEST(Io, LoadBinaryRejectsTruncation) {
  const Dataset ds = make_blobs(10, 4, 2, 1);
  const std::string path = ::testing::TempDir() + "/swhkm_trunc.bin";
  save_binary(ds, path);
  // Chop the file short.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << contents.substr(0, contents.size() / 2);
  EXPECT_THROW(load_binary(path), swhkm::InvalidArgument);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(load_binary("/nonexistent/nowhere.bin"),
               swhkm::InvalidArgument);
}

TEST(Io, CsvRoundtripPreservesShape) {
  const Dataset ds = make_uniform(12, 3, 5);
  const std::string path = ::testing::TempDir() + "/swhkm_ds.csv";
  save_csv(ds, path);
  const Dataset back = load_csv(path);
  EXPECT_EQ(back.n(), 12u);
  EXPECT_EQ(back.d(), 3u);
  for (std::size_t i = 0; i < ds.samples().size(); ++i) {
    EXPECT_NEAR(back.samples().flat()[i], ds.samples().flat()[i], 1e-4);
  }
}

TEST(Io, CsvRejectsRaggedRows) {
  const std::string path = ::testing::TempDir() + "/swhkm_ragged.csv";
  std::ofstream(path) << "1,2,3\n4,5\n";
  EXPECT_THROW(load_csv(path), swhkm::InvalidArgument);
}

TEST(Io, CsvRejectsNonNumeric) {
  const std::string path = ::testing::TempDir() + "/swhkm_alpha.csv";
  std::ofstream(path) << "1,banana\n";
  EXPECT_THROW(load_csv(path), swhkm::InvalidArgument);
}

TEST(Io, CsvRejectsNonFiniteValues) {
  for (const char* token : {"nan", "inf", "-inf"}) {
    const std::string path = ::testing::TempDir() + "/swhkm_nonfinite.csv";
    std::ofstream(path) << "1,2\n3," << token << "\n";
    EXPECT_THROW(load_csv(path), swhkm::InvalidArgument) << token;
  }
}

TEST(Io, BinaryRejectsNonFiniteValues) {
  const std::string path = ::testing::TempDir() + "/swhkm_nonfinite.swkm";
  save_binary(Dataset("ok", util::Matrix(3, 2, 1.0f)), path);
  {
    // Overwrite sample 1, dimension 0 in place (24-byte header).
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    file.seekp(24 + 2 * sizeof(float));
    file.write(reinterpret_cast<const char*>(&nan), sizeof nan);
  }
  EXPECT_THROW(load_binary(path), swhkm::InvalidArgument);
}

TEST(Io, CsvRejectsEmptyFile) {
  const std::string path = ::testing::TempDir() + "/swhkm_empty.csv";
  std::ofstream(path) << "";
  EXPECT_THROW(load_csv(path), swhkm::InvalidArgument);
}

}  // namespace
}  // namespace swhkm::data
