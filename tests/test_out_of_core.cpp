#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

#include "core/init.hpp"
#include "core/lloyd.hpp"
#include "core/metrics.hpp"
#include "core/out_of_core.hpp"
#include "data/io.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace swhkm {
namespace {

std::string write_temp_dataset(const data::Dataset& ds, const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  data::save_binary(ds, path);
  return path;
}

TEST(Reader, HeaderParsesShape) {
  const data::Dataset ds = data::make_uniform(123, 7, 1);
  const std::string path = write_temp_dataset(ds, "ooc_shape.bin");
  const data::BinaryDatasetReader reader(path);
  EXPECT_EQ(reader.n(), 123u);
  EXPECT_EQ(reader.d(), 7u);
}

TEST(Reader, ChunksCoverEveryRowOnce) {
  const data::Dataset ds = data::make_uniform(100, 3, 2);
  const std::string path = write_temp_dataset(ds, "ooc_cover.bin");
  const data::BinaryDatasetReader reader(path);
  for (std::size_t chunk_rows : {1ul, 7ul, 100ul, 1000ul}) {
    std::vector<int> seen(100, 0);
    reader.for_each_chunk(chunk_rows, [&](const util::Matrix& chunk,
                                          std::size_t first) {
      for (std::size_t r = 0; r < chunk.rows(); ++r) {
        ++seen[first + r];
        for (std::size_t u = 0; u < 3; ++u) {
          ASSERT_EQ(chunk.at(r, u), ds.sample(first + r)[u]);
        }
      }
    });
    for (int count : seen) {
      EXPECT_EQ(count, 1) << "chunk_rows=" << chunk_rows;
    }
  }
}

TEST(Reader, ReadRowsMatchesSource) {
  const data::Dataset ds = data::make_blobs(60, 5, 3, 9);
  const std::string path = write_temp_dataset(ds, "ooc_rows.bin");
  const data::BinaryDatasetReader reader(path);
  const util::Matrix rows = reader.read_rows(17, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t u = 0; u < 5; ++u) {
      EXPECT_EQ(rows.at(r, u), ds.sample(17 + r)[u]);
    }
  }
  EXPECT_THROW(reader.read_rows(58, 5), InvalidArgument);
}

TEST(Reader, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/ooc_garbage.bin";
  std::ofstream(path) << "not a dataset, definitely not";
  EXPECT_THROW(data::BinaryDatasetReader{path}, InvalidArgument);
}

TEST(OutOfCore, MatchesInMemoryLloydExactly) {
  const data::Dataset ds = data::make_blobs(400, 8, 4, 31);
  const std::string path = write_temp_dataset(ds, "ooc_match.bin");
  const data::BinaryDatasetReader reader(path);
  for (core::InitMethod init :
       {core::InitMethod::kFirstK, core::InitMethod::kRandom,
        core::InitMethod::kPlusPlus}) {
    core::KmeansConfig config;
    config.k = 4;
    config.max_iterations = 15;
    config.init = init;
    config.seed = 7;
    const core::KmeansResult in_memory = core::lloyd_serial(ds, config);
    const core::KmeansResult streamed =
        core::lloyd_out_of_core(reader, config, /*chunk_rows=*/37);
    EXPECT_EQ(streamed.iterations, in_memory.iterations);
    EXPECT_EQ(streamed.assignments, in_memory.assignments);
    EXPECT_EQ(core::centroid_max_abs_diff(streamed.centroids,
                                          in_memory.centroids),
              0.0);
    EXPECT_NEAR(streamed.inertia, in_memory.inertia,
                1e-9 * (1 + in_memory.inertia));
  }
}

TEST(OutOfCore, ChunkSizeInvariant) {
  const data::Dataset ds = data::make_uniform(200, 6, 3);
  const std::string path = write_temp_dataset(ds, "ooc_chunks.bin");
  const data::BinaryDatasetReader reader(path);
  core::KmeansConfig config;
  config.k = 5;
  config.max_iterations = 8;
  const core::KmeansResult a = core::lloyd_out_of_core(reader, config, 1);
  const core::KmeansResult b = core::lloyd_out_of_core(reader, config, 64);
  const core::KmeansResult c = core::lloyd_out_of_core(reader, config, 9999);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(b.assignments, c.assignments);
  EXPECT_EQ(core::centroid_max_abs_diff(a.centroids, c.centroids), 0.0);
}

TEST(OutOfCore, AssignMatchesSerial) {
  const data::Dataset ds = data::make_uniform(150, 4, 5);
  const std::string path = write_temp_dataset(ds, "ooc_assign.bin");
  const data::BinaryDatasetReader reader(path);
  core::KmeansConfig config;
  config.k = 6;
  const util::Matrix centroids = core::init_centroids(ds, config);
  EXPECT_EQ(core::assign_out_of_core(reader, centroids, 13),
            core::assign_serial(ds, centroids));
}

TEST(OutOfCore, DimensionMismatchRejected) {
  const data::Dataset ds = data::make_uniform(20, 4, 1);
  const std::string path = write_temp_dataset(ds, "ooc_mismatch.bin");
  const data::BinaryDatasetReader reader(path);
  EXPECT_THROW(core::assign_out_of_core(reader, util::Matrix(2, 7), 8),
               InvalidArgument);
}

TEST(OutOfCore, NonFiniteSampleRejectedUnderEveryInit) {
  // A Dataset cannot hold a NaN, so poke one into the saved file: sample
  // 50, dimension 2 of a 200 x 4 blob set. Every init must surface the
  // same typed error the in-memory Dataset raises, not NaN centroids.
  const data::Dataset ds = data::make_blobs(200, 4, 3, 11);
  const std::string path = write_temp_dataset(ds, "ooc_nan.bin");
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    file.seekp(24 + static_cast<std::streamoff>((50 * 4 + 2) * sizeof(float)));
    file.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
    ASSERT_TRUE(static_cast<bool>(file));
  }
  const data::BinaryDatasetReader reader(path);
  for (const core::InitMethod init :
       {core::InitMethod::kFirstK, core::InitMethod::kRandom,
        core::InitMethod::kPlusPlus}) {
    core::KmeansConfig config;
    config.k = 3;
    config.max_iterations = 5;
    config.init = init;
    try {
      (void)core::lloyd_out_of_core(reader, config, 64);
      ADD_FAILURE() << "init " << static_cast<int>(init)
                    << " returned instead of rejecting the NaN";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("sample 50, dimension 2 is NaN"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace swhkm
