#include "data/streaming.hpp"

#include <cstring>

#include "util/error.hpp"

namespace swhkm::data {

namespace {
// Mirrors io.cpp's SWKM header (kept private there; duplicated structure
// is pinned by the shared magic/version checks in tests).
struct Header {
  char magic[4];
  std::uint32_t version;
  std::uint64_t n;
  std::uint64_t d;
};
static_assert(sizeof(Header) == 24);
}  // namespace

BinaryDatasetReader::BinaryDatasetReader(const std::string& path)
    : path_(path) {
  std::ifstream file(path, std::ios::binary);
  SWHKM_REQUIRE(static_cast<bool>(file), "cannot open " + path + " to read");
  Header header{};
  file.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!file || std::memcmp(header.magic, "SWKM", 4) != 0) {
    throw InvalidArgument(path + " is not a SWKM dataset");
  }
  if (header.version != 1) {
    throw InvalidArgument(path + " has unsupported SWKM version");
  }
  file.seekg(0, std::ios::end);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(file.tellg()) - sizeof(Header);
  if (header.d == 0 || header.n > payload / sizeof(float) / header.d) {
    throw InvalidArgument(path + " declares a shape larger than the file");
  }
  n_ = header.n;
  d_ = header.d;
  payload_offset_ = sizeof(Header);
}

util::Matrix BinaryDatasetReader::read_rows(std::size_t first,
                                            std::size_t count) const {
  SWHKM_REQUIRE(first + count <= n_, "row range out of dataset");
  std::ifstream file(path_, std::ios::binary);
  SWHKM_REQUIRE(static_cast<bool>(file), "cannot open " + path_);
  util::Matrix chunk(count, d_);
  file.seekg(payload_offset_ +
             static_cast<std::streamoff>(first * d_ * sizeof(float)));
  file.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(count * d_ * sizeof(float)));
  if (!file) {
    throw InvalidArgument(path_ + " is truncated");
  }
  require_finite_rows(path_, chunk, first);
  return chunk;
}

void BinaryDatasetReader::for_each_chunk(
    std::size_t chunk_rows,
    const std::function<void(const util::Matrix&, std::size_t)>& visit)
    const {
  SWHKM_REQUIRE(chunk_rows > 0, "chunk_rows must be positive");
  std::ifstream file(path_, std::ios::binary);
  SWHKM_REQUIRE(static_cast<bool>(file), "cannot open " + path_);
  file.seekg(payload_offset_);
  for (std::size_t first = 0; first < n_; first += chunk_rows) {
    const std::size_t rows = std::min(chunk_rows, n_ - first);
    util::Matrix chunk(rows, d_);
    file.read(reinterpret_cast<char*>(chunk.data()),
              static_cast<std::streamsize>(rows * d_ * sizeof(float)));
    if (!file) {
      throw InvalidArgument(path_ + " is truncated");
    }
    require_finite_rows(path_, chunk, first);
    visit(chunk, first);
  }
}

}  // namespace swhkm::data
