#pragma once

#include <fstream>
#include <functional>
#include <string>

#include "data/dataset.hpp"

namespace swhkm::data {

/// Chunked reader for SWKM binary datasets (the save_binary format) that
/// never materialises the full sample matrix — the Table II shapes at
/// full size are disk-resident by necessity (the paper's n·d reaches
/// 1 PB), and the paper's own engines stream from node memory the same
/// way.
class BinaryDatasetReader {
 public:
  explicit BinaryDatasetReader(const std::string& path);

  std::size_t n() const { return n_; }
  std::size_t d() const { return d_; }
  const std::string& path() const { return path_; }

  /// Visit the dataset in row chunks of at most `chunk_rows`. The callback
  /// receives the chunk (row-major, chunk.rows() <= chunk_rows) and the
  /// global index of its first row. Always iterates front to back. Like
  /// read_rows, throws InvalidArgument (require_finite_rows) on a chunk
  /// holding a NaN or infinite coordinate.
  void for_each_chunk(
      std::size_t chunk_rows,
      const std::function<void(const util::Matrix& chunk,
                               std::size_t first_row)>& visit) const;

  /// Read one specific row range [first, first+count) into a matrix.
  util::Matrix read_rows(std::size_t first, std::size_t count) const;

 private:
  std::string path_;
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::streamoff payload_offset_ = 0;
};

}  // namespace swhkm::data
