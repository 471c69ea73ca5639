#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace swhkm::data {

/// Shape descriptor for a clustering workload. For the paper-scale
/// benchmarks (Table II) the samples are never materialised — engines and
/// the performance model consume the shape; the functional path consumes a
/// scaled-down Dataset with the same structure.
struct DatasetInfo {
  std::string name;
  std::size_t n = 0;  ///< number of samples
  std::size_t d = 0;  ///< dimensions per sample
  std::size_t k = 0;  ///< the paper's target centroid count for this set

  std::uint64_t element_count() const {
    return static_cast<std::uint64_t>(n) * d;
  }
};

/// Throw InvalidArgument naming the first NaN or infinite coordinate of
/// `rows`, which hold samples [first_row, first_row + rows.rows()) of
/// dataset `name`: every kernel assumes finite coordinates (a NaN distance
/// loses every comparison, so no centroid is ever chosen). The one check
/// behind both the in-memory Dataset and the out-of-core reader.
void require_finite_rows(const std::string& name, const util::Matrix& rows,
                         std::size_t first_row);

/// In-memory dataset: n samples of d dimensions, row-major float.
class Dataset {
 public:
  Dataset() = default;
  /// Throws InvalidArgument through require_finite_rows.
  Dataset(std::string name, util::Matrix samples);

  const std::string& name() const { return name_; }
  std::size_t n() const { return samples_.rows(); }
  std::size_t d() const { return samples_.cols(); }
  bool empty() const { return samples_.empty(); }

  /// Read-only: every write goes through the validating constructor, so a
  /// Dataset holds finite coordinates for its whole life.
  const util::Matrix& samples() const { return samples_; }
  std::span<const float> sample(std::size_t i) const {
    return samples_.row(i);
  }

  DatasetInfo info(std::size_t k = 0) const {
    return DatasetInfo{name_, n(), d(), k};
  }

  /// Per-dimension mean over all samples (used by tests and by centroid
  /// sanity checks).
  std::vector<double> dimension_means() const;

  /// Smallest axis-aligned box containing every sample, as (lo, hi) pairs.
  std::pair<std::vector<float>, std::vector<float>> bounding_box() const;

 private:
  std::string name_;
  util::Matrix samples_;
};

}  // namespace swhkm::data
