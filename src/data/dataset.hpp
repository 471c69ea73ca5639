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

/// In-memory dataset: n samples of d dimensions, row-major float.
class Dataset {
 public:
  Dataset() = default;
  /// Throws InvalidArgument naming the first sample and dimension that is
  /// NaN or infinite: every kernel assumes finite coordinates (a NaN
  /// distance loses every comparison, so no centroid is ever chosen).
  Dataset(std::string name, util::Matrix samples);

  const std::string& name() const { return name_; }
  std::size_t n() const { return samples_.rows(); }
  std::size_t d() const { return samples_.cols(); }
  bool empty() const { return samples_.empty(); }

  const util::Matrix& samples() const { return samples_; }
  util::Matrix& samples() { return samples_; }
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
