#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace swhkm::data {

void require_finite_rows(const std::string& name, const util::Matrix& rows,
                         std::size_t first_row) {
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const std::span<const float> row = rows.row(i);
    bool finite = true;
    for (const float v : row) {
      finite &= std::isfinite(v);
    }
    if (finite) {
      continue;
    }
    const auto bad = std::find_if(
        row.begin(), row.end(), [](float v) { return !std::isfinite(v); });
    throw InvalidArgument(
        "dataset '" + name + "': sample " + std::to_string(first_row + i) +
        ", dimension " + std::to_string(bad - row.begin()) + " is " +
        (std::isnan(*bad) ? "NaN" : "infinite") +
        "; k-means needs finite coordinates");
  }
}

Dataset::Dataset(std::string name, util::Matrix samples)
    : name_(std::move(name)), samples_(std::move(samples)) {
  require_finite_rows(name_, samples_, 0);
}

std::vector<double> Dataset::dimension_means() const {
  std::vector<double> means(d(), 0.0);
  if (n() == 0) {
    return means;
  }
  for (std::size_t i = 0; i < n(); ++i) {
    const std::span<const float> row = samples_.row(i);
    for (std::size_t u = 0; u < d(); ++u) {
      means[u] += row[u];
    }
  }
  for (double& m : means) {
    m /= static_cast<double>(n());
  }
  return means;
}

std::pair<std::vector<float>, std::vector<float>> Dataset::bounding_box()
    const {
  std::vector<float> lo(d(), std::numeric_limits<float>::max());
  std::vector<float> hi(d(), std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < n(); ++i) {
    const std::span<const float> row = samples_.row(i);
    for (std::size_t u = 0; u < d(); ++u) {
      lo[u] = std::min(lo[u], row[u]);
      hi[u] = std::max(hi[u], row[u]);
    }
  }
  return {std::move(lo), std::move(hi)};
}

}  // namespace swhkm::data
