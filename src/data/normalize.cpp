#include "data/normalize.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace swhkm::data {

namespace {

void transform(util::Matrix& matrix, const ScalingParams& params,
               bool forward) {
  SWHKM_REQUIRE(matrix.cols() == params.offset.size(),
                "scaling params built for a different dimensionality");
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    std::span<float> row = matrix.row(r);
    for (std::size_t u = 0; u < row.size(); ++u) {
      if (forward) {
        row[u] = static_cast<float>(
            (static_cast<double>(row[u]) - params.offset[u]) *
            params.scale[u]);
      } else {
        const double scale = params.scale[u];
        row[u] = static_cast<float>(
            scale == 0 ? params.offset[u]
                       : static_cast<double>(row[u]) / scale +
                             params.offset[u]);
      }
    }
  }
}

/// Scale a copy of `dataset`'s samples and rebuild it through the
/// validating constructor, so the scaled dataset is re-checked finite.
void rescale(Dataset& dataset, const ScalingParams& params) {
  util::Matrix scaled = dataset.samples();
  apply_scaling(params, scaled);
  dataset = Dataset(dataset.name(), std::move(scaled));
}

}  // namespace

ScalingParams minmax_scale(Dataset& dataset) {
  SWHKM_REQUIRE(!dataset.empty(), "cannot scale an empty dataset");
  const auto [lo, hi] = dataset.bounding_box();
  ScalingParams params;
  params.offset.resize(dataset.d());
  params.scale.resize(dataset.d());
  for (std::size_t u = 0; u < dataset.d(); ++u) {
    params.offset[u] = lo[u];
    const double range = static_cast<double>(hi[u]) - lo[u];
    params.scale[u] = range > 0 ? 1.0 / range : 0.0;
  }
  rescale(dataset, params);
  return params;
}

ScalingParams zscore_scale(Dataset& dataset) {
  SWHKM_REQUIRE(!dataset.empty(), "cannot scale an empty dataset");
  const std::vector<double> means = dataset.dimension_means();
  std::vector<double> variance(dataset.d(), 0.0);
  for (std::size_t i = 0; i < dataset.n(); ++i) {
    const auto row = dataset.sample(i);
    for (std::size_t u = 0; u < dataset.d(); ++u) {
      const double diff = static_cast<double>(row[u]) - means[u];
      variance[u] += diff * diff;
    }
  }
  ScalingParams params;
  params.offset = means;
  params.scale.resize(dataset.d());
  for (std::size_t u = 0; u < dataset.d(); ++u) {
    const double stddev =
        std::sqrt(variance[u] / static_cast<double>(dataset.n()));
    params.scale[u] = stddev > 0 ? 1.0 / stddev : 0.0;
  }
  rescale(dataset, params);
  return params;
}

void apply_scaling(const ScalingParams& params, util::Matrix& matrix) {
  transform(matrix, params, /*forward=*/true);
}

void invert_scaling(const ScalingParams& params, util::Matrix& matrix) {
  transform(matrix, params, /*forward=*/false);
}

}  // namespace swhkm::data
