#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace swhkm::data {

/// Per-dimension affine transform x' = (x - offset) * scale, remembered so
/// centroids can be mapped back to raw feature space. k-means on mixed-
/// unit data (e.g. the census surrogate's categorical codes next to the
/// road network's latitudes) is meaningless without this.
struct ScalingParams {
  std::vector<double> offset;
  std::vector<double> scale;

  bool empty() const { return offset.empty(); }
};

/// Scale every dimension to [0, 1] (constant dimensions map to 0),
/// replacing `dataset` with its scaled, re-validated copy. Returns the
/// parameters for inversion.
ScalingParams minmax_scale(Dataset& dataset);

/// Standardise every dimension to mean 0, stddev 1 (constant dimensions
/// map to 0), replacing `dataset` as minmax_scale does.
ScalingParams zscore_scale(Dataset& dataset);

/// Apply previously computed parameters to another matrix with the same
/// dimensionality (e.g. scale a query set like the training set).
void apply_scaling(const ScalingParams& params, util::Matrix& matrix);

/// Map scaled-space rows (e.g. fitted centroids) back to raw feature
/// space in place.
void invert_scaling(const ScalingParams& params, util::Matrix& matrix);

}  // namespace swhkm::data
