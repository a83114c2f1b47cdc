#pragma once

// Statistical filtering of execution-time samples (paper §III-A mentions
// ADCL's "statistical filtering"; suboptimal decisions in §IV-A are traced
// to unfiltered outliers from OS noise).  The scoring step turns a batch
// of noisy per-iteration measurements into one robust score.

#include <vector>

namespace nbctune::adcl {

enum class FilterKind {
  None,         ///< plain arithmetic mean
  Iqr,          ///< drop samples outside [q1 - 1.5 IQR, q3 + 1.5 IQR]
  TrimmedMean,  ///< drop the top and bottom quarter of the samples
};

/// Robust score of a sample batch under the chosen filter.  Lower is
/// better (scores are execution times).  Empty input returns +inf.
double robust_score(const std::vector<double>& samples, FilterKind kind);

/// The samples surviving the filter (exposed for diagnostics and tests).
std::vector<double> filtered_samples(const std::vector<double>& samples,
                                     FilterKind kind);

/// Linear-interpolated quantile of an unsorted sample set, q in [0, 1].
double quantile(std::vector<double> samples, double q);

}  // namespace nbctune::adcl
