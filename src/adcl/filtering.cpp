#include "adcl/filtering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "trace/trace.hpp"

namespace nbctune::adcl {

namespace {
/// The fraction of a batch FilterKind::TrimmedMean drops at each end.
constexpr double kTrimFrac = 0.25;
}  // namespace

double quantile(std::vector<double> s, double q) {
  if (s.empty()) throw std::invalid_argument("quantile of empty set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q out of range");
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

std::vector<double> filtered_samples(const std::vector<double>& samples,
                                     FilterKind kind) {
  if (samples.empty()) return {};
  switch (kind) {
    case FilterKind::None:
      return samples;
    case FilterKind::Iqr: {
      if (samples.size() < 4) return samples;  // quartiles meaningless
      const double q1 = quantile(samples, 0.25);
      const double q3 = quantile(samples, 0.75);
      const double iqr = q3 - q1;
      const double lo = q1 - 1.5 * iqr;
      const double hi = q3 + 1.5 * iqr;
      std::vector<double> keep;
      keep.reserve(samples.size());
      for (double x : samples) {
        if (x >= lo && x <= hi) keep.push_back(x);
      }
      return keep.empty() ? samples : keep;
    }
    case FilterKind::TrimmedMean: {
      std::vector<double> s = samples;
      std::sort(s.begin(), s.end());
      const auto cut = static_cast<std::size_t>(
          std::floor(kTrimFrac * static_cast<double>(s.size())));
      if (2 * cut >= s.size()) return s;  // would trim everything
      return {s.begin() + static_cast<std::ptrdiff_t>(cut),
              s.end() - static_cast<std::ptrdiff_t>(cut)};
    }
  }
  return samples;
}

double robust_score(const std::vector<double>& samples, FilterKind kind) {
  if (samples.empty()) return std::numeric_limits<double>::infinity();
  const std::vector<double> kept = filtered_samples(samples, kind);
  trace::count(trace::Ctr::AdclSamplesSeen, samples.size());
  trace::count(trace::Ctr::AdclSamplesFiltered, samples.size() - kept.size());
  return std::accumulate(kept.begin(), kept.end(), 0.0) /
         static_cast<double>(kept.size());
}

}  // namespace nbctune::adcl
