#pragma once

// Regression gating over report JSONs (--regress mode).
//
// The byte-diff gates that guarded the report goldens through PR5 were
// exact but brittle: any intentional change anywhere in a report forced a
// golden regeneration, and an unintentional drift of 1 ns failed CI with
// no indication of whether it mattered.  This module replaces them with a
// semantic diff: two reports (an old golden and a freshly generated one)
// are reduced to per-scenario digests — blame shares, overlap, median op
// time with its nonparametric CI, ADCL winner, guideline verdicts — and
// compared under explicit tolerances.  A drift beyond tolerance is a
// regression; formatting churn and sub-tolerance jitter are not.
//
// Tolerances come from `RegressTolerances`, settable via key=value pairs
// (CLI `--tolerance`) or a config file of `key value` lines
// (`--tolerance-config`, see bench/golden/regress_tolerances.txt):
//
//   blame_share   max absolute drift of any blame share (fraction, 0..1)
//   op_rel        max relative drift of the mean op time unless the
//                 median CIs overlap (see ci_separation)
//   overlap       max absolute drift of the mean overlap ratio
//   ci_separation 1 = an op-time drift only fails when the two ~95%
//                 CIs are disjoint (rel drift alone is not enough);
//                 0 = fail on relative drift alone
//
// Scenarios pair by label and occurrence: the k-th scenario with a label
// in the old report against the k-th one with that label in the new
// report, so repetitions that share a label each get their own partner.
//
// Structural changes are always violations regardless of tolerance: a
// scenario missing from / added to the new report, an ADCL winner flip,
// a guideline that regressed from pass to fail, vanished entirely, or
// lost all checked pairs.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace nbctune::analyze {

/// One scenario reduced to the quantities the gate compares.
struct ScenarioDigest {
  std::string label;
  std::map<std::string, double> blame_share;  ///< category -> share of total
  double mean_overlap = 0.0;          ///< mean overlap ratio across ops
  std::uint64_t ops = 0;
  double mean_op = 0.0;               ///< mean op elapsed, seconds
  // Median statistics (schema v2; n == 0 when absent, e.g. v1 reports).
  std::uint64_t stat_n = 0;
  double median_op = 0.0;             ///< seconds
  double ci_lo = 0.0;                 ///< seconds
  double ci_hi = 0.0;                 ///< seconds
  bool min_reps_met = false;
  bool has_adcl = false;
  int adcl_winner = -1;
  std::uint64_t adcl_eliminations = 0;
  std::uint64_t adcl_prunes = 0;
};

/// One guideline verdict from the report's "guidelines" array.
struct GuidelineDigest {
  std::string id;
  std::uint64_t checked = 0;
  std::uint64_t passed = 0;      ///< pairs that passed, not a bool
  std::uint64_t violations = 0;
  [[nodiscard]] bool failing() const { return violations > 0; }
};

/// A whole report, digested.
struct ReportDigest {
  std::string schema;
  std::vector<ScenarioDigest> scenarios;
  std::vector<GuidelineDigest> guidelines;
};

/// Parse a report JSON (schema "nbctune-report-v1" or -v2) into a digest.
/// Throws std::runtime_error on malformed input (naming the byte, or the
/// scenario or guideline by array index) or a wrong schema family.
[[nodiscard]] ReportDigest read_report_json(std::istream& is);

struct RegressTolerances {
  double blame_share = 0.10;
  double op_rel = 0.25;
  double overlap = 0.10;
  bool ci_separation = true;

  /// Apply one "key=value"-style setting; returns false on an unknown
  /// key or a value that is not a finite number >= 0.
  bool set(const std::string& key, const std::string& value);
};

/// Read `key value` lines (blank lines and #-comments skipped) into
/// `tol`. Throws std::runtime_error on an unknown key or bad value.
void read_tolerances(std::istream& is, RegressTolerances& tol);

struct RegressViolation {
  std::string scenario;  ///< empty for report-level (guideline) findings
  std::string what;
};

struct RegressResult {
  std::vector<RegressViolation> violations;
  std::uint64_t scenarios_compared = 0;
  std::uint64_t guidelines_compared = 0;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Compare `nu` against the baseline `old`.
[[nodiscard]] RegressResult regress(const ReportDigest& old_r,
                                    const ReportDigest& new_r,
                                    const RegressTolerances& tol);

/// Human-readable summary of a regress run (one line per violation).
void write_regress(std::ostream& os, const RegressResult& r,
                   const RegressTolerances& tol);

}  // namespace nbctune::analyze
