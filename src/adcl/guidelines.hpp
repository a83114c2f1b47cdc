#pragma once

// Guideline verdicts fed back into the tuner (Hunold: performance
// guidelines are actionable tuning signals, not just post-hoc checks).
// A GuidelineBook collects two kinds of verdict:
//
//   * mock-up bounds: a named alternative implementation of the same
//     operation was measured (e.g. the pattern-split mock-up "run the
//     op twice at half the size", or Ibcast via Iscatter + Iallgather),
//     so no candidate may score worse than that bound (plus a noise
//     tolerance) and still be worth keeping;
//   * dominated marks: a prior analysis pass (nbctune-analyze guideline
//     checks over an earlier report) already convicted a member by name,
//     so the next tuning round skips it outright.
//
// The book is consumed by PolicyKind::GuidelinePruned (selection.hpp):
// pre-marked members are pruned before the first measurement, bound
// violators between batches, and every prune leaves an iteration-stamped
// audit record (Policy::Elimination with the guideline name) plus an
// "adcl.prune" trace event.

#include <string>
#include <vector>

namespace nbctune::adcl {

/// One measured mock-up bound, in score units (seconds per iteration).
struct MockupBound {
  std::string guideline;  ///< verdict name, e.g. "split:pairwise@32768Bx2"
  double bound = 0.0;     ///< the mock-up's measured time
  double epsilon = 0.25;  ///< tolerated relative excess over the bound
  /// A score above this limit convicts the candidate.
  [[nodiscard]] double limit() const noexcept {
    return bound * (1.0 + epsilon);
  }
};

/// A function-set member convicted by name before tuning starts.
struct DominatedMark {
  std::string function;   ///< FunctionSet member name
  std::string guideline;  ///< verdict that convicted it
};

/// The verdicts one tuning run consumes.  Immutable while tuning (shared
/// by reference from TuningOptions); populate fully before the run.
class GuidelineBook {
 public:
  void add_mockup(std::string guideline, double bound_seconds,
                  double epsilon = 0.25) {
    mockups_.push_back({std::move(guideline), bound_seconds, epsilon});
  }
  void mark_dominated(std::string function, std::string guideline) {
    dominated_.push_back({std::move(function), std::move(guideline)});
  }

  [[nodiscard]] const std::vector<DominatedMark>& dominated() const noexcept {
    return dominated_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return mockups_.empty() && dominated_.empty();
  }

  /// The mark convicting `function`, or nullptr.
  [[nodiscard]] const DominatedMark* find_dominated(
      const std::string& function) const noexcept;

  /// The tightest mock-up bound `score` violates, or nullptr.
  [[nodiscard]] const MockupBound* violated_by(double score) const noexcept;

 private:
  std::vector<MockupBound> mockups_;
  std::vector<DominatedMark> dominated_;
};

}  // namespace nbctune::adcl
