#pragma once

// Runtime selection logic (paper §III-A): during the first iterations the
// library cycles through candidate implementations, measuring each a fixed
// number of times; a policy then picks the winner used for the rest of the
// run.  Three policies are provided, mirroring ADCL:
//
//   BruteForce          measure every function; guaranteed to find the best
//   AttributeHeuristic  optimize one attribute at a time, pruning functions
//                       with non-optimal values ([13]; assumes attributes
//                       are not correlated)
//   TwoKFactorial       2^k factorial screening over attribute extremes,
//                       then coordinate refinement (handles correlated
//                       attributes; [4])
//   GuidelinePruned     brute force over the survivors of guideline
//                       verdicts (guidelines.hpp): members convicted by a
//                       prior analysis pass are skipped outright, and any
//                       candidate scoring above a measured mock-up bound
//                       is dropped mid-search (Hunold: guideline verdicts
//                       as tuning signals)
//
// Policies are deterministic state machines over (function, score) pairs;
// scores are robust-filtered, rank-agreed execution times.

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adcl/filtering.hpp"
#include "adcl/function.hpp"
#include "adcl/guidelines.hpp"

namespace nbctune::adcl {

class HistoryStore;

enum class PolicyKind {
  BruteForce,
  AttributeHeuristic,
  TwoKFactorial,
  GuidelinePruned,
};

[[nodiscard]] const char* policy_name(PolicyKind k) noexcept;

/// Knobs of the tuning process.
struct TuningOptions {
  PolicyKind policy = PolicyKind::BruteForce;
  /// Measurements per candidate implementation before scoring it.
  int tests_per_function = 8;
  FilterKind filter = FilterKind::Iqr;
  /// Optional historic-learning store: reuse past winners, record new ones.
  HistoryStore* history = nullptr;
  /// NBC cancel-on-timeout recovery (0 = off); wired into nbc::Handle by
  /// adcl::Request under lossy fault plans.
  double op_timeout = 0.0;
  int max_attempts = 10;
  /// Drift detection: number of post-decision samples per check window
  /// (0 = off).  When the agreed window score exceeds the decision-time
  /// baseline by more than `drift_tolerance` (relative), tuning re-opens.
  int drift_window = 0;
  double drift_tolerance = 0.5;
  /// Guideline verdicts for PolicyKind::GuidelinePruned (ignored by the
  /// other policies).  Shared so drift re-tunes re-apply the same
  /// verdicts: a convicted member stays pruned across policy resets.
  std::shared_ptr<const GuidelineBook> guidelines;
};

/// A selection policy: a deterministic walk over functions to measure.
class Policy {
 public:
  /// One pruning step of an eliminating policy.  Attribute-heuristic
  /// sweeps set `attr`/`value`/`kept` (an attribute was fixed and every
  /// candidate with a different value removed); guideline prunes leave
  /// `attr` at -1 and set `guideline` (and `bound` for mock-up verdicts)
  /// instead.  Either way the record is the audit counterpart of the
  /// brute-force score history.
  struct Elimination {
    int attr = -1;      ///< attribute index whose sweep closed (-1: guideline)
    int value = 0;      ///< value the attribute was fixed at
    int kept = -1;      ///< best function of the closing phase
    int iteration = 0;  ///< tuning iteration (stamped by SelectionState)
    std::vector<int> pruned;  ///< functions removed from the candidate set
    std::string guideline;    ///< convicting verdict (guideline prunes only)
    double bound = 0.0;  ///< violated mock-up bound, seconds (0: pre-marked)
  };

  virtual ~Policy() = default;
  /// First function to measure; -1 if the decision is immediate.
  virtual int first() = 0;
  /// Batch for `func` finished with robust `score`; returns the next
  /// function to measure or -1 when ready to decide.
  virtual int next(int func, double score) = 0;
  /// The winning function (valid after next() returned -1).
  [[nodiscard]] virtual int winner() const = 0;
  /// Pruning steps taken so far (empty for non-eliminating policies).
  [[nodiscard]] virtual const std::vector<Elimination>& eliminations() const;
};

/// `book` feeds PolicyKind::GuidelinePruned (nullptr or empty degrades it
/// to plain brute force); the other kinds ignore it.
std::unique_ptr<Policy> make_policy(PolicyKind kind, const FunctionSet& fset,
                                    const GuidelineBook* book);

std::unique_ptr<Policy> make_policy(PolicyKind kind, const FunctionSet& fset);

/// Estimated main effect of each attribute from a 2^k factorial run
/// (positive = raising the attribute from lo to hi increases time).
/// Only meaningful for TwoKFactorial policies; exposed for reporting.
std::vector<double> factorial_main_effects(const Policy& policy);

/// The tuning state of one operation: tracks per-function samples, drives
/// the policy, and synchronizes decisions across ranks.  Shareable by
/// several Requests of the same operation (co-tuned, e.g. the window
/// slots of the FFT kernel).
class SelectionState {
 public:
  SelectionState(std::shared_ptr<const FunctionSet> fset, TuningOptions opts);

  /// The function to execute in the current iteration.
  [[nodiscard]] int current() const noexcept { return current_; }
  [[nodiscard]] bool decided() const noexcept { return decided_; }
  [[nodiscard]] int winner() const noexcept { return winner_; }

  /// Record one measured iteration.  When the batch for the current
  /// function completes, agrees on the score across `comm` (allreduce max)
  /// and advances the policy; may finalize the decision.
  void record(mpi::Ctx& ctx, const mpi::Comm& comm, double sample);

  /// Historic learning / testing: skip the learning phase entirely.
  void force_winner(int func);

  /// Fail-stop recovery: a communicator shrink is a group-size change, so
  /// the decision (and every agreed score) is stale.  Re-opens tuning
  /// with a fresh policy — like a drift re-tune — and rolls the iteration
  /// counter back to `resume_iteration`, the globally agreed iteration
  /// survivors redo from, so per-rank sample counts realign.
  void reset_for_shrink(mpi::Ctx& ctx, int resume_iteration);

  // ---- introspection ----
  [[nodiscard]] const FunctionSet& function_set() const noexcept {
    return *fset_;
  }
  [[nodiscard]] std::shared_ptr<const FunctionSet> fset_ptr() const noexcept {
    return fset_;
  }
  [[nodiscard]] const TuningOptions& options() const noexcept { return opts_; }
  [[nodiscard]] int iterations() const noexcept { return iterations_; }
  /// Iteration at which the decision fell (-1 while undecided).
  [[nodiscard]] int decision_iteration() const noexcept {
    return decision_iteration_;
  }
  /// Simulated time at which the decision fell (NaN while undecided).
  [[nodiscard]] double decision_time() const noexcept {
    return decision_time_;
  }
  /// Agreed scores of all measured functions.
  [[nodiscard]] const std::map<int, double>& scores() const noexcept {
    return scores_;
  }
  /// One agreed (rank-synchronized) batch score, in policy order.
  struct Measurement {
    int func = -1;        ///< function-set index scored
    double score = 0.0;   ///< robust, allreduce-max agreed seconds
    int iteration = 0;    ///< tuning iteration at which the batch closed
  };
  /// Chronological log of every agreed score — the audit trail a
  /// decision-analysis pass replays (same data as the adcl.score trace
  /// events, without requiring tracing to be on).
  [[nodiscard]] const std::vector<Measurement>& measurements()
      const noexcept {
    return measurements_;
  }
  /// Key under which the decision is recorded in the history store.
  void set_history_key(std::string key) { history_key_ = std::move(key); }

  /// Pruning audit of eliminating policies, iteration-stamped (empty for
  /// brute force / factorial); survives drift-triggered policy resets.
  [[nodiscard]] const std::vector<Policy::Elimination>& eliminations()
      const noexcept {
    return eliminations_;
  }
  /// Times drift detection or a shrink re-opened tuning.
  [[nodiscard]] int retunes() const noexcept { return retunes_; }

 private:
  void finalize(mpi::Ctx& ctx);
  /// Post-decision sample monitoring; may re-open tuning (drift).
  void maybe_drift(mpi::Ctx& ctx, const mpi::Comm& comm, double sample);
  /// Re-open tuning with a fresh policy (a drift re-tune or a shrink):
  /// every decision and agreed score is dropped.
  void reopen(mpi::Ctx& ctx);
  /// Copy eliminations the policy produced since the last call into
  /// `eliminations_`, stamped with the current iteration.  Covers prunes
  /// from Policy::first() (pre-tuning verdicts) as well as from next().
  void adopt_policy_eliminations();
  /// Emit trace events + counters for adopted eliminations not yet
  /// traced.  Deferred separately from adoption because the constructor
  /// (where first() may already prune) has no Ctx to trace against.
  void emit_elimination_events(mpi::Ctx& ctx);

  std::shared_ptr<const FunctionSet> fset_;
  TuningOptions opts_;
  std::unique_ptr<Policy> policy_;
  int current_ = 0;
  bool decided_ = false;
  int winner_ = -1;
  int iterations_ = 0;
  int decision_iteration_ = -1;
  double decision_time_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> batch_;
  std::map<int, double> scores_;
  std::vector<Measurement> measurements_;
  std::string history_key_;
  std::vector<Policy::Elimination> eliminations_;
  std::size_t policy_elims_seen_ = 0;  ///< adopted from the current policy
  std::size_t traced_elims_ = 0;       ///< emitted as trace events
  int retunes_ = 0;
  double baseline_score_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> drift_batch_;
};

}  // namespace nbctune::adcl
