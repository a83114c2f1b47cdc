#include "adcl/selection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "adcl/history.hpp"
#include "trace/trace.hpp"

namespace nbctune::adcl {

const char* policy_name(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::BruteForce:
      return "brute-force";
    case PolicyKind::AttributeHeuristic:
      return "attribute-heuristic";
    case PolicyKind::TwoKFactorial:
      return "2k-factorial";
    case PolicyKind::GuidelinePruned:
      return "guideline-pruned";
  }
  return "?";
}

const std::vector<Policy::Elimination>& Policy::eliminations() const {
  static const std::vector<Elimination> empty;
  return empty;
}

namespace {

int argmin(const std::map<int, double>& scores,
           const std::vector<int>& among) {
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (int f : among) {
    auto it = scores.find(f);
    if (it != scores.end() && it->second < best_score) {
      best = f;
      best_score = it->second;
    }
  }
  return best;
}

// -------------------------------------------------------------- BruteForce

class BruteForcePolicy final : public Policy {
 public:
  explicit BruteForcePolicy(const FunctionSet& fset) : fset_(fset) {}

  int first() override { return fset_.size() > 1 ? 0 : finish(0); }

  int next(int func, double score) override {
    scores_[func] = score;
    const int nxt = func + 1;
    if (nxt < static_cast<int>(fset_.size())) return nxt;
    return finish(-1);
  }

  [[nodiscard]] int winner() const override { return winner_; }

 private:
  int finish(int immediate) {
    if (immediate == 0 && fset_.size() <= 1) {
      winner_ = fset_.size() == 1 ? 0 : -1;
      return -1;
    }
    std::vector<int> all(fset_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    winner_ = argmin(scores_, all);
    return -1;
  }

  const FunctionSet& fset_;
  std::map<int, double> scores_;
  int winner_ = -1;
};

// ----------------------------------------------------- AttributeHeuristic

// Optimize one attribute at a time (paper §III-A, [13]): determine the
// best value of attribute a with the other attributes held at the current
// base, fix it, prune all functions with a different value, move on.
class AttributeHeuristicPolicy final : public Policy {
 public:
  explicit AttributeHeuristicPolicy(const FunctionSet& fset) : fset_(fset) {
    for (std::size_t i = 0; i < fset_.size(); ++i) {
      candidates_.push_back(static_cast<int>(i));
    }
  }

  int first() override {
    if (fset_.size() <= 1) {
      winner_ = fset_.size() == 1 ? 0 : -1;
      return -1;
    }
    if (fset_.attributes().empty()) {
      // No attribute description: degenerate to brute force.
      brute_ = std::make_unique<BruteForcePolicy>(fset_);
      return brute_->first();
    }
    base_ = fset_.function(0).attrs;
    begin_phase(0);
    return advance();
  }

  int next(int func, double score) override {
    if (brute_) {
      const int r = brute_->next(func, score);
      if (r < 0) winner_ = brute_->winner();
      return r;
    }
    scores_[func] = score;
    ++phase_pos_;
    return advance();
  }

  [[nodiscard]] int winner() const override { return winner_; }

  [[nodiscard]] const std::vector<Elimination>& eliminations()
      const override {
    return eliminations_;
  }

 private:
  // Functions matching `base_` except value v at attribute `a`.
  int variant(std::size_t a, int v) const {
    std::vector<int> attrs = base_;
    attrs[a] = v;
    const int idx = fset_.find_by_attrs(attrs);
    if (idx < 0) return -1;
    if (std::find(candidates_.begin(), candidates_.end(), idx) ==
        candidates_.end()) {
      return -1;
    }
    return idx;
  }

  void begin_phase(std::size_t a) {
    attr_ = a;
    phase_list_.clear();
    phase_pos_ = 0;
    for (int v : fset_.attributes().at(a).values) {
      const int idx = variant(a, v);
      if (idx >= 0) phase_list_.push_back(idx);
    }
  }

  int advance() {
    for (;;) {
      // Measure the next unmeasured function of this phase.
      while (phase_pos_ < phase_list_.size()) {
        const int f = phase_list_[phase_pos_];
        if (!scores_.contains(f)) return f;
        ++phase_pos_;  // score known from an earlier phase: reuse it
      }
      // Phase complete: fix the attribute at its best value and prune.
      const int best = argmin(scores_, phase_list_);
      if (best >= 0) {
        base_ = fset_.function(best).attrs;
        const int v = base_[attr_];
        Elimination elim;
        elim.attr = static_cast<int>(attr_);
        elim.value = v;
        elim.kept = best;
        std::erase_if(candidates_, [&](int c) {
          if (fset_.function(c).attrs[attr_] != v) {
            elim.pruned.push_back(c);
            return true;
          }
          return false;
        });
        if (!elim.pruned.empty()) eliminations_.push_back(std::move(elim));
      }
      if (attr_ + 1 >= fset_.attributes().size()) {
        winner_ = argmin(scores_, candidates_);
        if (winner_ < 0) winner_ = best;
        return -1;
      }
      begin_phase(attr_ + 1);
    }
  }

  const FunctionSet& fset_;
  std::unique_ptr<BruteForcePolicy> brute_;
  std::vector<int> candidates_;
  std::vector<int> base_;
  std::size_t attr_ = 0;
  std::vector<int> phase_list_;
  std::size_t phase_pos_ = 0;
  std::map<int, double> scores_;
  int winner_ = -1;
  std::vector<Elimination> eliminations_;
};

// --------------------------------------------------------- TwoKFactorial

// 2^k factorial screening (paper §III-A, [4]): measure the extreme-value
// corners of the attribute space, estimate per-attribute main effects,
// take the best corner, then refine interior values one attribute at a
// time.  Unlike the heuristic, every corner combination is observed, so
// correlated attributes are handled.
class TwoKFactorialPolicy final : public Policy {
 public:
  explicit TwoKFactorialPolicy(const FunctionSet& fset) : fset_(fset) {}

  int first() override {
    if (fset_.size() <= 1) {
      winner_ = fset_.size() == 1 ? 0 : -1;
      return -1;
    }
    if (fset_.attributes().empty()) {
      brute_ = std::make_unique<BruteForcePolicy>(fset_);
      return brute_->first();
    }
    build_corners();
    return advance();
  }

  int next(int func, double score) override {
    if (brute_) {
      const int r = brute_->next(func, score);
      if (r < 0) winner_ = brute_->winner();
      return r;
    }
    scores_[func] = score;
    ++pos_;
    return advance();
  }

  [[nodiscard]] int winner() const override { return winner_; }

  /// Main effect per attribute: mean(hi corners) - mean(lo corners).
  [[nodiscard]] std::vector<double> main_effects() const {
    const auto& attrs = fset_.attributes();
    std::vector<double> effects(attrs.size(), 0.0);
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      const int lo = attrs.at(a).values.front();
      const int hi = attrs.at(a).values.back();
      if (lo == hi) continue;
      double lo_sum = 0, hi_sum = 0;
      int lo_n = 0, hi_n = 0;
      for (int f : corners_) {
        auto it = scores_.find(f);
        if (it == scores_.end()) continue;
        const int v = fset_.function(f).attrs[a];
        if (v == lo) {
          lo_sum += it->second;
          ++lo_n;
        } else if (v == hi) {
          hi_sum += it->second;
          ++hi_n;
        }
      }
      if (lo_n > 0 && hi_n > 0) effects[a] = hi_sum / hi_n - lo_sum / lo_n;
    }
    return effects;
  }

 private:
  void build_corners() {
    const auto& attrs = fset_.attributes();
    std::vector<std::vector<int>> levels;
    for (const auto& a : attrs.all()) {
      std::vector<int> l{a.values.front()};
      if (a.values.back() != a.values.front()) l.push_back(a.values.back());
      levels.push_back(std::move(l));
    }
    std::vector<int> combo(attrs.size());
    std::set<int> seen;
    enumerate(levels, 0, combo, seen);
    list_ = corners_;
    pos_ = 0;
    refining_ = false;
  }

  void enumerate(const std::vector<std::vector<int>>& levels, std::size_t a,
                 std::vector<int>& combo, std::set<int>& seen) {
    if (a == levels.size()) {
      const int idx = fset_.find_by_attrs(combo);
      if (idx >= 0 && seen.insert(idx).second) corners_.push_back(idx);
      return;
    }
    for (int v : levels[a]) {
      combo[a] = v;
      enumerate(levels, a + 1, combo, seen);
    }
  }

  void begin_refine(std::size_t a) {
    attr_ = a;
    list_.clear();
    pos_ = 0;
    const auto& values = fset_.attributes().at(a).values;
    for (int v : values) {
      std::vector<int> attrs = base_;
      attrs[a] = v;
      const int idx = fset_.find_by_attrs(attrs);
      if (idx >= 0) list_.push_back(idx);
    }
  }

  int advance() {
    for (;;) {
      while (pos_ < list_.size()) {
        const int f = list_[pos_];
        if (!scores_.contains(f)) return f;
        ++pos_;
      }
      if (!refining_) {
        const int best = argmin(scores_, corners_);
        base_ = best >= 0 ? fset_.function(best).attrs
                          : fset_.function(0).attrs;
        refining_ = true;
        begin_refine(0);
        continue;
      }
      const int best = argmin(scores_, list_);
      if (best >= 0) base_ = fset_.function(best).attrs;
      if (attr_ + 1 >= fset_.attributes().size()) {
        std::vector<int> measured;
        for (const auto& [f, s] : scores_) measured.push_back(f);
        winner_ = argmin(scores_, measured);
        return -1;
      }
      begin_refine(attr_ + 1);
    }
  }

  const FunctionSet& fset_;
  std::unique_ptr<BruteForcePolicy> brute_;
  std::vector<int> corners_;
  std::vector<int> list_;
  std::size_t pos_ = 0;
  bool refining_ = false;
  std::size_t attr_ = 0;
  std::vector<int> base_;
  std::map<int, double> scores_;
  int winner_ = -1;
};

// -------------------------------------------------------- GuidelinePruned

// Brute force over the survivors of guideline verdicts (Hunold: mock-up
// checks convict implementations before they are ever timed).  Members a
// prior analysis pass marked dominated are pruned in first(); members
// whose agreed score exceeds a measured mock-up bound are pruned in
// next().  At least one candidate always survives, and every prune
// leaves an audit Elimination naming the convicting guideline.
class GuidelinePrunedPolicy final : public Policy {
 public:
  GuidelinePrunedPolicy(const FunctionSet& fset, const GuidelineBook* book)
      : fset_(fset), book_(book) {
    for (std::size_t i = 0; i < fset_.size(); ++i) {
      candidates_.push_back(static_cast<int>(i));
    }
  }

  int first() override {
    if (book_ != nullptr) {
      for (int c : std::vector<int>(candidates_)) {
        if (candidates_.size() <= 1) break;
        const DominatedMark* m =
            book_->find_dominated(fset_.function(c).name);
        if (m == nullptr) continue;
        Elimination e;
        e.guideline = m->guideline;
        e.pruned.push_back(c);
        eliminations_.push_back(std::move(e));
        std::erase(candidates_, c);
      }
    }
    if (candidates_.size() == 1) {
      winner_ = candidates_.front();
      return -1;
    }
    return next_unmeasured();
  }

  int next(int func, double score) override {
    scores_[func] = score;
    if (book_ != nullptr && candidates_.size() > 1) {
      if (const MockupBound* b = book_->violated_by(score)) {
        Elimination e;
        e.guideline = b->guideline;
        e.bound = b->bound;
        e.pruned.push_back(func);
        eliminations_.push_back(std::move(e));
        std::erase(candidates_, func);
      }
    }
    const int nxt = next_unmeasured();
    if (nxt >= 0) return nxt;
    winner_ = argmin(scores_, candidates_);
    if (winner_ < 0) winner_ = candidates_.front();
    return -1;
  }

  [[nodiscard]] int winner() const override { return winner_; }

  [[nodiscard]] const std::vector<Elimination>& eliminations()
      const override {
    return eliminations_;
  }

 private:
  int next_unmeasured() const {
    for (int c : candidates_) {
      if (!scores_.contains(c)) return c;
    }
    return -1;
  }

  const FunctionSet& fset_;
  const GuidelineBook* book_;
  std::vector<int> candidates_;
  std::map<int, double> scores_;
  int winner_ = -1;
  std::vector<Elimination> eliminations_;
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind, const FunctionSet& fset,
                                    const GuidelineBook* book) {
  switch (kind) {
    case PolicyKind::BruteForce:
      return std::make_unique<BruteForcePolicy>(fset);
    case PolicyKind::AttributeHeuristic:
      return std::make_unique<AttributeHeuristicPolicy>(fset);
    case PolicyKind::TwoKFactorial:
      return std::make_unique<TwoKFactorialPolicy>(fset);
    case PolicyKind::GuidelinePruned:
      return std::make_unique<GuidelinePrunedPolicy>(
          fset, book != nullptr && !book->empty() ? book : nullptr);
  }
  throw std::invalid_argument("unknown policy");
}

std::unique_ptr<Policy> make_policy(PolicyKind kind, const FunctionSet& fset) {
  return make_policy(kind, fset, nullptr);
}

std::vector<double> factorial_main_effects(const Policy& policy) {
  const auto* p = dynamic_cast<const TwoKFactorialPolicy*>(&policy);
  if (p == nullptr) return {};
  return p->main_effects();
}

// --------------------------------------------------------- SelectionState

SelectionState::SelectionState(std::shared_ptr<const FunctionSet> fset,
                               TuningOptions opts)
    : fset_(std::move(fset)), opts_(opts) {
  if (!fset_ || fset_->size() == 0) {
    throw std::invalid_argument("SelectionState: empty function set");
  }
  if (opts_.tests_per_function < 1) {
    throw std::invalid_argument("SelectionState: tests_per_function < 1");
  }
  policy_ = make_policy(opts_.policy, *fset_, opts_.guidelines.get());
  const int f = policy_->first();
  // first() may already prune (pre-marked guideline verdicts); adopt the
  // audit records now, trace them at the first record() call (no Ctx yet).
  adopt_policy_eliminations();
  if (f < 0) {
    decided_ = true;
    winner_ = policy_->winner() < 0 ? 0 : policy_->winner();
    current_ = winner_;
    decision_iteration_ = 0;
  } else {
    current_ = f;
  }
}

void SelectionState::force_winner(int func) {
  if (func < 0 || func >= static_cast<int>(fset_->size())) {
    throw std::invalid_argument("force_winner: bad function index");
  }
  decided_ = true;
  winner_ = func;
  current_ = func;
  decision_iteration_ = iterations_;
  // A pinned run bypasses the policy entirely: drop any constructor-time
  // prunes so they never reach the trace (pinned goldens stay identical
  // with or without a guideline book).
  eliminations_.clear();
  traced_elims_ = 0;
}

void SelectionState::adopt_policy_eliminations() {
  const auto& elims = policy_->eliminations();
  for (std::size_t i = policy_elims_seen_; i < elims.size(); ++i) {
    Policy::Elimination e = elims[i];
    e.iteration = iterations_;
    eliminations_.push_back(std::move(e));
  }
  policy_elims_seen_ = elims.size();
}

void SelectionState::emit_elimination_events(mpi::Ctx& ctx) {
  for (; traced_elims_ < eliminations_.size(); ++traced_elims_) {
    const Policy::Elimination& e = eliminations_[traced_elims_];
    const auto iter = static_cast<std::uint64_t>(e.iteration);
    if (e.attr >= 0) {
      trace::count(trace::Ctr::AdclEliminations);
      if (trace::active()) {
        trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclEliminate,
                       static_cast<std::uint64_t>(e.attr),
                       static_cast<std::uint64_t>(e.value), iter);
        for (int f : e.pruned) {
          trace::instant(ctx.now(), ctx.world_rank(),
                         trace::Kind::AdclEliminateFunc,
                         static_cast<std::uint64_t>(f),
                         static_cast<std::uint64_t>(e.kept), iter);
        }
      }
    } else {
      // Guideline prune: one convicted function per record; bound_ns 0
      // means a pre-marked (analyzer-verdict) conviction.
      trace::count(trace::Ctr::AdclGuidelinePrunes);
      if (trace::active()) {
        for (int f : e.pruned) {
          trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclPrune,
                         static_cast<std::uint64_t>(f),
                         static_cast<std::uint64_t>(
                             std::llround(e.bound * 1e9)),
                         iter);
        }
      }
    }
  }
}

void SelectionState::record(mpi::Ctx& ctx, const mpi::Comm& comm,
                            double sample) {
  ++iterations_;
  emit_elimination_events(ctx);
  if (decided_) {
    maybe_drift(ctx, comm, sample);
    return;
  }
  batch_.push_back(sample);
  if (static_cast<int>(batch_.size()) < opts_.tests_per_function) return;
  // Batch complete: agree on this function's score across the ranks (the
  // operation is only as fast as its slowest participant) and advance.
  const double local = robust_score(batch_, opts_.filter, opts_.trim_frac);
  const double agreed = ctx.allreduce(comm, local, mpi::ReduceOp::Max);
  batch_.clear();
  scores_[current_] = agreed;
  measurements_.push_back({current_, agreed, iterations_});
  trace::count(trace::Ctr::AdclBatchesScored);
  if (trace::active()) {
    // score_ns: integral nanoseconds so exported traces audit bit-exactly
    // across platforms; corr carries the tuning iteration, linking scores
    // to the adcl.decision event of the same selection run.
    trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclScore,
                   static_cast<std::uint64_t>(current_),
                   static_cast<std::uint64_t>(std::llround(agreed * 1e9)),
                   static_cast<std::uint64_t>(iterations_));
  }
  const int nxt = policy_->next(current_, agreed);
  adopt_policy_eliminations();
  emit_elimination_events(ctx);
  if (nxt < 0) {
    finalize(ctx);
  } else {
    current_ = nxt;
  }
}

void SelectionState::maybe_drift(mpi::Ctx& ctx, const mpi::Comm& comm,
                                 double sample) {
  if (opts_.drift_window <= 0) return;
  drift_batch_.push_back(sample);
  if (static_cast<int>(drift_batch_.size()) < opts_.drift_window) return;
  const double local =
      robust_score(drift_batch_, opts_.filter, opts_.trim_frac);
  const double agreed = ctx.allreduce(comm, local, mpi::ReduceOp::Max);
  drift_batch_.clear();
  if (std::isnan(baseline_score_)) {
    // No decision-time score on record (e.g. forced winner from history):
    // adopt the first post-decision window as the baseline.
    baseline_score_ = agreed;
    return;
  }
  if (agreed <= baseline_score_ * (1.0 + opts_.drift_tolerance)) return;
  // The operation has drifted away from its decision-time performance
  // (paper §V: network conditions change; the chosen implementation is no
  // longer best).  Re-open tuning with a fresh policy.  The check score is
  // rank-agreed, so every rank re-opens at the same iteration.
  ++retunes_;
  retune_iterations_.push_back(iterations_);
  trace::count(trace::Ctr::AdclRetunes);
  if (trace::active()) {
    trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclRetuneDrift,
                   static_cast<std::uint64_t>(std::llround(agreed * 1e9)),
                   static_cast<std::uint64_t>(
                       std::llround(baseline_score_ * 1e9)),
                   static_cast<std::uint64_t>(iterations_));
  }
  decided_ = false;
  winner_ = -1;
  decision_iteration_ = -1;
  decision_time_ = std::numeric_limits<double>::quiet_NaN();
  baseline_score_ = std::numeric_limits<double>::quiet_NaN();
  scores_.clear();
  batch_.clear();
  policy_ = make_policy(opts_.policy, *fset_, opts_.guidelines.get());
  policy_elims_seen_ = 0;
  const int f = policy_->first();
  // A fresh guideline-pruned policy re-applies pre-marked verdicts:
  // convicted members stay out across drift re-tunes (audited again at
  // the current iteration).
  adopt_policy_eliminations();
  emit_elimination_events(ctx);
  if (f < 0) {
    finalize(ctx);
  } else {
    current_ = f;
  }
}

void SelectionState::reset_for_shrink(mpi::Ctx& ctx, int resume_iteration) {
  // Same reset as a drift re-tune, plus the iteration rollback: ranks
  // interrupted ahead of the failure had recorded samples the others
  // never saw, and redoing from the agreed iteration realigns them.
  ++retunes_;
  retune_iterations_.push_back(resume_iteration);
  trace::count(trace::Ctr::AdclRetunes);
  if (trace::active()) {
    trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclRetuneShrink,
                   1, static_cast<std::uint64_t>(resume_iteration),
                   static_cast<std::uint64_t>(resume_iteration));
  }
  decided_ = false;
  winner_ = -1;
  iterations_ = resume_iteration;
  decision_iteration_ = -1;
  decision_time_ = std::numeric_limits<double>::quiet_NaN();
  baseline_score_ = std::numeric_limits<double>::quiet_NaN();
  scores_.clear();
  batch_.clear();
  drift_batch_.clear();
  policy_ = make_policy(opts_.policy, *fset_, opts_.guidelines.get());
  policy_elims_seen_ = 0;
  const int f = policy_->first();
  adopt_policy_eliminations();
  emit_elimination_events(ctx);
  if (f < 0) {
    finalize(ctx);
  } else {
    current_ = f;
  }
}

void SelectionState::finalize(mpi::Ctx& ctx) {
  decided_ = true;
  winner_ = policy_->winner();
  if (winner_ < 0) winner_ = 0;
  current_ = winner_;
  decision_iteration_ = iterations_;
  decision_time_ = ctx.now();
  // Drift baseline: the winner's decision-time score.  NaN (no measured
  // score, e.g. single-function sets) makes the first post-decision
  // window adopt itself as the baseline.
  baseline_score_ = scores_.contains(winner_)
                        ? scores_.at(winner_)
                        : std::numeric_limits<double>::quiet_NaN();
  drift_batch_.clear();
  trace::count(trace::Ctr::AdclDecisions);
  if (trace::active()) {
    trace::instant(ctx.now(), ctx.world_rank(), trace::Kind::AdclDecision,
                   static_cast<std::uint64_t>(winner_),
                   static_cast<std::uint64_t>(decision_iteration_),
                   static_cast<std::uint64_t>(decision_iteration_));
  }
  if (opts_.history != nullptr && !history_key_.empty()) {
    opts_.history->put(history_key_, fset_->function(winner_).name);
  }
}

}  // namespace nbctune::adcl
