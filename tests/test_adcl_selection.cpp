// Selection policies and statistical filtering: driven directly with
// synthetic cost surfaces (no simulation needed), covering the brute
// force search, the attribute heuristic (including its documented failure
// mode on correlated surfaces), and the 2^k factorial design.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <vector>

#include "adcl/filtering.hpp"
#include "adcl/functionsets.hpp"
#include "adcl/guidelines.hpp"
#include "adcl/selection.hpp"

using namespace nbctune;
using namespace nbctune::adcl;

namespace {

/// A full-factorial synthetic function-set over the given attributes.
std::shared_ptr<FunctionSet> synthetic_fset(std::vector<Attribute> attrs) {
  AttributeSet aset(attrs);
  std::vector<Function> fns;
  std::vector<int> combo(attrs.size());
  std::function<void(std::size_t)> rec = [&](std::size_t a) {
    if (a == attrs.size()) {
      Function f;
      f.name = "f";
      for (int v : combo) f.name += "_" + std::to_string(v);
      f.attrs = combo;
      f.build = [](mpi::Ctx&, const OpArgs&) { return nbc::Schedule{}; };
      fns.push_back(std::move(f));
      return;
    }
    for (int v : attrs[a].values) {
      combo[a] = v;
      rec(a + 1);
    }
  };
  rec(0);
  return std::make_shared<FunctionSet>("synthetic", std::move(aset),
                                       std::move(fns));
}

struct DrivenResult {
  int winner;
  std::vector<int> visited;
};

/// Run a policy to completion against a cost oracle.
DrivenResult drive(PolicyKind kind, const FunctionSet& fset,
                   const std::function<double(const std::vector<int>&)>& cost) {
  auto policy = make_policy(kind, fset);
  DrivenResult r;
  int f = policy->first();
  while (f >= 0) {
    r.visited.push_back(f);
    f = policy->next(f, cost(fset.function(f).attrs));
  }
  r.winner = policy->winner();
  return r;
}

int oracle_best(const FunctionSet& fset,
                const std::function<double(const std::vector<int>&)>& cost) {
  int best = 0;
  for (std::size_t i = 1; i < fset.size(); ++i) {
    if (cost(fset.function(i).attrs) < cost(fset.function(best).attrs)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

// ------------------------------------------------------------ BruteForce

TEST(BruteForce, VisitsEveryFunctionOnce) {
  auto fset = synthetic_fset({{"a", {0, 1, 2}}, {"b", {0, 1}}});
  auto cost = [](const std::vector<int>& v) {
    return 1.0 + v[0] * 0.3 + v[1] * 0.1;
  };
  auto r = drive(PolicyKind::BruteForce, *fset, cost);
  EXPECT_EQ(r.visited.size(), fset->size());
  std::set<int> unique(r.visited.begin(), r.visited.end());
  EXPECT_EQ(unique.size(), fset->size());
  EXPECT_EQ(r.winner, oracle_best(*fset, cost));
}

TEST(BruteForce, SingleFunctionDecidesImmediately) {
  auto fset = synthetic_fset({{"a", {7}}});
  auto policy = make_policy(PolicyKind::BruteForce, *fset);
  EXPECT_EQ(policy->first(), -1);
  EXPECT_EQ(policy->winner(), 0);
}

TEST(BruteForce, FindsGlobalMinOnArbitrarySurface) {
  auto fset = synthetic_fset({{"a", {0, 1, 2, 3}}, {"b", {0, 1, 2}}});
  // Rugged surface with the minimum in the interior.
  auto cost = [](const std::vector<int>& v) {
    return std::abs(v[0] - 2) * 1.7 + std::abs(v[1] - 1) * 0.9 +
           ((v[0] + v[1]) % 2) * 0.05;
  };
  auto r = drive(PolicyKind::BruteForce, *fset, cost);
  EXPECT_EQ(r.winner, oracle_best(*fset, cost));
}

// --------------------------------------------------- AttributeHeuristic

TEST(AttributeHeuristic, FindsOptimumOnSeparableSurface) {
  auto fset = synthetic_fset({{"fanout", {0, 1, 2, 3, 4, 5, 99}},
                              {"segsize", {32, 64, 128}}});
  auto cost = [](const std::vector<int>& v) {
    // Separable: best at fanout 3, segsize 64, no interaction.
    return std::abs(v[0] - 3) * 0.2 + std::abs(v[1] - 64) * 0.001;
  };
  auto r = drive(PolicyKind::AttributeHeuristic, *fset, cost);
  EXPECT_EQ(r.winner, oracle_best(*fset, cost));
  // The whole point: far fewer measurements than the 21 of brute force
  // (7 values + 2 remaining of the second attribute).
  EXPECT_LE(r.visited.size(), 9u + 1u);
  EXPECT_LT(r.visited.size(), fset->size());
}

TEST(AttributeHeuristic, PrunesByAttributeValue) {
  auto fset = synthetic_fset({{"a", {0, 1}}, {"b", {0, 1}}});
  auto cost = [](const std::vector<int>& v) {
    return v[0] * 1.0 + v[1] * 0.5;
  };
  auto r = drive(PolicyKind::AttributeHeuristic, *fset, cost);
  EXPECT_EQ(fset->function(r.winner).attrs, (std::vector<int>{0, 0}));
}

TEST(AttributeHeuristic, CanMissGlobalOptimumOnCorrelatedSurface) {
  // The heuristic assumes attributes are uncorrelated (paper §III-A).
  // Construct a surface where the best value of attribute a DEPENDS on b:
  // starting from base (a=0 row) it locks a=0, missing the global optimum
  // at (1, 1).
  auto fset = synthetic_fset({{"a", {0, 1}}, {"b", {0, 1}}});
  auto cost = [](const std::vector<int>& v) {
    if (v[0] == 0 && v[1] == 0) return 1.0;
    if (v[0] == 1 && v[1] == 0) return 2.0;  // phase 1 prefers a=0
    if (v[0] == 0 && v[1] == 1) return 1.5;  // phase 2 keeps b=0
    return 0.1;                              // global optimum (1,1), unseen
  };
  auto r = drive(PolicyKind::AttributeHeuristic, *fset, cost);
  EXPECT_NE(r.winner, oracle_best(*fset, cost));
  // ... while the factorial design measures all corners and finds it.
  auto r2k = drive(PolicyKind::TwoKFactorial, *fset, cost);
  EXPECT_EQ(r2k.winner, oracle_best(*fset, cost));
}

TEST(AttributeHeuristic, NoAttributesFallsBackToBruteForce) {
  AttributeSet empty;
  std::vector<Function> fns;
  for (int i = 0; i < 4; ++i) {
    Function f;
    f.name = "f" + std::to_string(i);
    f.build = [](mpi::Ctx&, const OpArgs&) { return nbc::Schedule{}; };
    fns.push_back(std::move(f));
  }
  FunctionSet fset("plain", empty, fns);
  auto cost_of = [](int i) { return i == 2 ? 0.5 : 1.0 + i; };
  auto policy = make_policy(PolicyKind::AttributeHeuristic, fset);
  int f = policy->first();
  int seen = 0;
  while (f >= 0) {
    ++seen;
    f = policy->next(f, cost_of(f));
  }
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(policy->winner(), 2);
}

// -------------------------------------------------------- TwoKFactorial

TEST(TwoKFactorial, MeasuresCornersThenRefines) {
  auto fset = synthetic_fset({{"a", {0, 1, 2, 3}}, {"b", {10, 20, 30}}});
  auto cost = [](const std::vector<int>& v) {
    return std::abs(v[0] - 1) + std::abs(v[1] - 20) * 0.05;
  };
  auto r = drive(PolicyKind::TwoKFactorial, *fset, cost);
  EXPECT_EQ(r.winner, oracle_best(*fset, cost));
  // 4 corners + interior refinement < full 12-function sweep.
  EXPECT_LT(r.visited.size(), fset->size());
}

TEST(TwoKFactorial, MainEffectSigns) {
  auto fset = synthetic_fset({{"a", {0, 1}}, {"b", {0, 1}}});
  // Raising a strongly increases cost; raising b decreases it.
  auto cost = [](const std::vector<int>& v) {
    return 1.0 + 2.0 * v[0] - 0.5 * v[1];
  };
  auto policy = make_policy(PolicyKind::TwoKFactorial, *fset);
  int f = policy->first();
  while (f >= 0) f = policy->next(f, cost(fset->function(f).attrs));
  auto effects = factorial_main_effects(*policy);
  ASSERT_EQ(effects.size(), 2u);
  EXPECT_NEAR(effects[0], 2.0, 1e-12);
  EXPECT_NEAR(effects[1], -0.5, 1e-12);
}

TEST(TwoKFactorial, HandlesCorrelatedSurfaces) {
  auto fset = synthetic_fset({{"a", {0, 1}}, {"b", {0, 1}}, {"c", {0, 1}}});
  // XOR-flavoured interaction between a and b.
  auto cost = [](const std::vector<int>& v) {
    return (v[0] ^ v[1]) * 1.0 + v[2] * 0.25 + 0.1;
  };
  auto r = drive(PolicyKind::TwoKFactorial, *fset, cost);
  const auto& w = fset->function(r.winner).attrs;
  EXPECT_EQ(w[0] ^ w[1], 0);
  EXPECT_EQ(w[2], 0);
}

// ------------------------------------------------- GuidelinePrunedPolicy

namespace {

/// Drive the guideline-pruned policy against a cost oracle and a book.
DrivenResult drive_pruned(const FunctionSet& fset, const GuidelineBook& book,
                          const std::function<double(int)>& cost) {
  auto policy = make_policy(PolicyKind::GuidelinePruned, fset, &book);
  DrivenResult r;
  int f = policy->first();
  while (f >= 0) {
    r.visited.push_back(f);
    f = policy->next(f, cost(f));
  }
  r.winner = policy->winner();
  return r;
}

}  // namespace

TEST(GuidelinePruned, MockupBoundConvictsAfterOneMeasurement) {
  auto fset = make_ialltoall_functionset();  // linear, dissemination, pairwise
  GuidelineBook book;
  // Bound 1.0 s/iter, epsilon 0.25: any score above 1.25 is convicted.
  book.add_mockup("split:mockup", 1.0);
  auto cost = [](int f) { return f == 2 ? 0.9 : 3.0; };
  auto policy = make_policy(PolicyKind::GuidelinePruned, *fset, &book);
  DrivenResult r;
  int f = policy->first();
  while (f >= 0) {
    r.visited.push_back(f);
    f = policy->next(f, cost(f));
  }
  r.winner = policy->winner();
  EXPECT_EQ(r.winner, 2);
  // Every member is measured at most once: conviction needs no repeats.
  EXPECT_EQ(r.visited.size(), fset->size());
  // Both losers carry an audit record naming the convicting guideline.
  const auto& elims = policy->eliminations();
  ASSERT_EQ(elims.size(), 2u);
  for (const auto& e : elims) {
    EXPECT_EQ(e.guideline, "split:mockup");
    EXPECT_DOUBLE_EQ(e.bound, 1.0);
    EXPECT_EQ(e.attr, -1);  // marks a guideline prune, not an attr sweep
    ASSERT_EQ(e.pruned.size(), 1u);
    EXPECT_NE(e.pruned[0], 2);
  }
}

TEST(GuidelinePruned, PreMarkedMemberIsNeverMeasured) {
  auto fset = make_ialltoall_functionset();
  GuidelineBook book;
  book.mark_dominated("linear", "prior-report:G2");
  auto r = drive_pruned(*fset, book, [](int f) { return 1.0 + f; });
  // linear is index 0: convicted before the first measurement.
  for (int v : r.visited) EXPECT_NE(v, 0);
  EXPECT_EQ(r.winner, 1);  // dissemination is cheapest of the survivors
  auto policy = make_policy(PolicyKind::GuidelinePruned, *fset, &book);
  (void)policy->first();
  ASSERT_EQ(policy->eliminations().size(), 1u);
  EXPECT_EQ(policy->eliminations()[0].guideline, "prior-report:G2");
  EXPECT_DOUBLE_EQ(policy->eliminations()[0].bound, 0.0);  // pre-marked
}

TEST(GuidelinePruned, NeverPrunesTheLastSurvivor) {
  auto fset = make_ialltoall_functionset();
  GuidelineBook book;
  // Every member violates this bound and all are pre-marked: the policy
  // must still deliver a winner.
  book.add_mockup("impossible", 1e-12);
  for (const auto& fn : fset->functions()) {
    book.mark_dominated(fn.name, "overzealous");
  }
  auto r = drive_pruned(*fset, book, [](int) { return 1.0; });
  EXPECT_GE(r.winner, 0);
  EXPECT_LT(r.winner, static_cast<int>(fset->size()));
}

TEST(GuidelinePruned, EmptyBookDegeneratesToBruteForce) {
  auto fset = synthetic_fset({{"a", {0, 1, 2}}, {"b", {0, 1}}});
  auto cost = [](const std::vector<int>& v) {
    return 1.0 + v[0] * 0.3 + v[1] * 0.1;
  };
  GuidelineBook empty;
  auto r = drive_pruned(*fset, empty,
                        [&](int f) { return cost(fset->function(f).attrs); });
  EXPECT_EQ(r.visited.size(), fset->size());
  EXPECT_EQ(r.winner, oracle_best(*fset, cost));
  auto policy = make_policy(PolicyKind::GuidelinePruned, *fset, &empty);
  (void)policy->first();
  EXPECT_TRUE(policy->eliminations().empty());
}

TEST(GuidelinePruned, PinnedWinnerDropsConstructorPrunes) {
  // A history-pinned run (force_winner) bypasses the policy, so any
  // pre-marked convictions adopted during construction must not survive
  // into the audit (or, downstream, the trace): pinned runs are
  // byte-identical with and without a guideline book.
  auto fset = make_ialltoall_functionset();
  auto book = std::make_shared<GuidelineBook>();
  book->mark_dominated("linear", "prior-report:G2");
  TuningOptions opts;
  opts.policy = PolicyKind::GuidelinePruned;
  opts.guidelines = book;
  SelectionState sel(fset, opts);
  EXPECT_FALSE(sel.eliminations().empty());  // adopted at construction
  sel.force_winner(2);
  EXPECT_TRUE(sel.decided());
  EXPECT_EQ(sel.winner(), 2);
  EXPECT_TRUE(sel.eliminations().empty());   // dropped by the pin
}

// ------------------------------------------------- built-in set shapes

TEST(FunctionSets, PaperCardinalities) {
  EXPECT_EQ(make_ibcast_functionset()->size(), 21u);     // 7 x 3 (paper)
  EXPECT_EQ(make_ialltoall_functionset()->size(), 3u);   // paper
  EXPECT_EQ(make_ialltoall_functionset(true)->size(), 6u);
  EXPECT_EQ(make_iallgather_functionset()->size(), 3u);
  EXPECT_EQ(make_ireduce_functionset()->size(), 3u);
}

TEST(FunctionSets, BlockingVariantsAreFlagged) {
  auto fs = make_ialltoall_functionset(true);
  int blocking = 0;
  for (const auto& f : fs->functions()) blocking += f.blocking;
  EXPECT_EQ(blocking, 3);
  EXPECT_GE(fs->find_by_name("blocking-pairwise"), 0);
}

TEST(FunctionSets, AttributeLookup) {
  auto fs = make_ibcast_functionset();
  EXPECT_EQ(fs->attributes().index_of("fanout"), 0);
  EXPECT_EQ(fs->attributes().index_of("segsize"), 1);
  EXPECT_EQ(fs->attributes().index_of("nope"), -1);
  const int idx = fs->find_by_attrs({kBcastBinomialAttr, 65536});
  ASSERT_GE(idx, 0);
  EXPECT_EQ(fs->function(idx).name, "binomial/seg64k");
}

// ------------------------------------------------------------ Filtering

TEST(Filtering, QuantileInterpolates) {
  std::vector<double> s{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(s, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(s, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(s, 1.5), std::invalid_argument);
}

TEST(Filtering, IqrRemovesPlantedOutlier) {
  std::vector<double> s{1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 9.0};
  auto kept = filtered_samples(s, FilterKind::Iqr);
  EXPECT_EQ(kept.size(), 7u);
  EXPECT_LT(robust_score(s, FilterKind::Iqr), 1.1);
  EXPECT_GT(robust_score(s, FilterKind::None), 1.9);
}

TEST(Filtering, TrimmedMeanDropsTails) {
  std::vector<double> s{0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 100.0};
  EXPECT_DOUBLE_EQ(robust_score(s, FilterKind::TrimmedMean), 1.0);
}

TEST(Filtering, SmallBatchesPassThrough) {
  std::vector<double> s{1.0, 50.0};
  EXPECT_EQ(filtered_samples(s, FilterKind::Iqr).size(), 2u);
  EXPECT_TRUE(std::isinf(robust_score({}, FilterKind::Iqr)));
}

TEST(Filtering, OutlierChangesUnfilteredDecision) {
  // The scenario behind the paper's 90%-correct figure: one OS-noise
  // outlier flips the unfiltered comparison, filtering saves it.
  std::vector<double> truly_fast{1.0, 1.0, 1.01, 0.99, 1.0, 1.0, 1.0, 8.0};
  std::vector<double> truly_slow{1.2, 1.21, 1.19, 1.2, 1.2, 1.21, 1.19, 1.2};
  EXPECT_GT(robust_score(truly_fast, FilterKind::None),
            robust_score(truly_slow, FilterKind::None));  // wrong order
  EXPECT_LT(robust_score(truly_fast, FilterKind::Iqr),
            robust_score(truly_slow, FilterKind::Iqr));   // corrected
}
