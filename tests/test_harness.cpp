// Micro-benchmark harness: accounting identities, fixed-vs-tuned runs,
// verification-run scoring, fiber stack sizing, and table formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/microbench.hpp"
#include "harness/table.hpp"
#include "net/platform.hpp"
#include "sim/fiber.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
using namespace nbctune::harness;

namespace {
MicroScenario tiny_scenario() {
  MicroScenario s;
  s.platform = net::whale();
  s.nprocs = 4;
  s.op = OpKind::Ialltoall;
  s.bytes = 1024;
  s.compute_per_iter = 1e-3;
  s.iterations = 12;
  s.progress_calls = 4;
  s.noise_scale = 0.0;
  return s;
}
}  // namespace

TEST(Microbench, ComputeDominatedLoopTimeIsComputeBound) {
  // With compute far larger than communication, the loop time must be
  // close to iterations x compute (full overlap), and never below it.
  MicroScenario s = tiny_scenario();
  s.compute_per_iter = 10e-3;
  auto out = run_fixed(s, 0);
  const double floor_time = s.iterations * s.compute_per_iter;
  EXPECT_GE(out.loop_time, floor_time);
  EXPECT_LT(out.loop_time, floor_time * 1.15);
}

TEST(Microbench, FixedRunsNameTheImplementation) {
  MicroScenario s = tiny_scenario();
  auto fset = scenario_functionset(s);
  ASSERT_EQ(fset->size(), 3u);
  EXPECT_EQ(run_fixed(s, 0).impl, "linear");
  EXPECT_EQ(run_fixed(s, 1).impl, "dissemination");
  EXPECT_EQ(run_fixed(s, 2).impl, "pairwise");
  EXPECT_THROW(run_fixed(s, 3), std::invalid_argument);
}

TEST(Microbench, AdclDecidesWithinLoop) {
  MicroScenario s = tiny_scenario();
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 3;
  auto out = run_adcl(s, opts);
  EXPECT_NE(out.impl, "<undecided>");
  EXPECT_EQ(out.decision_iteration, 9);
  EXPECT_GT(out.post_decision_iterations, 0);
  EXPECT_GT(out.post_decision_time, 0.0);
  EXPECT_LT(out.post_decision_time, out.loop_time);
}

TEST(Microbench, VerificationRunScoresDecision) {
  MicroScenario s = tiny_scenario();
  s.iterations = 20;
  auto v = run_verification(s, /*tests_per_function=*/4);
  ASSERT_EQ(v.fixed.size(), 3u);
  ASSERT_GE(v.best_fixed, 0);
  // The ADCL winners name real implementations.
  auto fset = scenario_functionset(s);
  EXPECT_GE(fset->find_by_name(v.adcl_bruteforce.impl), 0);
  EXPECT_GE(fset->find_by_name(v.adcl_heuristic.impl), 0);
  // With noise off, brute force must pick the true best.
  EXPECT_TRUE(v.bruteforce_correct);
  // The learning phase makes ADCL slower than (or equal to) the best
  // fixed implementation, but it must beat the worst by a margin when
  // implementations differ.
  double worst = 0;
  for (const auto& f : v.fixed) worst = std::max(worst, f.loop_time);
  EXPECT_LE(v.fixed[v.best_fixed].loop_time, v.adcl_bruteforce.loop_time);
  EXPECT_LE(v.adcl_bruteforce.loop_time, worst * 1.05);
}

TEST(Microbench, IbcastScenario) {
  MicroScenario s = tiny_scenario();
  s.op = OpKind::Ibcast;
  s.bytes = 64 * 1024;
  s.nprocs = 8;
  auto fset = scenario_functionset(s);
  EXPECT_EQ(fset->size(), 21u);
  auto out = run_fixed(s, fset->find_by_name("binomial/seg64k"));
  EXPECT_EQ(out.impl, "binomial/seg64k");
  EXPECT_GT(out.loop_time, 0.0);
}

TEST(Microbench, BlockingExtendedSetRuns) {
  MicroScenario s = tiny_scenario();
  s.include_blocking = true;
  s.iterations = 14;
  adcl::TuningOptions opts;
  opts.tests_per_function = 2;
  auto out = run_adcl(s, opts);
  EXPECT_NE(out.impl, "<undecided>");
  EXPECT_EQ(out.decision_iteration, 12);  // 6 functions x 2 tests
}

TEST(Microbench, DeterministicAcrossRuns) {
  MicroScenario s = tiny_scenario();
  s.noise_scale = 1.0;
  s.seed = 7;
  auto a = run_fixed(s, 1);
  auto b = run_fixed(s, 1);
  EXPECT_DOUBLE_EQ(a.loop_time, b.loop_time);
  s.seed = 8;
  auto c = run_fixed(s, 1);
  EXPECT_NE(a.loop_time, c.loop_time);
}

TEST(Microbench, ZeroProgressCallsStillCompletes) {
  MicroScenario s = tiny_scenario();
  s.progress_calls = 0;
  s.bytes = 64 * 1024;  // rendezvous: all work lands in wait()
  auto out = run_fixed(s, 2);
  EXPECT_GT(out.loop_time, s.iterations * s.compute_per_iter);
}

// ------------------------------------------------------- fiber stacks

namespace {

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.impl, b.impl);
  EXPECT_EQ(a.loop_time, b.loop_time);
  EXPECT_EQ(a.decision_iteration, b.decision_iteration);
  EXPECT_EQ(std::isnan(a.decision_time), std::isnan(b.decision_time));
  if (!std::isnan(a.decision_time)) {
    EXPECT_EQ(a.decision_time, b.decision_time);
  }
  EXPECT_EQ(a.post_decision_time, b.post_decision_time);
  EXPECT_EQ(a.post_decision_iterations, b.post_decision_iterations);
}

}  // namespace

TEST(FiberStack, ScenarioKnobReachesWorldFibers) {
  MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 4;
  s.bytes = 1024;
  s.compute_per_iter = 200e-6;
  s.iterations = 2;
  s.progress_calls = 3;
  s.seed = 7;
  s.noise_scale = 0.0;
  s.payload = true;
  s.fiber_stack_bytes = 64 * 1024;  // small but sufficient for the loop
  const RunOutcome out = run_fixed(s, 0);
  EXPECT_GT(out.loop_time, 0.0);
}

TEST(FiberStack, ExplicitSizesBelowTheFloorAreRaised) {
  // 4 KiB cannot hold the rank program; an explicit size is raised to
  // the 16 KiB floor, so the run matches the default.
  MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 64;
  s.op = OpKind::Ibcast;
  s.bytes = 4096;
  s.compute_per_iter = 100e-6;
  s.iterations = 4;
  s.progress_calls = 2;
  s.noise_scale = 0.0;
  s.fiber_stack_bytes = 4096;
  const RunOutcome small = run_fixed(s, 0);
  s.fiber_stack_bytes = 0;
  expect_same_outcome(small, run_fixed(s, 0));
}

TEST(FiberStack, MegaScaleIbcastRunsInTheFloor) {
  // The premise of bench_scale_sweep: a pinned Ibcast at thousands of ranks
  // on `mega` behaves identically with 16 KiB stacks and the default.
  MicroScenario s;
  s.platform = net::mega();
  s.nprocs = 4096;
  s.op = OpKind::Ibcast;
  s.bytes = 1024;
  s.compute_per_iter = 100e-6;
  s.iterations = 2;
  s.progress_calls = 2;
  s.seed = 7;
  s.noise_scale = 0.0;
  const int pinned = scenario_functionset(s)->find_by_name("binomial/seg32k");
  ASSERT_GE(pinned, 0);
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  const auto traced = [&](std::size_t stack_bytes) {
    s.fiber_stack_bytes = stack_bytes;
    const RunOutcome out = run_fixed(s, pinned);
    auto finished = trace::Session::instance().drain();
    EXPECT_EQ(finished.size(), 1u);
    trace::FinishedTrace t;
    if (!finished.empty()) t = std::move(finished.front());
    return std::make_pair(out, std::move(t));
  };
  const auto [small_out, small] = traced(16 * 1024);
  const auto [dflt_out, dflt] = traced(0);
  expect_same_outcome(small_out, dflt_out);
  EXPECT_EQ(small.events.size(), dflt.events.size());
  for (std::size_t c = 0; c < static_cast<std::size_t>(trace::Ctr::kCount);
       ++c) {
    EXPECT_EQ(small.counts[c], dflt.counts[c])
        << trace::ctr_name(static_cast<trace::Ctr>(c));
  }
}

TEST(FiberStack, ExhaustionErrorNamesTheRemedies) {
  // An absurd per-fiber stack must fail with an actionable message, not a
  // bare bad_alloc.  (Not in test_sim: ASan aborts on such an allocation
  // instead of throwing.)
  try {
    sim::Fiber f([] {}, std::size_t{1} << 48);
    FAIL() << "expected the stack allocation to fail";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fiber-stack"), std::string::npos) << what;
    EXPECT_NE(what.find("fiber_stack_bytes"), std::string::npos) << what;
  }
}

TEST(TableFormat, Aligns) {
  Table t({"impl", "time"});
  t.add_row({"linear", Table::num(1.5, 2)});
  t.add_row({"pairwise", Table::num(2.0, 2)});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("impl"), std::string::npos);
  EXPECT_NE(text.str().find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}
