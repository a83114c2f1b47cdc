// Fault-injection subsystem and the resilience machinery it drives: the
// plan parser, injector determinism, drop -> retransmit -> complete on the
// transport, duplicate-delivery idempotence, timeout -> fallback in the NBC
// layer, ADCL drift re-tuning, guideline G1 under every canned plan, and
// byte-determinism across pool thread counts (with faults and with noise).

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "adcl/functionsets.hpp"
#include "adcl/selection.hpp"
#include "analyze/analyze.hpp"
#include "analyze/chrome_reader.hpp"
#include "fault/fault.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

// ------------------------------------------------------------ plan parser

TEST(FaultPlan, EmptySpecIsQuiet) {
  const fault::FaultPlan p = fault::FaultPlan::parse("");
  EXPECT_FALSE(p.enabled());
  EXPECT_FALSE(p.lossy());
  EXPECT_EQ(p.op_timeout, 0.0);
}

TEST(FaultPlan, ParsesEveryComponentKind) {
  const fault::FaultPlan p = fault::FaultPlan::parse(
      "seed=9;drop:p=0.25,t0=0.1,t1=0.2,max=5;dup:p=0.5;"
      "degrade:t0=1,t1=2,lat=4,bw=8;stall:node=3,t0=0.5,dur=0.1;"
      "straggler:rank=2,factor=3,t0=0,t1=9;starve:rank=1,cost=1e-4;"
      "drift:window=4,tol=0.25;rto=5e-3;retries=7;op_timeout=2;"
      "max_attempts=3");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.drop_p, 0.25);
  EXPECT_DOUBLE_EQ(p.drop_win.t0, 0.1);
  EXPECT_DOUBLE_EQ(p.drop_win.t1, 0.2);
  EXPECT_EQ(p.drop_max, 5);
  EXPECT_DOUBLE_EQ(p.dup_p, 0.5);
  EXPECT_TRUE(p.has_degrade);
  EXPECT_DOUBLE_EQ(p.degrade_lat, 4.0);
  EXPECT_DOUBLE_EQ(p.degrade_bw, 8.0);
  ASSERT_EQ(p.stalls.size(), 1u);
  EXPECT_EQ(p.stalls[0].node, 3);
  ASSERT_EQ(p.stragglers.size(), 1u);
  EXPECT_EQ(p.stragglers[0].rank, 2);
  ASSERT_EQ(p.starves.size(), 1u);
  EXPECT_DOUBLE_EQ(p.starves[0].cost, 1e-4);
  EXPECT_EQ(p.drift_window, 4);
  EXPECT_DOUBLE_EQ(p.drift_tolerance, 0.25);
  EXPECT_DOUBLE_EQ(p.rto, 5e-3);
  EXPECT_EQ(p.retries, 7);
  EXPECT_DOUBLE_EQ(p.op_timeout, 2.0);
  EXPECT_EQ(p.max_attempts, 3);
  EXPECT_TRUE(p.lossy());
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlan, LossyPlansDefaultToArmedOpTimeout) {
  EXPECT_DOUBLE_EQ(fault::FaultPlan::parse("drop:p=0.1").op_timeout, 1.0);
  // An explicit value (even one matching the default) is preserved.
  EXPECT_DOUBLE_EQ(
      fault::FaultPlan::parse("drop:p=0.1;op_timeout=7").op_timeout, 7.0);
  // Quiet plans leave NBC recovery off.
  EXPECT_DOUBLE_EQ(fault::FaultPlan::parse("straggler:rank=0,factor=2")
                       .op_timeout,
                   0.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultPlan::parse("bogus:p=1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:probability=1"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:p=2"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:p"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("rto=abc"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("wat=1"), std::invalid_argument);
}

TEST(FaultPlan, CannedPlansParseAndEnable) {
  const auto& plans = fault::canned_plans();
  ASSERT_GE(plans.size(), 6u);
  EXPECT_EQ(plans[0].name, "none");
  for (const auto& cp : plans) {
    const fault::FaultPlan p = fault::FaultPlan::parse(cp.spec);
    EXPECT_EQ(p.enabled(), cp.name != "none") << cp.name;
  }
}

TEST(FaultInjector, DeterministicAndBudgeted) {
  const fault::FaultPlan p = fault::FaultPlan::parse("seed=3;drop:p=1,max=3");
  fault::Injector a(p, /*scenario_seed=*/42), b(p, /*scenario_seed=*/42);
  int drops_a = 0;
  for (int i = 0; i < 10; ++i) {
    const bool d = a.inject_drop(0.0);
    EXPECT_EQ(d, b.inject_drop(0.0));
    drops_a += d ? 1 : 0;
  }
  EXPECT_EQ(drops_a, 3);  // budget exhausted, later draws are free
  EXPECT_EQ(a.drops(), 3);
}

// ----------------------------------------------- transport under injection

namespace {

const net::Platform kIb = net::whale();

/// 2-rank world with RoundRobin placement (whale packs 8 ranks per node,
/// so Block placement would make every message intra-node and invisible
/// to the injector) and the given plan attached.
void run_faulty(int nprocs, const fault::FaultPlan& plan,
                const std::function<void(mpi::Ctx&)>& program) {
  sim::Engine engine(1);
  net::Machine machine(kIb);
  mpi::WorldOptions opts;
  opts.nprocs = nprocs;
  opts.noise_scale = 0.0;
  opts.seed = 1;
  opts.placement = mpi::WorldOptions::Placement::RoundRobin;
  opts.fault_plan = &plan;
  mpi::World world(engine, machine, opts);
  world.launch(program);
  engine.run();
}

/// Runs `body` inside a fresh trace scope and returns the counter dump.
std::map<std::string, std::uint64_t> counters_of(
    const std::function<void()>& body) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("fault test");
    body();
  }
  std::ostringstream os;
  trace::Session::instance().write_counters(os);
  (void)trace::Session::instance().drain();
  std::istringstream is(os.str());
  return analyze::read_counters(is);
}

}  // namespace

TEST(FaultTransport, DropIsHealedByRetransmit) {
  // The first (and only, max=1) eligible message is dropped; the sender's
  // RTO fires, the retransmission is delivered, and the payload survives.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("seed=5;drop:p=1,max=1;rto=1e-3;retries=4");
  const std::size_t n = 1024;
  std::vector<std::byte> got(n);
  const auto ctrs = counters_of([&] {
    run_faulty(2, plan, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      if (ctx.world_rank() == 0) {
        auto data = t::make_pattern(0, n);
        ctx.send(comm, data.data(), n, 1, 7);
      } else {
        ctx.recv(comm, got.data(), n, 0, 7);
      }
    });
  });
  EXPECT_EQ(got, t::make_pattern(0, n));
  EXPECT_EQ(ctrs.at("fault.drops"), 1u);
  EXPECT_GE(ctrs.at("msg.retransmits"), 1u);
  EXPECT_GE(ctrs.at("msg.acks"), 1u);
  EXPECT_EQ(ctrs.at("msg.send_failures"), 0u);
}

TEST(FaultTransport, DuplicateDeliveryIsIdempotent) {
  // Every eligible message is duplicated (budget 2); receiver-side dedup
  // discards the copies and both payloads arrive intact, exactly once.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("seed=5;dup:p=1,max=2;rto=1e-3;retries=6");
  const std::size_t n = 512;
  std::vector<std::byte> first(n), second(n);
  const auto ctrs = counters_of([&] {
    run_faulty(2, plan, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      if (ctx.world_rank() == 0) {
        auto d0 = t::make_pattern(0, n);
        auto d1 = t::make_pattern(1, n);
        ctx.send(comm, d0.data(), n, 1, 3);
        ctx.send(comm, d1.data(), n, 1, 3);
      } else {
        ctx.recv(comm, first.data(), n, 0, 3);
        ctx.recv(comm, second.data(), n, 0, 3);
      }
    });
  });
  EXPECT_EQ(first, t::make_pattern(0, n));
  EXPECT_EQ(second, t::make_pattern(1, n));
  EXPECT_GE(ctrs.at("fault.dups"), 1u);
  EXPECT_GE(ctrs.at("msg.dup_deliveries"), 1u);
  EXPECT_EQ(ctrs.at("msg.send_failures"), 0u);
}

TEST(FaultTransport, RetriesExhaustedDeclaresSendFailed) {
  // Unlimited total loss with no retries: the blocking send must throw
  // rather than hang (deterministic failure detection).
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("seed=5;drop:p=1;rto=1e-3;retries=0");
  EXPECT_THROW(
      run_faulty(2, plan,
                 [&](mpi::Ctx& ctx) {
                   auto comm = ctx.world().comm_world();
                   std::vector<std::byte> buf(256);
                   if (ctx.world_rank() == 0) {
                     ctx.send(comm, buf.data(), buf.size(), 1, 7);
                   } else {
                     ctx.recv(comm, buf.data(), buf.size(), 0, 7);
                   }
                 }),
      std::runtime_error);
}

// --------------------------------------------- canned plans, end to end

namespace {

/// The drift-demo scenario shape from bench_fault_sweep: two whale nodes,
/// short iterations so the tuner decides before the canned degrade window
/// opens at t=0.05s.
harness::MicroScenario sweep_scenario() {
  harness::MicroScenario s;
  s.platform = net::whale();
  s.nprocs = 16;
  s.op = harness::OpKind::Ialltoall;
  s.bytes = 64 * 1024;
  s.compute_per_iter = 2e-3;
  s.progress_calls = 3;
  s.iterations = 40;
  s.noise_scale = 0.0;
  s.seed = 42;
  return s;
}

adcl::TuningOptions sweep_tuning() {
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  return opts;
}

struct PlanRun {
  analyze::ScenarioReport report;
  std::map<std::string, std::uint64_t> counters;
};

PlanRun run_canned(const fault::CannedPlan& cp) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  harness::MicroScenario s = sweep_scenario();
  s.fault_plan = cp.spec;
  s.fault_plan_name = cp.name;
  (void)harness::run_adcl(s, sweep_tuning());
  std::ostringstream os;
  trace::Session::instance().write_counters(os);
  auto finished = trace::Session::instance().drain();
  EXPECT_EQ(finished.size(), 1u) << cp.name;
  const analyze::Report r = analyze::analyze(finished);
  EXPECT_EQ(r.scenarios.size(), 1u) << cp.name;
  std::istringstream is(os.str());
  return {r.scenarios.at(0), analyze::read_counters(is)};
}

}  // namespace

TEST(FaultCannedPlans, EveryStartedOpCompletesAndPathsAreExercised) {
  // G1 under every recoverable (message-level) canned plan, with the
  // plan-specific recovery path demonstrably taken (ISSUE acceptance:
  // retransmit, timeout-fallback, and ADCL drift re-tuning each asserted
  // via trace evidence).  The fail-stop kill plans abort the dying rank's
  // in-flight ops by design (started == completed + aborted); test_ft
  // asserts that generalized ledger for every kill plan.
  for (const fault::CannedPlan& cp : fault::canned_plans()) {
    if (fault::FaultPlan::parse(cp.spec).has_kills()) continue;
    SCOPED_TRACE(cp.name);
    const PlanRun pr = run_canned(cp);
    const analyze::ScenarioReport& s = pr.report;
    // G1: every started operation completed, faults notwithstanding.
    EXPECT_GT(s.ops_started, 0u);
    EXPECT_EQ(s.ops_started, s.ops_completed);

    if (cp.name == "none") {
      EXPECT_FALSE(s.faults.any());
    } else if (cp.name == "drops") {
      EXPECT_GT(s.faults.drops, 0);
      EXPECT_GT(s.faults.retransmits, 0);  // healed by retransmission...
      EXPECT_EQ(s.faults.fallbacks, 0);    // ...never by failover
      EXPECT_EQ(s.faults.send_failures, 0);
    } else if (cp.name == "blackout") {
      EXPECT_GT(s.faults.send_failures, 0);  // retries=0: drops fail fast
      EXPECT_GT(s.faults.fallbacks, 0);      // timeout -> fallback restart
    } else if (cp.name == "degrade") {
      EXPECT_GT(pr.counters.at("fault.degraded_msgs"), 0u);
      EXPECT_GE(s.adcl.retunes, 1);  // drift re-opened tuning
    } else if (cp.name == "straggler") {
      EXPECT_GT(s.faults.stragglers, 0);
      EXPECT_GT(pr.counters.at("fault.straggler_bursts"), 0u);
      EXPECT_GT(pr.counters.at("fault.starved_passes"), 0u);
    } else if (cp.name == "mixed") {
      EXPECT_GT(s.faults.drops, 0);
      EXPECT_GT(s.faults.retransmits, 0);
      EXPECT_GT(s.faults.stragglers, 0);
      EXPECT_GT(pr.counters.at("fault.nic_stalls"), 0u);
    }
  }
}

TEST(FaultCannedPlans, LabelCarriesPlanAndAnalyzerSplitsIt) {
  harness::MicroScenario s = sweep_scenario();
  s.fault_plan = fault::canned_plans().at(1).spec;
  s.fault_plan_name = fault::canned_plans().at(1).name;
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  (void)harness::run_adcl(s, sweep_tuning());
  auto finished = trace::Session::instance().drain();
  ASSERT_EQ(finished.size(), 1u);
  const trace::FinishedTrace& f = finished.at(0);
  ASSERT_TRUE(f.key.has_value());
  EXPECT_EQ(f.key->plan, "drops");
  EXPECT_TRUE(f.key->adcl);
  EXPECT_EQ(f.key->impl, "brute-force");
  EXPECT_EQ(f.label, f.key->label());
  EXPECT_NE(f.label.find("+plan=drops"), std::string::npos);
  // Faulted and fault-free runs of the same shape land in different
  // comparison groups: guidelines never compare across plans.
  harness::MicroScenario clean = s;
  clean.fault_plan.clear();
  clean.fault_plan_name.clear();
  EXPECT_NE(*f.key, harness::scenario_key(clean, /*tuned=*/true,
                                          "brute-force"));
}

// --------------------------------------------------- ADCL drift re-tuning

TEST(FaultDrift, SlowdownReopensTuningAndRedecides) {
  auto fset = adcl::make_ibcast_functionset();
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  opts.drift_window = 3;
  opts.drift_tolerance = 0.5;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    adcl::SelectionState sel(fset, opts);
    // Learning: function 0 is fastest and wins.
    int guard = 0;
    while (!sel.decided() && ++guard < 10000) {
      sel.record(ctx, comm, 1e-6 * (1 + sel.current()));
    }
    ASSERT_TRUE(sel.decided());
    const int first_winner = sel.current();
    EXPECT_EQ(sel.retunes(), 0);
    // Post-decision samples blow past baseline * (1 + tol): after one
    // full drift window the selection re-opens.
    for (int i = 0; i < opts.drift_window && sel.decided(); ++i) {
      sel.record(ctx, comm, 1e-4);
    }
    EXPECT_FALSE(sel.decided());
    EXPECT_EQ(sel.retunes(), 1);
    // Re-learning converges again.
    guard = 0;
    while (!sel.decided() && ++guard < 10000) {
      sel.record(ctx, comm, 1e-6 * (1 + sel.current()));
    }
    EXPECT_TRUE(sel.decided());
    EXPECT_EQ(sel.current(), first_winner);
    EXPECT_EQ(sel.retunes(), 1);
  });
}

TEST(FaultDrift, SteadySamplesNeverRetune) {
  auto fset = adcl::make_ibcast_functionset();
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  opts.drift_window = 3;
  opts.drift_tolerance = 0.5;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    adcl::SelectionState sel(fset, opts);
    int guard = 0;
    while (!sel.decided() && ++guard < 10000) {
      sel.record(ctx, comm, 1e-6 * (1 + sel.current()));
    }
    ASSERT_TRUE(sel.decided());
    for (int i = 0; i < 20; ++i) sel.record(ctx, comm, 1e-6);
    EXPECT_TRUE(sel.decided());
    EXPECT_EQ(sel.retunes(), 0);
  });
}

// ------------------------------------------------------------ determinism

TEST(FaultDeterminism, PlansReproduceAcrossPoolThreadCounts) {
  // Fixed (seed, plan) must give bit-identical outcomes no matter how
  // many worker threads execute the sweep.
  const auto& plans = fault::canned_plans();
  auto sweep = [&](int threads) {
    std::vector<harness::RunOutcome> runs(plans.size());
    harness::ScenarioPool pool(threads);
    pool.run_indexed(plans.size(), [&](std::size_t i) {
      harness::MicroScenario s = sweep_scenario();
      s.iterations = 16;  // shorter: this test cares about bits, not drift
      s.fault_plan = plans[i].spec;
      s.fault_plan_name = plans[i].name;
      runs[i] = harness::run_adcl(s, sweep_tuning());
    });
    return runs;
  };
  const auto r1 = sweep(1);
  const auto r4 = sweep(4);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(plans[i].name);
    EXPECT_EQ(r1[i].impl, r4[i].impl);
    EXPECT_EQ(r1[i].loop_time, r4[i].loop_time);  // exact, not approximate
    EXPECT_EQ(r1[i].decision_iteration, r4[i].decision_iteration);
  }
}

TEST(FaultDeterminism, NoiseReproducesAcrossPoolThreadCounts) {
  // Per-rank per-scenario seeded noise streams: rel_sigma > 0 runs are
  // bit-identical at any --threads count (previously the jitter drew from
  // a shared stream and depended on scheduling).
  auto sweep = [&](int threads) {
    std::vector<double> times(4);
    harness::ScenarioPool pool(threads);
    pool.run_indexed(times.size(), [&](std::size_t i) {
      harness::MicroScenario s = sweep_scenario();
      s.iterations = 8;
      s.noise_scale = 1.0;
      s.seed = 100 + i;
      times[i] = harness::run_adcl(s, sweep_tuning()).loop_time;
    });
    return times;
  };
  const auto t1 = sweep(1);
  const auto t4 = sweep(4);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t4[i]) << "scenario " << i;
  }
}
