// Fail-stop rank failures: the kill=rank@t plan grammar (plus a seeded
// round-trip fuzzer), ULFM-style lease detection, the agreement round and
// communicator shrink, harness-level shrink-and-retune recovery under
// every canned kill plan, the no-resurrection rule for traffic addressed
// to dead ranks under combined kill+drops plans, and byte-determinism of
// killed sweeps across pool thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/chrome_reader.hpp"
#include "fault/fault.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/ft.hpp"
#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

// ------------------------------------------------------------ kill grammar

TEST(FtPlan, KillGrammarParses) {
  const fault::FaultPlan p =
      fault::FaultPlan::parse("seed=3;kill=5@0.004,1@0.012;lease=2e-3");
  ASSERT_EQ(p.kills.size(), 2u);
  EXPECT_EQ(p.kills[0].rank, 5);
  EXPECT_DOUBLE_EQ(p.kills[0].t, 0.004);
  EXPECT_EQ(p.kills[1].rank, 1);
  EXPECT_DOUBLE_EQ(p.kills[1].t, 0.012);
  EXPECT_DOUBLE_EQ(p.lease, 2e-3);
  EXPECT_TRUE(p.has_kills());
  EXPECT_TRUE(p.enabled());
  // Pure kill plans are not lossy: no ack/retransmit machinery, and no
  // implicit op_timeout arming.
  EXPECT_FALSE(p.lossy());
  EXPECT_DOUBLE_EQ(p.op_timeout, 0.0);
}

TEST(FtPlan, KillGrammarRejectsMalformed) {
  EXPECT_THROW(fault::FaultPlan::parse("kill="), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=5"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=@1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=5@"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=5@x"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=-1@2"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("kill=1@-2"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("lease=0"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("lease=-1"), std::invalid_argument);
}

TEST(FtPlan, CannedKillPlansParse) {
  int kill_plans = 0;
  for (const fault::CannedPlan& cp : fault::canned_plans()) {
    const fault::FaultPlan p = fault::FaultPlan::parse(cp.spec);
    EXPECT_FALSE(cp.desc.empty()) << cp.name;
    if (p.has_kills()) ++kill_plans;
  }
  EXPECT_GE(kill_plans, 4);  // kill1, killleader, cascade, killdrops
}

TEST(FtPlan, PrintRoundTripsKills) {
  const std::string spec =
      "seed=43;drop:p=0.15,max=30;rto=1e-3;retries=12;op_timeout=30;"
      "kill=2@0.004,7@1.25;lease=2e-3";
  const fault::FaultPlan p1 = fault::FaultPlan::parse(spec);
  const std::string printed = p1.print();
  const fault::FaultPlan p2 = fault::FaultPlan::parse(printed);
  // print() is a fixed point: parse(print(p)) prints identically.
  EXPECT_EQ(printed, p2.print());
  ASSERT_EQ(p2.kills.size(), 2u);
  EXPECT_EQ(p2.kills[0].rank, 2);
  EXPECT_EQ(p2.kills[1].rank, 7);
  EXPECT_DOUBLE_EQ(p2.lease, p1.lease);
}

// ------------------------------------------------- grammar round-trip fuzz

namespace {

/// Tiny deterministic generator (split-mix style) — the fuzzer must be
/// seed-stable so a failure reproduces from the printed seed alone.
struct FuzzRng {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9E3779B97F4A7C15ULL;
    std::uint64_t x = s;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  int range(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }
  double prob() { return static_cast<double>(next() % 1000) / 1000.0; }
  double small_time() { return static_cast<double>(next() % 10000) * 1e-5; }
};

/// Build a random *valid* plan spec from the component vocabulary.
std::string random_valid_spec(FuzzRng& rng) {
  std::string spec = "seed=" + std::to_string(rng.range(1000));
  if (rng.range(2)) {
    spec += ";drop:p=" + std::to_string(rng.prob()) +
            ",max=" + std::to_string(rng.range(50));
  }
  if (rng.range(2)) spec += ";dup:p=" + std::to_string(rng.prob());
  if (rng.range(2)) {
    spec += ";straggler:rank=" + std::to_string(rng.range(8)) +
            ",factor=" + std::to_string(1 + rng.range(7));
  }
  if (rng.range(2)) {
    spec += ";drift:window=" + std::to_string(1 + rng.range(8)) +
            ",tol=" + std::to_string(rng.prob());
  }
  if (rng.range(2)) {
    const int nkills = 1 + rng.range(3);
    spec += ";kill=";
    for (int k = 0; k < nkills; ++k) {
      if (k != 0) spec += ',';
      spec += std::to_string(rng.range(16)) + "@" +
              std::to_string(rng.small_time());
    }
    spec += ";lease=" + std::to_string(1e-4 + rng.prob() * 1e-2);
  }
  if (rng.range(2)) spec += ";rto=" + std::to_string(1e-4 + rng.prob() * 1e-2);
  if (rng.range(2)) spec += ";retries=" + std::to_string(rng.range(20));
  return spec;
}

/// Mutate a valid spec into a near-valid one that must be rejected.
std::string random_invalid_spec(FuzzRng& rng) {
  switch (rng.range(8)) {
    case 0: return "kill=" + std::to_string(rng.range(16));   // missing @t
    case 1: return "kill=@" + std::to_string(rng.small_time());
    case 2: return "kill=" + std::to_string(rng.range(16)) + "@oops";
    case 3: return "kill=-" + std::to_string(1 + rng.range(4)) + "@0.1";
    case 4: return "lease=" + std::to_string(-rng.prob());
    case 5: return "drop:p=" + std::to_string(1.5 + rng.prob());
    case 6: return "gremlin:p=" + std::to_string(rng.prob());
    case 7: return "drop:p";
  }
  return "wat=1";
}

}  // namespace

TEST(FtPlanFuzz, ValidSpecsRoundTripAndInvalidSpecsThrow) {
  FuzzRng rng{20260807};
  for (int i = 0; i < 500; ++i) {
    const std::string spec = random_valid_spec(rng);
    SCOPED_TRACE("seed-index " + std::to_string(i) + ": " + spec);
    fault::FaultPlan p;
    ASSERT_NO_THROW(p = fault::FaultPlan::parse(spec));
    // Round trip at print level: print() is a fixed point of parse.
    const std::string printed = p.print();
    fault::FaultPlan p2;
    ASSERT_NO_THROW(p2 = fault::FaultPlan::parse(printed));
    EXPECT_EQ(printed, p2.print());
    EXPECT_EQ(p.kills.size(), p2.kills.size());
    EXPECT_EQ(p.enabled(), p2.enabled());
    EXPECT_EQ(p.lossy(), p2.lossy());
  }
  for (int i = 0; i < 500; ++i) {
    const std::string spec = random_invalid_spec(rng);
    SCOPED_TRACE("seed-index " + std::to_string(i) + ": " + spec);
    EXPECT_THROW(fault::FaultPlan::parse(spec), std::invalid_argument);
  }
}

// ------------------------------------------------ detection and agreement

namespace {

/// One rank per node, so the inter-node machinery (drops, acks) sees all
/// the traffic.
const net::Platform kSpread = t::one_rank_per_node(net::whale());

/// World runner with a fault plan attached, one rank per node.
void run_ft(int nprocs, const fault::FaultPlan& plan,
            const std::function<void(mpi::Ctx&)>& program) {
  sim::Engine engine(1);
  net::Machine machine(kSpread);
  mpi::WorldOptions opts;
  opts.nprocs = nprocs;
  opts.noise_scale = 0.0;
  opts.seed = 1;
  opts.fault_plan = &plan;
  mpi::World world(engine, machine, opts);
  world.launch(program);
  engine.run();
}

/// Same, but hands the test the World for post-run inspection.
void run_ft_world(int nprocs, const fault::FaultPlan& plan,
                  const std::function<void(mpi::Ctx&)>& program,
                  const std::function<void(mpi::World&)>& after) {
  sim::Engine engine(1);
  net::Machine machine(kSpread);
  mpi::WorldOptions opts;
  opts.nprocs = nprocs;
  opts.noise_scale = 0.0;
  opts.seed = 1;
  opts.fault_plan = &plan;
  mpi::World world(engine, machine, opts);
  world.launch(program);
  engine.run();
  after(world);
}

}  // namespace

TEST(FtRecovery, ShrinkDenselyReranksSurvivors) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("kill=2@0.001;lease=1e-3");
  int recovered = 0;
  run_ft(4, plan, [&](mpi::Ctx& ctx) {
    try {
      for (;;) ctx.compute(2e-4);
    } catch (const mpi::RanksFailed&) {
      const mpi::FtDecision d = ctx.ft_recover(/*iteration=*/7);
      EXPECT_EQ(d.epoch, 1);
      ASSERT_EQ(d.failed.size(), 1u);
      EXPECT_EQ(d.failed[0], 2);
      // Dense re-ranking: survivors {0,1,3} become new ranks {0,1,2}.
      ASSERT_EQ(d.comm.size(), 3);
      EXPECT_EQ(d.comm.world_rank(0), 0);
      EXPECT_EQ(d.comm.world_rank(1), 1);
      EXPECT_EQ(d.comm.world_rank(2), 3);
      // Everyone was interrupted at iteration 7, so the redo point is 7.
      EXPECT_EQ(d.resume_iteration, 7);
      EXPECT_FALSE(d.all_finished);
      ++recovered;
      // Survivors can talk on the shrunk communicator right away.
      const double sum = ctx.allreduce(
          d.comm, static_cast<double>(d.comm.rank_of_world(ctx.world_rank())),
          mpi::ReduceOp::Sum);
      EXPECT_DOUBLE_EQ(sum, 0 + 1 + 2);
      const mpi::FtDecision f = ctx.ft_finish();
      EXPECT_TRUE(f.all_finished);
    }
  });
  EXPECT_EQ(recovered, 3);
}

TEST(FtRecovery, DetectionLatencyIsBoundedByLease) {
  const double lease = 3e-3;
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "kill=1@0.002;lease=" + std::to_string(lease));
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("ft detect");
    run_ft(3, plan, [&](mpi::Ctx& ctx) {
      try {
        for (;;) ctx.compute(2e-4);
      } catch (const mpi::RanksFailed&) {
        (void)ctx.ft_recover(0);
        (void)ctx.ft_finish();
      }
    });
  }
  auto finished = trace::Session::instance().drain();
  ASSERT_EQ(finished.size(), 1u);
  double death_ts = -1.0, detect_ts = -1.0, agree_ts = -1.0;
  for (const trace::Event& e : finished.at(0).events) {
    if (e.kind == trace::Kind::MpiRankDeath) death_ts = e.ts;
    if (e.kind == trace::Kind::MpiFtDetect) detect_ts = e.ts;
    if (e.kind == trace::Kind::MpiFtAgree && agree_ts < 0.0) agree_ts = e.ts;
  }
  ASSERT_GE(death_ts, 0.0);
  ASSERT_GE(detect_ts, 0.0);
  ASSERT_GE(agree_ts, 0.0);
  EXPECT_DOUBLE_EQ(death_ts, 0.002);
  // The failure detector is a lease: detection happens exactly one lease
  // period after the death, never sooner.
  EXPECT_NEAR(detect_ts - death_ts, lease, 1e-12);
  EXPECT_GE(agree_ts, detect_ts);
}

TEST(FtRecovery, FinishedRanksStandAtTerminationAgreement) {
  // Rank 0 finishes its (empty) work immediately and stands at ft_finish;
  // the other survivor recovers from the death and then finishes too.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("kill=2@0.002;lease=1e-3");
  std::vector<int> resumed(3, -2);
  run_ft(3, plan, [&](mpi::Ctx& ctx) {
    const int me = ctx.world_rank();
    if (me == 0) {
      // Finished before the death: must redo nothing, but must wait for
      // the agreement (the other survivor was interrupted mid-loop).
      mpi::FtDecision d = ctx.ft_finish();
      while (!d.all_finished) {
        resumed[0] = d.resume_iteration;
        d = ctx.ft_finish();
      }
    } else {
      try {
        for (;;) ctx.compute(2e-4);
      } catch (const mpi::RanksFailed&) {
        const mpi::FtDecision d = ctx.ft_recover(4);
        resumed[me] = d.resume_iteration;
        const mpi::FtDecision f = ctx.ft_finish();
        EXPECT_TRUE(f.all_finished);
      }
    }
  });
  // The agreed redo point is the minimum over interrupted survivors: 4.
  EXPECT_EQ(resumed[0], 4);
  EXPECT_EQ(resumed[1], 4);
}

TEST(FtRecovery, CleanupDropsADeadSendersUnexpectedMessagesOnly) {
  // Ranks 1 and 2 each send rank 0 one eager message; a progress pass
  // queues both as unexpected before rank 2 dies.  Recovery's cleanup
  // purges the dead sender's message and keeps the survivor's.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("kill=2@0.002;lease=1e-3");
  int from_survivor = 0;
  bool dead_matched = true;
  run_ft(3, plan, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    if (me != 0) {
      const int v = me * 10 + 1;
      ctx.send(comm, &v, sizeof v, 0, 5);
    } else {
      ctx.compute(1e-3);
      ctx.progress();
    }
    try {
      for (;;) ctx.compute(2e-4);
    } catch (const mpi::RanksFailed&) {
      (void)ctx.ft_recover(0);
      if (me == 0) {
        int v = 0;
        mpi::Req from_dead = ctx.irecv(comm, &v, sizeof v, 2, 5);
        dead_matched = ctx.test(from_dead);
        ctx.cancel_request(from_dead);
        EXPECT_EQ(ctx.recv(comm, &v, sizeof v, 1, 5).source, 1);
        from_survivor = v;
      }
      (void)ctx.ft_finish();
    }
  });
  EXPECT_FALSE(dead_matched);
  EXPECT_EQ(from_survivor, 11);
}

// --------------------------------------- no resurrection of dead traffic

TEST(FtRecovery, RetransmitNeverResurrectsTrafficToADeadRank) {
  // Rank 0's only message to rank 1 is dropped; rank 1 dies before the
  // RTO fires.  The retransmit path must declare the send failed instead
  // of re-shipping to the corpse, and recovery must reclaim rank 1's
  // dedup state.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=5;drop:p=1,max=1;rto=2e-3;retries=12;op_timeout=30;"
      "kill=1@0.0005;lease=1e-3");
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  std::map<std::string, std::uint64_t> ctrs;
  {
    trace::Scope scope("ft no-resurrection");
    run_ft_world(
        2, plan,
        [&](mpi::Ctx& ctx) {
          auto comm = ctx.world().comm_world();
          std::vector<std::byte> buf(4096);
          if (ctx.world_rank() == 0) {
            try {
              ctx.send(comm, buf.data(), buf.size(), 1, 7);
              FAIL() << "send to a dying rank completed";
            } catch (const mpi::RanksFailed&) {
              const mpi::FtDecision d = ctx.ft_recover(0);
              ASSERT_EQ(d.failed.size(), 1u);
              EXPECT_EQ(d.failed[0], 1);
              EXPECT_EQ(d.comm.size(), 1);
              (void)ctx.ft_finish();
            }
          } else {
            ctx.recv(comm, buf.data(), buf.size(), 0, 7);
          }
        },
        [&](mpi::World& w) {
          // Dedup entries naming the dead rank were reclaimed by ft_cleanup.
          EXPECT_EQ(w.dedup_entries(1), 0u);
        });
  }
  std::ostringstream os;
  trace::Session::instance().write_counters(os);
  std::istringstream is(os.str());
  ctrs = analyze::read_counters(is);
  (void)trace::Session::instance().drain();
  EXPECT_EQ(ctrs.at("fault.drops"), 1u);
  // The RTO fired against a detected-dead peer: no retransmission went
  // back on the wire, the send failed immediately.
  EXPECT_EQ(ctrs.count("msg.retransmits") ? ctrs.at("msg.retransmits") : 0u,
            0u);
  EXPECT_GE(ctrs.at("msg.send_failures"), 1u);
  EXPECT_EQ(ctrs.at("mpi.rank_deaths"), 1u);
}

// ------------------------------------------- canned kill plans end to end

namespace {

/// The fig-3-shaped sweep scenario the canned kill plans are tuned for.
harness::MicroScenario kill_scenario() {
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

adcl::TuningOptions kill_tuning() {
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  return opts;
}

struct KillRun {
  harness::RunOutcome outcome;
  analyze::ScenarioReport report;
  std::map<std::string, std::uint64_t> counters;
};

KillRun run_kill_plan(const fault::CannedPlan& cp) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  harness::MicroScenario s = kill_scenario();
  s.fault_plan = cp.spec;
  s.fault_plan_name = cp.name;
  KillRun kr;
  kr.outcome = harness::run_adcl(s, kill_tuning());
  std::ostringstream os;
  trace::Session::instance().write_counters(os);
  auto finished = trace::Session::instance().drain();
  EXPECT_EQ(finished.size(), 1u) << cp.name;
  const analyze::Report r = analyze::analyze(finished);
  EXPECT_EQ(r.scenarios.size(), 1u) << cp.name;
  kr.report = r.scenarios.at(0);
  std::istringstream is(os.str());
  kr.counters = analyze::read_counters(is);
  return kr;
}

std::uint64_t ctr(const std::map<std::string, std::uint64_t>& m,
                  const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0u : it->second;
}

}  // namespace

TEST(FtCannedPlans, SurvivorsCompleteUnderEveryKillPlan) {
  for (const fault::CannedPlan& cp : fault::canned_plans()) {
    const fault::FaultPlan plan = fault::FaultPlan::parse(cp.spec);
    if (!plan.has_kills()) continue;
    SCOPED_TRACE(cp.name);
    const KillRun kr = run_kill_plan(cp);

    // The sweep ran to completion on the survivors and produced a winner.
    EXPECT_GT(kr.outcome.loop_time, 0.0);
    EXPECT_FALSE(kr.outcome.impl.empty());
    EXPECT_NE(kr.outcome.impl, "<undecided>");

    // Every planned death happened, was agreed on, and re-opened tuning.
    EXPECT_EQ(ctr(kr.counters, "mpi.rank_deaths"), plan.kills.size());
    EXPECT_EQ(ctr(kr.counters, "mpi.shrinks"), plan.kills.size());
    EXPECT_GT(ctr(kr.counters, "nbc.rebuilds"), 0u);
    EXPECT_GE(kr.report.adcl.retunes, static_cast<int>(plan.kills.size()));

    // G1 under fail-stop: started = completed + aborted, exactly.
    const std::uint64_t started = ctr(kr.counters, "nbc.ops_started");
    const std::uint64_t completed = ctr(kr.counters, "nbc.ops_completed");
    const std::uint64_t aborted = ctr(kr.counters, "nbc.ops_aborted");
    EXPECT_GT(started, 0u);
    EXPECT_EQ(started, completed + aborted);

    // The analyzer surfaces the recovery timeline in the report.
    const analyze::RecoverySummary& rec = kr.report.recovery;
    EXPECT_TRUE(rec.any());
    EXPECT_EQ(rec.deaths, plan.kills.size());
    EXPECT_EQ(rec.epochs, plan.kills.size());
    EXPECT_GT(rec.rebuilds, 0u);
    EXPECT_EQ(rec.aborted_ops, aborted);
    EXPECT_EQ(kr.report.ops_aborted, aborted);
    // Detection latency is the lease period by construction.
    EXPECT_NEAR(rec.detection, plan.lease, 1e-12);
    EXPECT_GT(rec.agreement, 0.0);
    EXPECT_GT(rec.time_to_recover, plan.lease);
  }
}

TEST(FtCannedPlans, CascadeShrinksTwiceAcrossEpochs) {
  const fault::CannedPlan* cascade = nullptr;
  for (const auto& p : fault::canned_plans()) {
    if (p.name == "cascade") cascade = &p;
  }
  ASSERT_NE(cascade, nullptr);
  const KillRun kr = run_kill_plan(*cascade);
  EXPECT_EQ(ctr(kr.counters, "mpi.rank_deaths"), 2u);
  EXPECT_EQ(ctr(kr.counters, "mpi.shrinks"), 2u);
}

TEST(FtCannedPlans, KilldropsLayersDeathOnMessageLoss) {
  const fault::CannedPlan* kd = nullptr;
  for (const auto& p : fault::canned_plans()) {
    if (p.name == "killdrops") kd = &p;
  }
  ASSERT_NE(kd, nullptr);
  const KillRun kr = run_kill_plan(*kd);
  EXPECT_GT(kr.report.faults.drops, 0u);
  EXPECT_EQ(ctr(kr.counters, "mpi.rank_deaths"), 1u);
  EXPECT_EQ(ctr(kr.counters, "mpi.shrinks"), 1u);
  const std::uint64_t started = ctr(kr.counters, "nbc.ops_started");
  EXPECT_EQ(started, ctr(kr.counters, "nbc.ops_completed") +
                         ctr(kr.counters, "nbc.ops_aborted"));
}

// ------------------------------------------------------------ determinism

TEST(FtDeterminism, KilledSweepsReproduceAcrossPoolThreadCounts) {
  std::vector<const fault::CannedPlan*> kill_plans;
  for (const auto& p : fault::canned_plans()) {
    if (fault::FaultPlan::parse(p.spec).has_kills()) kill_plans.push_back(&p);
  }
  ASSERT_GE(kill_plans.size(), 4u);
  auto sweep = [&](int threads) {
    std::vector<harness::RunOutcome> runs(kill_plans.size());
    harness::ScenarioPool pool(threads);
    pool.run_indexed(kill_plans.size(), [&](std::size_t i) {
      harness::MicroScenario s = kill_scenario();
      s.fault_plan = kill_plans[i]->spec;
      s.fault_plan_name = kill_plans[i]->name;
      runs[i] = harness::run_adcl(s, kill_tuning());
    });
    return runs;
  };
  const auto r1 = sweep(1);
  const auto r4 = sweep(4);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(kill_plans[i]->name);
    EXPECT_EQ(r1[i].impl, r4[i].impl);
    EXPECT_EQ(r1[i].loop_time, r4[i].loop_time);  // exact, not approximate
    EXPECT_EQ(r1[i].decision_iteration, r4[i].decision_iteration);
  }
}
