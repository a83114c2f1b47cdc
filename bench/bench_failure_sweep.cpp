// Failure sweep: the fig-3 tuned Ialltoall under every canned kill plan
// (fault/fault.hpp) on whale over InfiniBand and over Gigabit Ethernet,
// plus a lease-period sensitivity scan.
//
// The sweep answers the fail-stop robustness question end to end: when a
// rank (or a cascade of ranks, or the rank-0 "leader") is killed mid-loop,
// do the survivors detect it within the lease, agree on a consistent
// failed set, shrink the communicator, rebuild the collective schedules
// and finish the sweep with a sensible winner?  Run with --report /
// --trace-counters to get the analyzer's RecoverySummary (detection,
// agreement, rebuild and time-to-recover); CI diffs both against
// committed goldens and byte-compares stdout across thread counts.

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "net/platform.hpp"

using namespace nbctune;
using namespace nbctune::harness;

namespace {

MicroScenario base_scenario(const net::Platform& platform, bool full) {
  MicroScenario s;
  s.platform = platform;
  s.nprocs = 16;
  s.op = OpKind::Ialltoall;
  s.bytes = 64 * 1024;
  s.compute_per_iter = 2e-3;
  s.progress_calls = 3;
  // Kills land at fixed simulated times (3-12 ms); the loop must still be
  // running then, so the iteration budget stays above the latest kill.
  s.iterations = full ? 64 : 40;
  s.noise_scale = 0.0;  // fail-stop faults are the only perturbation
  s.seed = 42;
  return s;
}

adcl::TuningOptions tuning() {
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver drv("failure_sweep", argc, argv);

  std::vector<fault::CannedPlan> plans;
  for (const fault::CannedPlan& p : fault::canned_plans()) {
    if (fault::FaultPlan::parse(p.spec).has_kills()) plans.push_back(p);
  }

  for (const auto& platform : {net::whale(), net::whale_tcp()}) {
    const MicroScenario base = base_scenario(platform, drv.full());

    harness::banner("Failure sweep: tuned Ialltoall under kill plans on " +
                    platform.name);
    std::cout << "platform=" << platform.name << " nprocs=" << base.nprocs
              << " bytes=" << base.bytes
              << " compute/iter=" << base.compute_per_iter
              << "s iterations=" << base.iterations << "\n\n";

    std::vector<RunOutcome> runs(plans.size());
    drv.pool().run_indexed(plans.size(), [&](std::size_t i) {
      MicroScenario s = base;
      s.fault_plan = plans[i].spec;
      s.fault_plan_name = plans[i].name;
      runs[i] = run_adcl(s, tuning());
    });

    harness::Table t({"plan", "winner", "loop_time[s]", "decision_iter"});
    for (std::size_t i = 0; i < plans.size(); ++i) {
      t.add_row({plans[i].name, runs[i].impl,
                 harness::Table::num(runs[i].loop_time),
                 std::to_string(runs[i].decision_iteration)});
    }
    t.print();
  }

  // Lease sensitivity: the same single-death scenario at widening lease
  // periods.  Detection latency is the lease by construction, so a longer
  // lease delays the whole recovery and the survivors' loop time grows;
  // the --report RecoverySummary shows detection == lease per row.
  {
    harness::banner("Lease sensitivity: one death at t=4ms, varying lease");
    const MicroScenario base = base_scenario(net::whale(), drv.full());
    const std::vector<std::string> leases = {"5e-4", "1e-3", "2e-3", "4e-3",
                                             "8e-3"};
    std::vector<RunOutcome> runs(leases.size());
    drv.pool().run_indexed(leases.size(), [&](std::size_t i) {
      MicroScenario s = base;
      s.fault_plan = "seed=31;kill=5@0.004;lease=" + leases[i];
      s.fault_plan_name = "lease" + leases[i];
      runs[i] = run_adcl(s, tuning());
    });
    harness::Table t({"lease[s]", "winner", "loop_time[s]", "decision_iter"});
    for (std::size_t i = 0; i < leases.size(); ++i) {
      t.add_row({leases[i], runs[i].impl,
                 harness::Table::num(runs[i].loop_time),
                 std::to_string(runs[i].decision_iteration)});
    }
    t.print();
  }
  return 0;
}
