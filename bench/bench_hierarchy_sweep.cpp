// Hierarchy sweep: multi-rail scatter mappings and two-level collectives
// on the crill preset (16 nodes x 48 cores, two IB HCAs per node).
//
// Part 1 ("+topo=rails2") — Iscatter mapping comparison at np 96 (two
// nodes), CommBench-style: at small sizes per-message overheads dominate
// and the mappings tie; at large sizes the fan mapping chokes on rail 0
// while rail round-robin and striping spread the serialization across
// both HCAs.
//
// Part 2 ("+topo=hier") — flat vs two-level Ibcast and Iallreduce fixed
// runs on the extended function-sets: the two-level variants send the
// same number of payload messages but cross the inter-node link once per
// node instead of scattering crossings through every tree round, so they
// win at large sizes (the analyzer's G7 material).
//
// Part 3 — ADCL on the extended sets: the tuned winner switches from a
// flat member at small sizes to the striped / two-level member at large
// sizes.

#include "bench_util.hpp"
#include "net/platform.hpp"

using namespace nbctune;
using namespace nbctune::harness;

namespace {

MicroScenario base_scenario(const bench::Driver& drv) {
  MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 96;  // two 48-core nodes
  s.compute_per_iter = 2e-3;
  s.progress_calls = 5;
  s.iterations = drv.full() ? 16 : 6;
  s.noise_scale = 0.0;  // systematic comparison: noise off
  drv.configure(s);
  return s;
}

void print_adcl(const std::string& title, const MicroScenario& s) {
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  const RunOutcome o = run_adcl(s, opts);
  std::cout << title << ": winner=" << o.impl << " decided@iter="
            << o.decision_iteration
            << " loop_time=" << Table::num(o.loop_time) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver drv("hierarchy", argc, argv);

  // --- Part 1: Iscatter rail mappings --------------------------------
  for (std::size_t bytes :
       {std::size_t{4096}, std::size_t{65536}, std::size_t{1048576}}) {
    MicroScenario s = base_scenario(drv);
    s.op = OpKind::Iscatter;
    s.bytes = bytes;
    s.topo_tag = "rails2";
    bench::print_fixed_comparison(
        "Hierarchy: Iscatter rail mappings — crill, 96 procs, " +
            std::to_string(bytes) + " B per block",
        s, drv.pool());
  }

  // --- Part 2: flat vs two-level -------------------------------------
  for (std::size_t bytes : {std::size_t{16384}, std::size_t{1048576}}) {
    MicroScenario s = base_scenario(drv);
    s.op = OpKind::Ibcast;
    s.bytes = bytes;
    s.include_hierarchical = true;
    s.topo_tag = "hier";
    bench::print_fixed_comparison(
        "Hierarchy: Ibcast flat vs two-level — crill, 96 procs, " +
            std::to_string(bytes) + " B",
        s, drv.pool());
  }
  for (std::size_t bytes : {std::size_t{16384}, std::size_t{1048576}}) {
    MicroScenario s = base_scenario(drv);
    s.op = OpKind::Iallreduce;
    s.bytes = bytes;
    s.include_hierarchical = true;
    s.topo_tag = "hier";
    bench::print_fixed_comparison(
        "Hierarchy: Iallreduce flat vs two-level — crill, 96 procs, " +
            std::to_string(bytes) + " B",
        s, drv.pool());
  }

  // --- Part 3: the tuner switches with the message size --------------
  harness::banner("Hierarchy: ADCL winner switch (brute-force)");
  for (std::size_t bytes : {std::size_t{4096}, std::size_t{1048576}}) {
    MicroScenario s = base_scenario(drv);
    s.op = OpKind::Iscatter;
    s.bytes = bytes;
    s.topo_tag = "rails2";
    s.iterations = drv.full() ? 24 : 14;  // learning phase + steady state
    print_adcl("iscatter " + std::to_string(bytes) + "B", s);
  }
  for (std::size_t bytes : {std::size_t{16384}, std::size_t{1048576}}) {
    MicroScenario s = base_scenario(drv);
    s.op = OpKind::Iallreduce;
    s.bytes = bytes;
    s.include_hierarchical = true;
    s.topo_tag = "hier";
    s.iterations = drv.full() ? 24 : 14;
    print_adcl("iallreduce " + std::to_string(bytes) + "B", s);
  }
  return 0;
}
