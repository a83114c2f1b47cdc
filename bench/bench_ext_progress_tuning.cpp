// Extension bench (paper §III-C): "auto-tuning offers for this scenario
// the unique opportunity to optimize the number and frequency of progress
// calls".  The paper leaves this as an observation; here the Ialltoall
// function-set is crossed with a "progress" attribute and the tuner picks
// the (algorithm, progress-count) pair jointly.  The application reads
// the tuned count through Request::recommended_progress_calls().
//
// Output: the full fixed grid (every algorithm at every count) versus the
// co-tuned request, on whale and whale-tcp.

#include <vector>

#include "bench_util.hpp"
#include "mpi/world.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"

using namespace nbctune;
using namespace nbctune::harness;

namespace {

struct GridResult {
  double loop_time = 0.0;
  std::string impl;
};

/// The run shape shared by every grid point and tuned run on `platform`.
MicroScenario grid_scenario(const net::Platform& platform) {
  MicroScenario s;
  s.platform = platform;
  s.nprocs = 32;
  s.op = OpKind::Ialltoall;
  s.bytes = 128 * 1024;
  s.compute_per_iter = 20e-3;
  s.noise_scale = 0;
  return s;
}

/// One run; pc < 0 means "ask the request each iteration".  The trace
/// key puts every fixed grid point and tuned run of a platform in one
/// analyzer comparison group: progress calls stay out of it, because the
/// tuned runs choose them.
GridResult run_once(const MicroScenario& s, int pinned_fn, int pc,
                    const std::vector<int>& counts, int iters, bool tuned,
                    const std::string& impl,
                    adcl::PolicyKind policy = adcl::PolicyKind::BruteForce) {
  GridResult out;
  trace::ScenarioKey key = scenario_key(s, tuned, impl);
  key.progress_calls = -1;
  trace::Scope scope(std::move(key));
  sim::Engine engine(5);
  net::Machine machine(s.platform);
  mpi::WorldOptions wopts;
  wopts.nprocs = s.nprocs;
  wopts.noise_scale = s.noise_scale;
  mpi::World world(engine, machine, wopts);
  world.launch([&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    adcl::OpArgs args;
    args.comm = comm;
    args.bytes = s.bytes;
    adcl::TuningOptions opts;
    opts.tests_per_function = 1;
    opts.policy = policy;
    auto req = adcl::request_create(
        ctx, adcl::make_ialltoall_progress_functionset(counts), args, opts);
    if (pinned_fn >= 0) req->selection().force_winner(pinned_fn);
    const double t0 = ctx.now();
    for (int it = 0; it < iters; ++it) {
      const int calls = pc >= 0 ? pc : req->recommended_progress_calls(1);
      req->init();
      for (int p = 0; p < calls; ++p) {
        ctx.compute(s.compute_per_iter / calls);
        req->progress();
      }
      req->wait();
    }
    if (ctx.world_rank() == 0) {
      out.loop_time = ctx.now() - t0;
      out.impl = req->selection().decided() ? req->current_function().name
                                            : "<undecided>";
    }
  });
  engine.run();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver drv("ext-progress-tuning", argc, argv);
  const std::vector<int> counts{1, 5, 20, 100};
  auto fset = adcl::make_ialltoall_progress_functionset(counts);
  const int iters = drv.full() ? 80 : 40;

  for (const auto& platform : {net::whale(), net::whale_tcp()}) {
    const MicroScenario grid = grid_scenario(platform);
    banner("Extension: joint (algorithm, progress-count) tuning — " +
           platform.name + ", 32 procs, 128 KB, 20 ms compute/iter");
    Table t({"implementation", "loop_time[s]", "vs_best"});
    double best = 1e300;
    std::string best_name;
    std::vector<std::pair<std::string, double>> rows;
    for (std::size_t f = 0; f < fset->size(); ++f) {
      // Fixed grid point: algorithm + count pinned; drive at its count.
      const int pc = fset->function(f).attrs.at(1);
      const auto r = run_once(grid, static_cast<int>(f), pc, counts, iters,
                              /*tuned=*/false, fset->function(f).name);
      rows.emplace_back(fset->function(f).name, r.loop_time);
      if (r.loop_time < best) {
        best = r.loop_time;
        best_name = fset->function(f).name;
      }
    }
    const auto tuned = run_once(grid, -1, -1, counts, iters,
                                /*tuned=*/true, "brute-force");
    // The attribute heuristic prunes the 12-function grid to ~one sweep
    // per attribute — a shorter learning phase at the risk of missing
    // algorithm/progress-count interactions.
    const auto heur = run_once(grid, -1, -1, counts, iters, /*tuned=*/true,
                               "heuristic",
                               adcl::PolicyKind::AttributeHeuristic);
    for (const auto& [name, time] : rows) {
      t.add_row({name, Table::num(time), Table::num(time / best, 2)});
    }
    t.add_row({"ADCL(brute-force)", Table::num(tuned.loop_time),
               Table::num(tuned.loop_time / best, 2)});
    t.add_row({"ADCL(heuristic)", Table::num(heur.loop_time),
               Table::num(heur.loop_time / best, 2)});
    t.print();
    std::cout << "best fixed grid point: " << best_name
              << "; brute-force winner: " << tuned.impl
              << "; heuristic winner: " << heur.impl << "\n";
  }
  std::cout << "\nExpected: the tuned run converges on (or within a few "
               "percent of)\nthe best (algorithm, count) pair on both "
               "networks, paying only its\nlearning phase — no a-priori "
               "grid search needed.\n";
  return 0;
}
