// The four workloads.  Each pass sets up from scratch (seed draw,
// function sets, pool, observability, worlds), runs its simulated worlds
// through the library's public entry points, checks every outcome and
// records the host time of each phase.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "adcl/adcl.hpp"
#include "analyze/analyze.hpp"
#include "bench.hpp"
#include "fault/fault.hpp"
#include "fft/fft3d.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "obs/live.hpp"
#include "obs/sampler.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace nbctune;
using trace::Ctr;

namespace {

/// Event-buffer cap for the traced pass of workloads whose own tracing is
/// off: counters stay exact, the buffers stay small.
constexpr const char* kTraceCap = "4096";

/// Pins the calling thread to the next CPU the process may use, round
/// robin, and gives it all of them back when destroyed.  Left to the
/// scheduler, a lone thread stays on one core for a whole run, so
/// whatever slows that core (on a shared host, other tenants) sets the
/// run's speed.  Serial phases (each world of a one-worker pass, the
/// report phase) take the next core instead, so every run samples every
/// core, as a multi-worker sweep does.
class CpuTurn {
 public:
  explicit CpuTurn(bool on = true) {
    static std::atomic<std::size_t> next{0};
    const std::vector<int>& ids = cpus().ids;
    if (!on || ids.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(ids[next++ % ids.size()], &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~CpuTurn() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &cpus().all);
    }
  }
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  struct Cpus {
    cpu_set_t all;
    std::vector<int> ids;
  };
  /// The process's CPU set, read on first use, before any pin.
  static const Cpus& cpus() {
    static const Cpus c = [] {
      Cpus out;
      CPU_ZERO(&out.all);
      if (sched_getaffinity(0, sizeof(out.all), &out.all) == 0) {
        for (int i = 0; i < CPU_SETSIZE; ++i) {
          if (CPU_ISSET(i, &out.all)) out.ids.push_back(i);
        }
      }
      return out;
    }();
    return c;
  }
  bool pinned_ = false;
};

/// Runs one pool batch; every task is one simulated world.  Exceptions
/// are caught per task, so a failing world counts into the pass's
/// failures instead of aborting the sweep.
template <typename Body>
void run_batch(harness::ScenarioPool& pool, std::size_t n, const char* name,
               Spans* spans, Pass& pass, std::mutex& mu, Body&& body) {
  std::vector<double> ms(n, 0.0);
  const int first_run = static_cast<int>(pass.run_ms.size());
  const int batch = spans != nullptr ? Spans::current() : -1;
  pass.attempted += n;
  pool.run_indexed(n, [&](std::size_t i) {
    const CpuTurn turn(pool.threads() == 1);
    const double t0 = now_s();
    try {
      SpanScope span(spans, name, first_run + static_cast<int>(i), batch);
      body(i);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      pass.fail(std::string(name) + " #" + std::to_string(i) + ": " +
                    e.what(),
                first_run + i);
    }
    ms[i] = (now_s() - t0) * 1e3;
  });
  pass.run_ms.insert(pass.run_ms.end(), ms.begin(), ms.end());
}

/// Common outcome checks: simulated time finite and positive; a tuned run
/// decided on a member of its set.
void check_outcome(const harness::RunOutcome& r, const adcl::FunctionSet& fs,
                   bool tuned, const std::string& what, std::size_t run,
                   Pass& pass) {
  if (!std::isfinite(r.loop_time) || r.loop_time <= 0.0) {
    pass.fail(what + ": simulated time " + num(r.loop_time), run);
  }
  if (fs.find_by_name(r.impl) < 0) {
    pass.fail(what + ": winner '" + r.impl + "' not in " + fs.name(), run);
  }
  if (tuned && r.decision_iteration < 0) {
    pass.fail(what + ": tuned run never decided", run);
  }
}

void outcome_line(std::ostringstream& os, const harness::RunOutcome& r) {
  os << " " << r.impl << "=" << num(r.loop_time) << "@"
     << r.decision_iteration;
}

/// Output stream target that discards bytes and counts them: exports are
/// formatted in full, as for a file, without the file system's noise.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
};

/// Traced pass bookkeeping shared by every workload: enables the trace
/// session (capped unless the workload records everything itself) before
/// the sweep, then drains it and checks the G1 ledger per world.
struct TraceTap {
  explicit TraceTap(bool on, bool capped) : on_(on) {
    if (!on_) return;
    if (capped) ::setenv("NBCTUNE_TRACE_MAX_EVENTS", kTraceCap, 1);
    trace::Session::enable();
  }
  /// Sum per-world counters of every adopted trace and check the ledger.
  void collect(std::vector<trace::FinishedTrace> traces, Pass& pass) {
    if (!on_) return;
    CounterTotals c;
    for (std::size_t run = 0; run < traces.size(); ++run) {
      const trace::FinishedTrace& t = traces[run];
      c.add(t);
      const std::uint64_t started =
          t.counts[static_cast<std::size_t>(Ctr::NbcOpsStarted)];
      const std::uint64_t done =
          t.counts[static_cast<std::size_t>(Ctr::NbcOpsCompleted)] +
          t.counts[static_cast<std::size_t>(Ctr::NbcOpsAborted)];
      if (started != done) {
        pass.fail(t.label + ": G1 ledger started " + std::to_string(started) +
                      " != completed+aborted " + std::to_string(done),
                  run);
      }
    }
    layer_from_counters(c, pass);
  }
  bool on_;
};

}  // namespace

// ============================================================ tune_sweep
//
// §IV-A verification runs.  Sixteen classes, {Ialltoall, Ibcast} x
// {whale, crill} x {1 KiB, 128-256 KiB} x progress calls {5, 100}; every
// seed draws one scenario per class.  A class fixes its rank band, so the
// seed moves only in-class values (ranks within the band, the large
// message size, the simulation seed) and the host work stays comparable
// across seeds.

namespace {

/// One class pair: the whale and crill scenarios share a rank band
/// [np_lo, np_lo + 4).
struct TuneClass {
  harness::OpKind op;
  bool large;
  int pc;
  int np_lo;
};

// Rank bands cover 32..96.  Ibcast with 100 progress calls dominates the
// host work (21 members x 88 iterations x 100 progress passes per rank),
// so its bands sit at the low end of the range.
constexpr TuneClass kTuneClasses[] = {
    {harness::OpKind::Ialltoall, false, 5, 88},
    {harness::OpKind::Ialltoall, false, 100, 56},
    {harness::OpKind::Ialltoall, true, 5, 72},
    {harness::OpKind::Ialltoall, true, 100, 40},
    {harness::OpKind::Ibcast, false, 5, 92},
    {harness::OpKind::Ibcast, false, 100, 32},
    {harness::OpKind::Ibcast, true, 5, 64},
    {harness::OpKind::Ibcast, true, 100, 36},
};

struct TuneSetup {
  std::vector<harness::MicroScenario> scen;
  std::vector<std::shared_ptr<const adcl::FunctionSet>> fsets;
  std::unique_ptr<harness::ScenarioPool> pool;
};

TuneSetup tune_setup(const Options& o, int tests) {
  TuneSetup t;
  std::uint64_t st = o.seed * 0x9e3779b97f4a7c15ull + 1;
  for (const TuneClass& c : kTuneClasses) {
    // Antithetic draws over the platform pair: whale takes rank offset j
    // and crill 3 - j; the large Ibcast sizes are b and 384 KiB - b.  The
    // pair's host work then barely moves with the seed.
    const int j = static_cast<int>(mix(st) % 4);
    const std::size_t kib = 128 + 32 * (mix(st) % 5);  // 128..256 KiB
    for (bool crill : {false, true}) {
      harness::MicroScenario s;
      s.platform = crill ? net::crill() : net::whale();
      s.op = c.op;
      s.nprocs = o.smoke ? 8 : c.np_lo + (crill ? 3 - j : j);
      s.bytes = !c.large                              ? 1024
                : c.op == harness::OpKind::Ialltoall ? 128 * 1024
                                                      : (crill ? 384 - kib : kib) * 1024;
      s.compute_per_iter = c.op == harness::OpKind::Ialltoall ? 10e-3 : 5e-3;
      s.progress_calls = c.pc;
      s.noise_scale = 1.0;  // the filter has outliers to remove
      s.seed = mix(st);
      t.fsets.push_back(harness::scenario_functionset(s));
      const int nfun = static_cast<int>(t.fsets.back()->size());
      s.iterations = o.smoke ? nfun + 2 : nfun * tests + 4;
      t.scen.push_back(s);
    }
  }
  if (o.smoke) {
    t.scen.resize(4);
    t.fsets.resize(4);
  }
  t.pool = std::make_unique<harness::ScenarioPool>(o.workers);
  return t;
}

}  // namespace

Pass run_tune_sweep(const Options& o, Spans* spans) {
  Pass pass;
  TraceTap tap(o.traced, /*capped=*/true);
  constexpr int kTests = 4;

  // ---- setup: seed draw, function sets, pool start.  One set-up costs
  // tens of microseconds, and its cost follows the host core the main
  // thread sits on at that moment, so it is timed a few times here and
  // again after every batch; setup_s is the median of all of them.
  constexpr int kRepsPerPoint = 3;
  std::vector<double> setups;
  auto timed_setup = [&] {
    const double t = now_s();
    TuneSetup next = tune_setup(o, kTests);
    setups.push_back(now_s() - t);
    return next;
  };
  TuneSetup su;
  for (int r = 0; r < kRepsPerPoint; ++r) su = timed_setup();
  double resample_s = 0;  // re-timing between batches, kept out of wall_s
  const std::vector<harness::MicroScenario>& scen = su.scen;
  const std::vector<std::shared_ptr<const adcl::FunctionSet>>& fsets =
      su.fsets;
  harness::ScenarioPool& pool = *su.pool;
  pass.workers = pool.threads();
  const double t_sim = now_s();

  // ---- simulation: one pool batch per scenario (fixed members + the two
  // ADCL policies), closed loop over the pool's workers.
  std::mutex mu;
  std::vector<std::vector<harness::RunOutcome>> runs(scen.size());
  const std::uint64_t steals0 = pool.stats().steals;
  for (std::size_t k = 0; k < scen.size(); ++k) {
    const harness::MicroScenario& s = scen[k];
    const std::size_t nfun = fsets[k]->size();
    runs[k].resize(nfun + 2);
    adcl::TuningOptions bf;
    bf.policy = adcl::PolicyKind::BruteForce;
    bf.tests_per_function = o.smoke ? 1 : kTests;
    adcl::TuningOptions heur = bf;
    heur.policy = adcl::PolicyKind::AttributeHeuristic;
    {
      SpanScope batch(spans, "pool.batch");
      run_batch(pool, nfun + 2, "harness.run", spans, pass, mu,
                [&](std::size_t i) {
                  if (i < nfun) {
                    SpanScope span(spans, "run_fixed");
                    runs[k][i] = harness::run_fixed(s, static_cast<int>(i));
                  } else {
                    SpanScope span(spans, "run_adcl");
                    runs[k][i] = harness::run_adcl(s, i == nfun ? bf : heur);
                  }
                });
    }
    const double t = now_s();
    for (int r = 0; r < kRepsPerPoint; ++r) (void)timed_setup();
    resample_s += now_s() - t;
  }
  pass.steals = pool.stats().steals - steals0;
  pass.setup_s = median(setups);
  const double t_runs = now_s();
  pass.sweep_s = t_runs - t_sim - resample_s;

  // ---- outputs: checks, §IV-A correctness recomputed from the fixed
  // runs, the outcome table.
  std::ostringstream os;
  int tuned = 0, correct = 0;
  std::size_t run = 0;  // run index, in submission order
  for (std::size_t k = 0; k < scen.size(); ++k) {
    const harness::MicroScenario& s = scen[k];
    const adcl::FunctionSet& fs = *fsets[k];
    const std::size_t nfun = fs.size();
    os << harness::op_name(s.op) << " " << s.platform.name << " np"
       << s.nprocs << " " << s.bytes << "B pc" << s.progress_calls;
    double best = INFINITY;
    for (std::size_t i = 0; i < nfun; ++i, ++run) {
      check_outcome(runs[k][i], fs, false, "fixed", run, pass);
      if (runs[k][i].impl != fs.function(static_cast<int>(i)).name) {
        pass.fail("fixed run reports " + runs[k][i].impl, run);
      }
      best = std::min(best, runs[k][i].loop_time);
      outcome_line(os, runs[k][i]);
    }
    for (std::size_t i = nfun; i < nfun + 2; ++i, ++run) {
      const harness::RunOutcome& r = runs[k][i];
      check_outcome(r, fs, true, "adcl", run, pass);
      outcome_line(os, r);
      const int f = fs.find_by_name(r.impl);
      const bool ok =
          f >= 0 && runs[k][static_cast<std::size_t>(f)].loop_time <=
                        best * (1 + harness::kCorrectTolerance);
      ++tuned;
      correct += ok ? 1 : 0;
      os << (ok ? "[ok]" : "[miss]");
    }
    os << "\n";
  }
  pass.decision_accuracy = tuned > 0 ? double(correct) / tuned : 1.0;
  os << "correct " << correct << "/" << tuned << "\n";
  pass.outcomes = os.str();
  const double t_end = now_s();
  pass.report_s = t_end - t_runs;
  pass.wall_s = pass.setup_s + (t_end - t_sim - resample_s);

  if (o.traced) {
    tap.collect(trace::Session::instance().drain(), pass);
    double learn = 0, total = 0;
    for (std::size_t k = 0; k < scen.size(); ++k) {
      for (std::size_t i = fsets[k]->size(); i < runs[k].size(); ++i) {
        learn += std::max(0, runs[k][i].decision_iteration);
        total += scen[k].iterations;
      }
    }
    pass.layer["adcl.learning_share"] = total > 0 ? learn / total : 0.0;
  }
  return pass;
}

// ================================================================ fft_app
//
// §IV-B 3-D FFT kernel in cost-model mode, LibNBC vs ADCL.  One cell per
// overlap pattern; each pattern's slab depth gives it exactly `window`
// tiles, so the windowed patterns keep three co-tuned transposes in
// flight per rank.  The seed rotates platforms over the cells and draws
// the rank count inside each cell's band of 96..160.

namespace {

struct FftCell {
  fft::Pattern pattern;
  const char* platform;
  int np_lo;   ///< rank band [np_lo, np_lo + 4)
  int planes;  ///< slab depth L = N / P (tiles = L / tile)
};

struct FftResult {
  double total = 0, post = 0;
  int post_iters = 0, decision = -1;
  std::string winner;
};

constexpr int kFftIters = 4;         ///< 3 learning + 1 decided iteration
constexpr int kFftLibnbcIters = 1;   ///< fixed algorithm, no noise: steady
constexpr int kPaperIters = 350;     ///< bench_fft_sweep's amortization

/// One FFT world built by the benchmark itself: construction and launch
/// are set-up, Engine::run is simulation, destruction is teardown.
FftResult run_fft_world(const net::Platform& platform, int nprocs, int n,
                        fft::Pattern pattern, fft::Backend backend, int iters,
                        std::uint64_t seed, Spans* spans, double& setup_s,
                        std::vector<double>& teardown_ms,
                        std::vector<double>& iter_ms) {
  FftResult out;
  const double tb = now_s();
  // A no-op unless the trace session is on (the traced pass).
  trace::Scope scope(std::string("fft3d ") + platform.name + " np" +
                     std::to_string(nprocs) + " n" + std::to_string(n) + " " +
                     fft::pattern_name(pattern) + " " +
                     fft::backend_name(backend));
  auto engine = std::make_unique<sim::Engine>(seed);
  auto machine = std::make_unique<net::Machine>(platform);
  std::unique_ptr<mpi::World> world;
  std::vector<double> it_ms;
  {
    SpanScope span(spans, "world.construct");
    mpi::WorldOptions w;
    w.nprocs = nprocs;
    w.seed = seed;
    w.noise_scale = 0.0;  // systematic back-end comparison
    world = std::make_unique<mpi::World>(*engine, *machine, w);
  }
  {
    SpanScope span(spans, "world.launch");
    world->launch([&](mpi::Ctx& ctx) {
      fft::Fft3dOptions opt;
      opt.n = n;
      opt.pattern = pattern;
      opt.backend = backend;
      opt.real_math = false;
      opt.tuning.tests_per_function = 1;
      fft::Fft3d kernel(ctx, ctx.world().comm_world(), opt);
      std::vector<double> times;
      const double t0 = ctx.now();
      int decided_at = -1;
      for (int it = 0; it < iters; ++it) {
        const double s = ctx.now();
        const double h = ctx.world_rank() == 0 ? now_s() : 0.0;
        kernel.run_iteration();
        if (ctx.world_rank() == 0) it_ms.push_back((now_s() - h) * 1e3);
        times.push_back(ctx.now() - s);
        if (decided_at < 0 && kernel.selection() != nullptr &&
            kernel.selection()->decided()) {
          decided_at = it + 1;
        }
      }
      if (ctx.world_rank() == 0) {
        out.total = ctx.now() - t0;
        const int cut = decided_at < 0 ? 0 : decided_at;
        for (int it = cut; it < iters; ++it) out.post += times[it];
        out.post_iters = iters - cut;
        out.decision = decided_at;
        if (kernel.selection() != nullptr && kernel.selection()->decided()) {
          const adcl::SelectionState& sel = *kernel.selection();
          out.winner = sel.function_set().function(sel.winner()).name;
        }
      }
    });
  }
  setup_s += now_s() - tb;
  {
    SpanScope span(spans, "engine.run");
    engine->run();
  }
  const double td = now_s();
  {
    SpanScope span(spans, "world.teardown");
    world.reset();
    machine.reset();
    engine.reset();
  }
  teardown_ms.push_back((now_s() - td) * 1e3);
  iter_ms.insert(iter_ms.end(), it_ms.begin(), it_ms.end());
  return out;
}

}  // namespace

Pass run_fft_app(const Options& o, Spans* spans) {
  Pass pass;
  TraceTap tap(o.traced, /*capped=*/true);
  malloc_trim(0);  // boot into fresh pages, as in run_scale_boot
  const double t0 = now_s();

  // ---- setup: seed draw and pool start (worlds are set up per run).
  // Each cell keeps its platform; the seed draws the rank count inside
  // the cell's band, so the host work barely moves with the seed.
  const std::vector<FftCell> cells = {
      {fft::Pattern::Pipelined, "whale", 128, 2},
      {fft::Pattern::Tiled, "crill", 112, 20},
      {fft::Pattern::Windowed, "bgp", 100, 3},
      {fft::Pattern::WindowTiled, "whale", 96, 30},
  };
  std::uint64_t st = o.seed * 0xbf58476d1ce4e5b9ull + 3;
  struct Unit {
    net::Platform platform;
    int np, n;
    fft::Pattern pattern;
    std::uint64_t seed;
  };
  std::vector<Unit> units;
  for (const FftCell& c : cells) {
    const int np = o.smoke ? 8 : c.np_lo + static_cast<int>(mix(st) % 4);
    const int planes = o.smoke ? std::min(c.planes, 3) : c.planes;
    units.push_back({net::platform_by_name(c.platform), np, np * planes,
                     c.pattern, mix(st)});
  }
  harness::ScenarioPool pool(1);  // one worker: pool changes show nothing
  pass.workers = pool.threads();
  double setup = now_s() - t0;

  // ---- simulation, closed loop on one worker: LibNBC then ADCL per cell.
  std::mutex mu;
  std::vector<FftResult> res(units.size() * 2);
  std::vector<double> teardown_ms, iter_ms;
  const double t_sim = now_s();
  {
    SpanScope batch(spans, "pool.batch");
    run_batch(pool, res.size(), "harness.run", spans, pass, mu,
              [&](std::size_t i) {
                const Unit& u = units[i / 2];
                const bool adcl = i % 2 == 1;
                SpanScope span(spans, "fft.run");
                res[i] = run_fft_world(
                    u.platform, u.np, u.n, u.pattern,
                    adcl ? fft::Backend::Adcl : fft::Backend::LibNBC,
                    adcl ? kFftIters : kFftLibnbcIters, u.seed, spans, setup,
                    teardown_ms, iter_ms);
              });
  }
  const double t_runs = now_s();
  pass.sweep_s = t_runs - t_sim;
  pass.setup_s = setup;

  // ---- outputs: checks, the amortized ADCL/LibNBC ratio per cell.
  const auto a2a_set = adcl::make_ialltoall_functionset();
  std::ostringstream os;
  double log_sum = 0;
  for (std::size_t c = 0; c < units.size(); ++c) {
    const FftResult& nbc = res[2 * c];
    const FftResult& ad = res[2 * c + 1];
    const std::string cell = units[c].platform.name + " np" +
                             std::to_string(units[c].np) + " n" +
                             std::to_string(units[c].n) + " " +
                             fft::pattern_name(units[c].pattern);
    os << cell;
    for (std::size_t b = 0; b < 2; ++b) {
      const FftResult& r = res[2 * c + b];
      if (!std::isfinite(r.total) || r.total <= 0.0) {
        pass.fail(cell + ": simulated time " + num(r.total), 2 * c + b);
      }
    }
    if (ad.winner.empty() || ad.decision < 0) {
      pass.fail(cell + ": ADCL back-end never decided", 2 * c + 1);
    } else if (a2a_set->find_by_name(ad.winner) < 0) {
      pass.fail(cell + ": winner '" + ad.winner + "' not in the set",
                2 * c + 1);
    }
    const double nbc350 = nbc.total / kFftLibnbcIters * kPaperIters;
    const double ad_rate = ad.post / std::max(1, ad.post_iters);
    const double ad350 = (ad.total - ad.post) +
                         ad_rate * (kPaperIters - (kFftIters - ad.post_iters));
    const double ratio = ad350 / nbc350;
    if (!std::isfinite(ratio) || ratio <= 0.0) {
      pass.fail(cell + ": ratio " + num(ratio), 2 * c + 1);
    } else {
      log_sum += std::log(ratio);
    }
    os << " libnbc=" << num(nbc.total) << " adcl=" << num(ad.total) << " "
       << ad.winner << "@" << ad.decision << " ratio350=" << num(ratio)
       << "\n";
  }
  pass.fft_adcl_ratio = std::exp(log_sum / static_cast<double>(units.size()));
  pass.outcomes = os.str();
  const double t_end = now_s();
  pass.report_s = t_end - t_runs;
  pass.wall_s = t_end - t0;

  if (o.traced) {
    tap.collect(trace::Session::instance().drain(), pass);
    pass.layer["fft.iterations"] = static_cast<double>(iter_ms.size());
    pass.layer["fft.iteration_host_ms"] = median(iter_ms);
    pass.layer["mpi.world_teardown_ms"] = median(teardown_ms);
    double learn = 0;  // ADCL iterations up to each cell's decision
    for (std::size_t c = 0; c < units.size(); ++c) {
      learn += std::max(0, res[2 * c + 1].decision);
    }
    pass.layer["adcl.learning_share"] =
        learn / double(kFftIters * units.size());
  }
  return pass;
}

// ========================================================= faults_report
//
// The fig-3 tuned Ialltoall (128 KiB, 10 ms compute, 5 progress calls)
// at 16 ranks on whale and whale-tcp under every canned fault plan,
// message-level and kill plans alike, with the program's
// observability on as CI runs it: trace session, live JSONL stream with
// its gauge sampler (to /dev/null), report JSON, counter dump and Chrome
// export (formatted in full into a counting sink).  The seed draws one
// simulation seed per platform, shared by all of its plans; with the
// plan's own seed it seeds each plan's injector, so a seed fixes the
// injected load.  It also draws the order in which each batch submits its
// plans to the pool.

namespace {

/// Traced pass only: forwards the library's live-sink callbacks with a
/// span around each, so the sink's own cost shows in the span dump.
class TimedLive final : public trace::Session::Listener,
                        public harness::PoolObserver {
 public:
  TimedLive(obs::LiveSink& sink, Spans* spans) : sink_(sink), spans_(spans) {}
  void on_scope_start(const std::string& label) override {
    SpanScope span(spans_, "obs.on_scope_start");
    sink_.on_scope_start(label);
  }
  void on_scope_finish(const trace::FinishedTrace& t) override {
    SpanScope span(spans_, "obs.on_scope_finish");
    sink_.on_scope_finish(t);
  }
  void on_batch_begin(std::size_t tasks) override {
    SpanScope span(spans_, "obs.on_batch_begin");
    sink_.on_batch_begin(tasks);
  }
  void on_task_failed(std::size_t index, const char* what) override {
    SpanScope span(spans_, "obs.on_task_failed");
    sink_.on_task_failed(index, what);
  }

 private:
  obs::LiveSink& sink_;
  Spans* spans_;
};

/// The observability a CI sweep opens: pool, live sink (with the span
/// forwarder in the traced pass) and its gauge sampler.
struct FaultSetup {
  std::unique_ptr<harness::ScenarioPool> pool;
  std::unique_ptr<obs::LiveSink> sink;
  std::unique_ptr<TimedLive> timed;
  std::unique_ptr<obs::Sampler> sampler;

  /// Stop the sampler (one final gauge record) and detach the sink.
  void detach() {
    sampler->stop();
    trace::Session::set_listener(nullptr);
    pool->set_observer(nullptr);
  }
};

/// The sub-millisecond set-up is repeated this often per pass and reported
/// as its median; the pass runs on the last repetition.
constexpr int kSetupReps = 51;

FaultSetup fault_setup(const Options& o, Spans* spans) {
  FaultSetup f;
  f.pool = std::make_unique<harness::ScenarioPool>(o.workers);
  SpanScope span(spans, "obs.open");
  f.sink = std::make_unique<obs::LiveSink>("/dev/null", "perfbench",
                                           f.pool->threads());
  if (!f.sink->ok()) throw std::runtime_error("cannot open /dev/null");
  if (spans != nullptr) {
    f.timed = std::make_unique<TimedLive>(*f.sink, spans);
    trace::Session::set_listener(f.timed.get());
    f.pool->set_observer(f.timed.get());
  } else {
    trace::Session::set_listener(f.sink.get());
    f.pool->set_observer(f.sink.get());
  }
  f.sampler = std::make_unique<obs::Sampler>(
      [sink = f.sink.get(), pool = f.pool.get()] {
        sink->sample(pool->stats());
      },
      100);
  return f;
}

}  // namespace

Pass run_faults_report(const Options& o, Spans* spans) {
  Pass pass;
  TraceTap tap(o.traced, /*capped=*/false);
  trace::Session::enable();  // the workload's own observability
  (void)trace::Session::instance().drain();

  // ---- setup: seed draw, plans, pool start, observability open.
  std::uint64_t st = o.seed * 0x94d049bb133111ebull + 5;
  const std::vector<fault::CannedPlan>& plans = fault::canned_plans();
  const std::size_t nplans = o.smoke ? 3 : plans.size();
  std::vector<std::vector<std::size_t>> order(2);
  for (std::vector<std::size_t>& ord : order) {
    for (std::size_t i = 0; i < nplans; ++i) ord.push_back(i);
    for (std::size_t i = nplans; i > 1; --i) {
      std::swap(ord[i - 1], ord[mix(st) % i]);
    }
  }
  const std::uint64_t sim_seed[2] = {mix(st), mix(st)};  // per platform
  FaultSetup su;
  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t = now_s();
    FaultSetup next = fault_setup(o, spans);
    setups.push_back(now_s() - t);
    if (r + 1 < kSetupReps) {
      next.detach();
    } else {
      su = std::move(next);
    }
  }
  pass.setup_s = median(setups);
  harness::ScenarioPool& pool = *su.pool;
  pass.workers = pool.threads();
  const double t_sim = now_s();

  // ---- simulation: one batch per platform, one tuned run per plan.
  std::mutex mu;
  const std::vector<net::Platform> platforms = {net::whale(),
                                                net::whale_tcp()};
  std::vector<harness::RunOutcome> runs(platforms.size() * nplans);
  adcl::TuningOptions opts;
  opts.policy = adcl::PolicyKind::BruteForce;
  opts.tests_per_function = 2;
  std::size_t batches = 0;
  const std::uint64_t steals0 = pool.stats().steals;
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    SpanScope batch(spans, "pool.batch");
    ++batches;
    run_batch(pool, nplans, "harness.run", spans, pass, mu,
              [&](std::size_t k) {
                const std::size_t i = order[p][k];
                harness::MicroScenario s;
                s.platform = platforms[p];
                s.nprocs = o.smoke ? 8 : 16;
                s.op = harness::OpKind::Ialltoall;
                s.bytes = 128 * 1024;
                s.compute_per_iter = 10e-3;
                s.progress_calls = 5;
                s.iterations = 8;
                s.noise_scale = 0.0;  // faults are the only perturbation
                s.seed = sim_seed[p];
                s.fault_plan = plans[i].spec;
                s.fault_plan_name = plans[i].name;
                SpanScope span(spans, "run_adcl");
                runs[p * nplans + i] = harness::run_adcl(s, opts);
              });
  }
  pass.steals = pool.stats().steals - steals0;
  const double t_runs = now_s();
  pass.sweep_s = t_runs - t_sim;

  // ---- outputs: checks and the outcome table, then the observability
  // report phase exactly as bench::Driver finishes a traced sweep.
  std::ostringstream os;
  auto fs = adcl::make_ialltoall_functionset();
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    for (std::size_t i = 0; i < nplans; ++i) {
      const harness::RunOutcome& r = runs[p * nplans + i];
      check_outcome(r, *fs, true, platforms[p].name + "/" + plans[i].name,
                    p * nplans + i, pass);
      os << platforms[p].name << " " << plans[i].name;
      outcome_line(os, r);
      os << "\n";
    }
  }
  pass.outcomes = os.str();
  std::vector<trace::FinishedTrace> drained;
  double live_finish_ms = 0, summary_ms = 0, chrome_ms = 0, counters_ms = 0,
         convert_ms = 0, analyze_ms = 0, json_ms = 0;
  double chrome_bytes = 0;
  obs::LiveSink::Totals totals;
  {
    const CpuTurn turn;  // the report phase is serial
    auto t = now_s();
    {
      SpanScope span(spans, "obs.live_finish");
      su.detach();
    }
    live_finish_ms = (now_s() - t) * 1e3;
    trace::Session& session = trace::Session::instance();
    t = now_s();
    {
      SpanScope span(spans, "trace.chrome");
      CountingBuf buf;
      std::ostream out(&buf);
      session.write_chrome(out);
      chrome_bytes = static_cast<double>(buf.bytes);
    }
    chrome_ms = (now_s() - t) * 1e3;
    t = now_s();
    {
      SpanScope span(spans, "trace.counters");
      CountingBuf buf;
      std::ostream out(&buf);
      session.write_counters(out);
    }
    counters_ms = (now_s() - t) * 1e3;
    std::vector<analyze::ScenarioTrace> traces;
    t = now_s();
    {
      SpanScope span(spans, "trace.drain");
      drained = session.drain();
    }
    {
      SpanScope span(spans, "analyze.convert");
      for (const trace::FinishedTrace& f : drained) {
        traces.push_back(analyze::from_finished(f));
      }
    }
    convert_ms = (now_s() - t) * 1e3;
    t = now_s();
    analyze::Report report;
    {
      SpanScope span(spans, "analyze.analyze");
      report = analyze::analyze(traces);
    }
    analyze_ms = (now_s() - t) * 1e3;
    t = now_s();
    std::ostringstream json;
    {
      SpanScope span(spans, "analyze.write");
      analyze::write_json(json, report);
    }
    json_ms = (now_s() - t) * 1e3;
    t = now_s();
    {
      SpanScope span(spans, "obs.summary");
      su.sink->write_summary(report, json.str());
    }
    summary_ms = (now_s() - t) * 1e3;
    totals = su.sink->totals();
    for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
      const analyze::ScenarioReport& r = report.scenarios[i];
      if (r.ops_started != r.ops_completed + r.ops_aborted) {
        pass.fail(r.label + ": report G1 ledger broken", i);
      }
    }
    if (report.scenarios.size() != runs.size()) {
      pass.fail("report covers " + std::to_string(report.scenarios.size()) +
                    " of " + std::to_string(runs.size()) + " worlds",
                runs.size());
    }
  }
  const double t_end = now_s();
  pass.report_s = t_end - t_runs;
  pass.wall_s = pass.setup_s + (t_end - t_sim);

  if (o.traced) {
    tap.collect(std::move(drained), pass);
    pass.layer["trace.chrome_ms"] = chrome_ms;
    pass.layer["trace.chrome_mb"] = chrome_bytes / (1024.0 * 1024.0);
    pass.layer["trace.counters_ms"] = counters_ms;
    pass.layer["analyze.convert_ms"] = convert_ms;
    pass.layer["analyze.analyze_ms"] = analyze_ms;
    pass.layer["analyze.json_ms"] = json_ms;
    const double ev = pass.layer["trace.events"];
    pass.layer["analyze.ns_per_event"] =
        ev > 0 ? (convert_ms + analyze_ms) * 1e6 / ev : 0.0;
    pass.layer["obs.live_finish_ms"] = live_finish_ms;
    pass.layer["obs.summary_ms"] = summary_ms;
    // hello + batch + started + finished + failed + summary; gauge
    // samples are periodic wall-clock records and left out.
    pass.layer["obs.live_records"] =
        static_cast<double>(2 + batches + totals.started + totals.finished +
                            totals.failed);
  }
  return pass;
}

// ============================================================ scale_boot
//
// Large pinned worlds on `mega` in fiber mode: a binomial Ibcast near 32k
// ranks and a recursive-doubling Iallreduce at 4k ranks, two iterations
// each on one worker.  The benchmark builds each Engine, Machine and World
// itself so boot (set-up), run and teardown are timed apart.  An 8k-rank
// Iallreduce world would add 1.8 s of simulation per pass and little boot
// work, leaving too few passes in a run for a steady median.  The seed
// draws the Ibcast rank count and the simulation seeds; the noise model is
// on so the seed reaches every rank's jitter stream.  BENCHMARK.json
// leaves this workload out: on a shared host its run medians spread
// wider than any bound allows (README.md, Workloads).

Pass run_scale_boot(const Options& o, Spans* spans) {
  Pass pass;
  TraceTap tap(o.traced, /*capped=*/true);
  // Hand the last pass's freed worlds back to the OS first, so every pass
  // boots into fresh pages as a sweep process's first pass does.  Without
  // it a later boot reuses some of the old heap, and how much varies from
  // pass to pass by up to 3x.
  malloc_trim(0);
  const double t0 = now_s();
  std::uint64_t st = o.seed * 0xd6e8feb86659fd93ull + 7;
  struct Shape {
    bool bcast;
    int np;
    std::uint64_t seed;
  };
  const std::vector<Shape> worlds = {
      {true,
       o.smoke ? 256 : 32768 - 32 * static_cast<int>(mix(st) % 16), mix(st)},
      {false, o.smoke ? 64 : 4096, mix(st)},
  };
  auto bcast_set = adcl::make_ibcast_functionset();
  auto allreduce_set = adcl::make_iallreduce_functionset();
  const int bcast_pin = bcast_set->find_by_name("binomial/seg32k");
  const int allreduce_pin = allreduce_set->find_by_name("recursive-doubling");
  if (bcast_pin < 0 || allreduce_pin < 0) {
    throw std::runtime_error("scale_boot: pinned member missing");
  }
  harness::ScenarioPool pool(1);
  pass.workers = pool.threads();
  double setup = now_s() - t0;

  std::mutex mu;
  std::vector<double> loop_time(worlds.size(), 0.0);
  std::vector<std::string> impl(worlds.size());
  std::vector<double> teardown_ms;
  const double t_sim = now_s();
  {
    SpanScope batch(spans, "pool.batch");
    run_batch(pool, worlds.size(), "harness.run", spans, pass, mu,
              [&](std::size_t i) {
      const Shape& w = worlds[i];
      auto fset = w.bcast ? bcast_set : allreduce_set;
      const int pin = w.bcast ? bcast_pin : allreduce_pin;
      const double tb = now_s();
      trace::Scope scope(std::string(w.bcast ? "ibcast" : "iallreduce") +
                         " mega np" + std::to_string(w.np) + " pinned");
      auto engine = std::make_unique<sim::Engine>(w.seed);
      auto machine = std::make_unique<net::Machine>(net::mega());
      std::unique_ptr<mpi::World> world;
      {
        SpanScope span(spans, "world.construct");
        mpi::WorldOptions wo;
        wo.nprocs = w.np;
        wo.seed = w.seed;
        wo.noise_scale = 1.0;
        world = std::make_unique<mpi::World>(*engine, *machine, wo);
      }
      double t_begin = 0, t_finish = 0;
      {
        SpanScope span(spans, "world.launch");
        world->launch([&](mpi::Ctx& ctx) {
          adcl::OpArgs args;
          args.comm = ctx.world().comm_world();
          if (w.bcast) {
            args.bytes = 1024;
          } else {
            args.count = 256;
            args.dtype = nbc::DType::F64;
          }
          auto req = adcl::request_create(ctx, fset, std::move(args), {});
          req->selection().force_winner(pin);
          const double start = ctx.now();
          for (int it = 0; it < 2; ++it) {
            req->init();
            for (int p = 0; p < 2; ++p) {
              ctx.compute(50e-6);
              req->progress();
            }
            req->wait();
          }
          if (ctx.world_rank() == 0) {
            t_begin = start;
            t_finish = ctx.now();
            impl[i] = req->current_function().name;
          }
        });
      }
      setup += now_s() - tb;
      {
        SpanScope span(spans, "engine.run");
        engine->run();
      }
      loop_time[i] = t_finish - t_begin;
      const double td = now_s();
      {
        SpanScope span(spans, "world.teardown");
        world.reset();
        machine.reset();
        engine.reset();
      }
      teardown_ms.push_back((now_s() - td) * 1e3);
    });
  }
  const double t_runs = now_s();
  pass.sweep_s = t_runs - t_sim;
  pass.setup_s = setup;

  std::ostringstream os;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const auto& fs = worlds[i].bcast ? *bcast_set : *allreduce_set;
    harness::RunOutcome r;
    r.impl = impl[i];
    r.loop_time = loop_time[i];
    r.decision_iteration = 0;
    check_outcome(r, fs, false,
                  std::string(worlds[i].bcast ? "ibcast" : "iallreduce") +
                      " np" + std::to_string(worlds[i].np),
                  i, pass);
    if (r.impl != fs.function(worlds[i].bcast ? bcast_pin : allreduce_pin)
                      .name) {
      pass.fail("pinned world ran " + r.impl, i);
    }
    os << (worlds[i].bcast ? "ibcast" : "iallreduce") << " np"
       << worlds[i].np;
    outcome_line(os, r);
    os << "\n";
  }
  pass.outcomes = os.str();
  const double t_end = now_s();
  pass.report_s = t_end - t_runs;
  pass.wall_s = t_end - t0;

  if (o.traced) {
    tap.collect(trace::Session::instance().drain(), pass);
    pass.layer["mpi.world_teardown_ms"] = median(teardown_ms);
  }
  return pass;
}

}  // namespace perfbench
