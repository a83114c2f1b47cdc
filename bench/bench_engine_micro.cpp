// Engine micro-benchmarks (google-benchmark): wall-clock costs of the
// simulator primitives.  Not a paper figure — these bound how large a
// simulated experiment the harness can run per second of host time.

#include <benchmark/benchmark.h>

#include <span>
#include <streambuf>
#include <vector>

#include "adcl/functionsets.hpp"
#include "adcl/selection.hpp"
#include "analyze/analyze.hpp"
#include "coll/ialltoall.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"

using namespace nbctune;

// Tracing-overhead contract (trace.hpp): with no Tracer installed, every
// instrumentation hook is a thread-local load plus a not-taken branch.
// Arg(0) runs the engine hot path with tracing off (the default in every
// run without --trace); Arg(1) installs a live Tracer on this thread.
// Compare items/s: the off case must stay within ~2 % of pre-trace
// builds, the on case bounds the cost of a fully recorded run.
static void BM_EventChurnTraced(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const int n = 65536;
  trace::Tracer tracer("bench_engine_micro");
  trace::Tracer* prev = nullptr;
  if (traced) prev = trace::set_current(&tracer);
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_at(static_cast<double>(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  if (traced) trace::set_current(prev);
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(traced ? "events/s (tracing on)" : "events/s (tracing off)");
}
BENCHMARK(BM_EventChurnTraced)->Arg(0)->Arg(1);

// Host cost of one typed trace hook with tracing on: an instant appended
// to a live Tracer, buffer growth included (perfbench's trace.emit_ns
// times the string-named overload instead).  Each iteration records a
// batch into a fresh Tracer, so the buffer stays bounded.
static void BM_TraceEmit(benchmark::State& state) {
  const int n = 65536;
  for (auto _ : state) {
    trace::Tracer tracer("bench_engine_micro");
    trace::Tracer* prev = trace::set_current(&tracer);
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      trace::instant(static_cast<double>(i) * 1e-9, i & 7,
                     trace::Kind::MsgDeliver, u & 7, 64, u);
    }
    trace::set_current(prev);
    benchmark::DoNotOptimize(tracer.events().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("events/s (typed instant, tracing on)");
}
BENCHMARK(BM_TraceEmit);

// The report phase's layers, per event: one traced fig-3-shaped
// scenario (a 16-rank whale Ialltoall of 128 KiB with compute and
// progress calls, pinned member 0), recorded once with a Tracer
// installed directly, so the process-wide session stays disabled.
static const trace::FinishedTrace& report_scenario() {
  static const trace::FinishedTrace t = [] {
    harness::MicroScenario s;
    s.platform = net::whale();
    s.nprocs = 16;
    s.op = harness::OpKind::Ialltoall;
    s.bytes = 128 * 1024;
    s.compute_per_iter = 10e-3;
    s.iterations = 10;
    s.progress_calls = 5;
    trace::Tracer tracer("whale ialltoall np16");
    trace::Tracer* prev = trace::set_current(&tracer);
    harness::run_fixed(s, 0);
    trace::set_current(prev);
    trace::FinishedTrace f;
    f.label = tracer.label();
    f.events = tracer.events();
    for (std::size_t c = 0; c < f.counts.size(); ++c) {
      f.counts[c] = tracer.counter(static_cast<trace::Ctr>(c));
    }
    return f;
  }();
  return t;
}

/// A stream buffer that counts the bytes written to it and keeps none.
class CountingBuf : public std::streambuf {
 public:
  std::size_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
};

// Chrome export of the report scenario into a counting sink.  Items are
// events, so items/s inverts to ns per exported event.
static void BM_ChromeWrite(benchmark::State& state) {
  const trace::FinishedTrace& t = report_scenario();
  trace::Session& session = trace::Session::instance();
  (void)session.drain();
  session.adopt(t);
  CountingBuf sink;
  std::ostream os(&sink);
  for (auto _ : state) {
    session.write_chrome(os);
    benchmark::DoNotOptimize(sink.bytes);
    benchmark::ClobberMemory();
  }
  (void)session.drain();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.events.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(sink.bytes));
  state.SetLabel("events/s (Chrome export)");
}
BENCHMARK(BM_ChromeWrite);

// Analysis of the report scenario (index, blame, overlap, audits and
// the guideline pass), per event.
static void BM_AnalyzeScenario(benchmark::State& state) {
  const trace::FinishedTrace& t = report_scenario();
  for (auto _ : state) {
    const analyze::Report r = analyze::analyze(std::span(&t, 1));
    benchmark::DoNotOptimize(r.scenarios.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.events.size()));
  state.SetLabel("events/s (analysis)");
}
BENCHMARK(BM_AnalyzeScenario);

// The check analyze() makes before it reuses a report attached to the
// report scenario (equal options, the trace's digest recomputed and
// compared), per event.  A copy carries the report, so the shared
// fixture stays bare and BM_AnalyzeScenario keeps analyzing it.
static void BM_AttachedReportCheck(benchmark::State& state) {
  const trace::FinishedTrace t = report_scenario();
  (void)analyze::attach_report(t);
  for (auto _ : state) {
    const analyze::ScenarioReport* r = analyze::attached_report(t);
    if (r == nullptr) state.SkipWithError("attached report not reused");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.events.size()));
  state.SetLabel("events/s (attached-report check)");
}
BENCHMARK(BM_AttachedReportCheck);

static void BM_EventScheduleAndRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) {
      eng.schedule_at(static_cast<double>(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1024)->Arg(65536);

// The request-timeout pattern of the MPI layer: nearly every scheduled
// event is cancelled before it fires.  Exercises the generation-tagged
// O(1) cancel and the stale-entry skip on pop (the old unordered_set
// cancellation list paid a hash insert + probe per event here).
static void BM_EventCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (auto _ : state) {
    sim::Engine eng;
    ids.clear();
    for (int i = 0; i < n; ++i) {
      ids.push_back(eng.schedule_at(1.0 + i, [] {}));
    }
    // Cancel 90%: every id not divisible by 10.
    for (int i = 0; i < n; ++i) {
      if (i % 10 != 0) eng.cancel(ids[static_cast<std::size_t>(i)]);
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("scheduled events/s (90% cancelled)");
}
BENCHMARK(BM_EventCancelHeavy)->Arg(1024)->Arg(65536);

// Steady-state schedule/cancel/reschedule churn on a small live set:
// slots must recycle from the free list without slab growth.
static void BM_SlotReuseChurn(benchmark::State& state) {
  const int churn = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    std::uint64_t pending = eng.schedule_at(0.5, [] {});
    for (int i = 0; i < churn; ++i) {
      eng.cancel(pending);
      pending = eng.schedule_at(0.5 + i * 1e-6, [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * churn);
  state.SetLabel("schedule+cancel pairs/s");
}
BENCHMARK(BM_SlotReuseChurn)->Arg(100000);

// The wake()/schedule_after(0) fast path: zero-delay chains go through
// the now-FIFO instead of two O(log n) heap sifts per event.
static void BM_ZeroDelayChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    // A deep heap of far-future events makes sift cost visible if the
    // fast path regresses to heap pushes.
    for (int i = 0; i < 1024; ++i) {
      auto id = eng.schedule_at(1e6 + i, [] {});
      benchmark::DoNotOptimize(id);
    }
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < n) eng.schedule_after(0.0, [&] { chain(); });
    };
    eng.schedule_at(0.0, [&] { chain(); });
    eng.run_until(0.0);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("zero-delay events/s");
}
BENCHMARK(BM_ZeroDelayChain)->Arg(100000);

// ScenarioPool throughput on simulation-shaped tasks (one Engine per
// task), across worker counts.  Timed in wall-clock time: the tasks run on
// the pool's threads, so the main thread's CPU time would miss them.
static void BM_ScenarioPoolThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::size_t tasks = 256;
  harness::ScenarioPool pool(threads);
  for (auto _ : state) {
    std::vector<double> out(tasks);
    pool.run_indexed(tasks, [&](std::size_t i) {
      sim::Engine eng(i + 1);
      eng.add_process("p", [&](sim::Process& p) {
        for (int s = 0; s < 200; ++s) p.sleep(eng.rng().uniform(0.0, 1.0));
      });
      eng.run();
      out[i] = eng.now();
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
  state.SetLabel("scenario tasks/s");
}
BENCHMARK(BM_ScenarioPoolThroughput)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

static void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  sim::Fiber f([&] {
    while (!stop) sim::Fiber::current()->yield();
  });
  for (auto _ : state) {
    f.resume();  // one switch in, one out
  }
  stop = true;
  f.resume();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

// Host cost per Process::sleep, over about 10000 sleeps split across
// state.range(0) processes.  Arg(1): the lone process's every wake-up is
// the next event, so each sleep advances the clock in place.  Arg(64):
// jittered sleeps interleave the processes, so wake-ups queue in the heap
// and each one costs a push, a pop and a switch into the fiber and back.
static void BM_ProcessSleepWake(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int per_proc = 10000 / procs;
  std::vector<double> dts(1024);
  sim::Rng rng(42);
  for (double& dt : dts) dt = rng.uniform(0.5e-6, 1.5e-6);
  for (auto _ : state) {
    sim::Engine eng;
    for (int p = 0; p < procs; ++p) {
      eng.add_process("p", [&, p](sim::Process& proc) {
        for (int i = 0; i < per_proc; ++i) {
          const auto k = static_cast<std::size_t>(i * 7 + p * 131);
          proc.sleep(dts[k % dts.size()]);
        }
      });
    }
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * procs * per_proc);
}
BENCHMARK(BM_ProcessSleepWake)->Arg(1)->Arg(64);

static void BM_PingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::Machine machine(net::whale());
    mpi::WorldOptions o;
    o.nprocs = 9;
    o.noise_scale = 0;
    mpi::World world(eng, machine, o);
    world.launch([&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      std::vector<std::byte> buf(64);
      if (ctx.world_rank() == 0) {
        for (int i = 0; i < rounds; ++i) {
          ctx.send(comm, buf.data(), 64, 8, 0);
          ctx.recv(comm, buf.data(), 64, 8, 0);
        }
      } else if (ctx.world_rank() == 8) {
        for (int i = 0; i < rounds; ++i) {
          ctx.recv(comm, buf.data(), 64, 0, 0);
          ctx.send(comm, buf.data(), 64, 0, 0);
        }
      }
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
  state.SetLabel("messages/s");
}
BENCHMARK(BM_PingPong)->Arg(1000);

static void BM_AlltoallSchedule(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::Machine machine(net::crill());
    mpi::WorldOptions o;
    o.nprocs = np;
    o.noise_scale = 0;
    mpi::World world(eng, machine, o);
    world.launch([&](mpi::Ctx& ctx) {
      const int me = ctx.world_rank();
      nbc::Schedule s = coll::build_ialltoall_linear(me, np, nullptr, nullptr,
                                                     1024);
      nbc::Handle h(ctx, ctx.world().comm_world(), &s, 1 << 20);
      h.start();
      h.wait();
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * np * (np - 1));
  state.SetLabel("messages simulated/s");
}
BENCHMARK(BM_AlltoallSchedule)->Arg(32)->Arg(128);

// Host cost of the pinned micro-benchmark loop end to end: world setup, one
// fiber per rank (a register-only switch per blocking point), engine events
// and NBC rounds, per simulated rank-iteration.
static void BM_PinnedLoop(benchmark::State& state) {
  harness::MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 64;
  s.op = harness::OpKind::Ibcast;
  s.bytes = 4096;
  s.compute_per_iter = 100e-6;
  s.iterations = 4;
  s.progress_calls = 2;
  s.noise_scale = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_fixed(s, 0).loop_time);
  }
  state.SetItemsProcessed(state.iterations() * s.nprocs * s.iterations);
  state.SetLabel("rank-iterations/s");
}
BENCHMARK(BM_PinnedLoop);

static void BM_SelectionPolicy(benchmark::State& state) {
  const auto kind = static_cast<adcl::PolicyKind>(state.range(0));
  auto fset = adcl::make_ibcast_functionset();  // 21 functions
  for (auto _ : state) {
    auto policy = adcl::make_policy(kind, *fset);
    int f = policy->first();
    double score = 1.0;
    while (f >= 0) {
      score = 1.0 + 0.01 * f;
      f = policy->next(f, score);
    }
    benchmark::DoNotOptimize(policy->winner());
  }
}
BENCHMARK(BM_SelectionPolicy)
    ->Arg(static_cast<int>(adcl::PolicyKind::BruteForce))
    ->Arg(static_cast<int>(adcl::PolicyKind::AttributeHeuristic))
    ->Arg(static_cast<int>(adcl::PolicyKind::TwoKFactorial));

BENCHMARK_MAIN();
