// Engine micro-benchmarks (google-benchmark): wall-clock costs of the
// simulator primitives.  Not a paper figure — these bound how large a
// simulated experiment the harness can run per second of host time.

#include <benchmark/benchmark.h>

#include <vector>

#include "adcl/functionsets.hpp"
#include "adcl/selection.hpp"
#include "coll/ialltoall.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
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

static void BM_ProcessSleepWake(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.add_process("p", [&](sim::Process& p) {
      for (int i = 0; i < n; ++i) p.sleep(1e-6);
    });
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProcessSleepWake)->Arg(10000);

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
    benchmark::DoNotOptimize(world.total_data_msgs());
  }
  state.SetItemsProcessed(state.iterations() * np * (np - 1));
  state.SetLabel("messages simulated/s");
}
BENCHMARK(BM_AlltoallSchedule)->Arg(32)->Arg(128);

// Host cost of the pinned micro-benchmark loop end to end: world setup, one
// fiber per rank (a _setjmp/_longjmp switch per blocking point), engine
// events and NBC rounds, per simulated rank-iteration.
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
