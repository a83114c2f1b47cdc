// Unit tests for the discrete-event core: event ordering, determinism,
// fiber lifecycle, process sleep/suspend/wake semantics, resources, RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "trace/trace.hpp"

namespace sim = nbctune::sim;
namespace trace = nbctune::trace;

// ----------------------------------------------------------------- Fiber

TEST(Fiber, RunsToCompletion) {
  int steps = 0;
  sim::Fiber f([&] { steps = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(steps, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  sim::Fiber f([&] {
    trace.push_back(1);
    sim::Fiber::current()->yield();
    trace.push_back(3);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(sim::Fiber::current(), nullptr);
  sim::Fiber* seen = nullptr;
  sim::Fiber f([&] { seen = sim::Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesToResume) {
  sim::Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ResumeAfterFinishThrows) {
  sim::Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, NestedFibers) {
  std::vector<int> trace;
  sim::Fiber inner([&] { trace.push_back(2); });
  sim::Fiber outer([&] {
    trace.push_back(1);
    inner.resume();
    trace.push_back(3);
  });
  outer.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

// A switch keeps only the callee-saved registers, so every live local of a
// suspended fiber must come back intact after other fibers ran.
TEST(Fiber, RoundRobinKeepsLocalsAcrossYields) {
  constexpr int kFibers = 3;
  constexpr long long kYields = 10000;
  std::vector<long long> int_sums(kFibers, -1);
  std::vector<double> double_sums(kFibers, -1.0);
  std::vector<std::unique_ptr<sim::Fiber>> fibers;
  for (int id = 0; id < kFibers; ++id) {
    fibers.push_back(std::make_unique<sim::Fiber>([&, id] {
      const long long step = id + 1;
      const double scale = 0.5 * step;
      long long isum = 0;
      double dsum = 0.0;
      for (long long i = 1; i <= kYields; ++i) {
        isum += step * i;
        dsum += scale * static_cast<double>(i);
        sim::Fiber::current()->yield();
      }
      int_sums[static_cast<std::size_t>(id)] = isum;
      double_sums[static_cast<std::size_t>(id)] = dsum;
    }));
  }
  long long rounds = 0;
  while (!fibers.front()->finished()) {
    for (auto& f : fibers) f->resume();
    ++rounds;
  }
  EXPECT_EQ(rounds, kYields + 1);
  const long long triangle = kYields * (kYields + 1) / 2;
  for (int id = 0; id < kFibers; ++id) {
    const auto i = static_cast<std::size_t>(id);
    EXPECT_TRUE(fibers[i]->finished());
    EXPECT_EQ(int_sums[i], (id + 1) * triangle);
    EXPECT_DOUBLE_EQ(double_sums[i], 0.5 * (id + 1) * triangle);
  }
}

TEST(Fiber, ExceptionAfterYieldsUnwindsFiberStack) {
  struct Guard {
    sim::Fiber** unwound_on;
    ~Guard() { *unwound_on = sim::Fiber::current(); }
  };
  sim::Fiber* unwound_on = nullptr;
  int yields = 0;
  sim::Fiber f([&] {
    Guard guard{&unwound_on};
    for (; yields < 3; ++yields) sim::Fiber::current()->yield();
    throw std::runtime_error("after yields");
  });
  for (int i = 0; i < 3; ++i) {
    f.resume();
    EXPECT_FALSE(f.finished());
  }
  EXPECT_EQ(unwound_on, nullptr);
  try {
    f.resume();
    ADD_FAILURE() << "resume() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "after yields");
  }
  EXPECT_EQ(unwound_on, &f);  // the destructor ran inside the fiber
  EXPECT_EQ(yields, 3);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

// The sanitizer annotations add their own bookkeeping to a Fiber.
#ifndef NBCTUNE_FIBER_ASAN
static_assert(sizeof(sim::Fiber) <= 96, "a Fiber keeps stack pointers only");
#endif

namespace {
// Offset of the caller's stack pointer at its call into this function from
// a 16-byte boundary.  The ABI promises 0, and the compiler relies on it to
// place aligned (e.g. SSE) stack slots.
[[gnu::noinline]] std::uintptr_t call_site_misalignment() {
  return reinterpret_cast<std::uintptr_t>(__builtin_dwarf_cfa()) % 16;
}

// Recurses `depth` frames of a few hundred bytes each, yielding once at the
// bottom; returns the sum of the frames' depths read back on the way up.
[[gnu::noinline]] int recurse_and_yield(int depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = static_cast<char>(depth);
  if (depth == 0) {
    sim::Fiber::current()->yield();
    return 0;
  }
  const int below = recurse_and_yield(depth - 1);
  return below + frame[0] + frame[sizeof(frame) - 1] - depth;
}

int sum_to(int n) { return n * (n + 1) / 2; }
}  // namespace

TEST(Fiber, StackIsAlignedOnFirstEntryAndAfterResume) {
  std::vector<std::uintptr_t> misalignment;
  sim::Fiber f([&] {
    misalignment.push_back(call_site_misalignment());
    sim::Fiber::current()->yield();
    misalignment.push_back(call_site_misalignment());
  });
  f.resume();
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_EQ(misalignment, (std::vector<std::uintptr_t>{0, 0}));
}

TEST(Fiber, SmallStackSurvivesKibibytesOfRecursion) {
  // 24 frames of >= 256 bytes: over 6 KiB of a 16 KiB stack, suspended and
  // resumed at the deepest point.
  constexpr int kDepth = 24;
  int result = -1;
  sim::Fiber f([&] { result = recurse_and_yield(kDepth); }, 16 * 1024);
  f.resume();
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(result, sum_to(kDepth));
}

TEST(Fiber, ExceptionFromDeepFrameRethrowsFromResume) {
  sim::Fiber f(
      [] {
        recurse_and_yield(16);
        throw std::runtime_error("deep");
      },
      16 * 1024);
  f.resume();
  try {
    f.resume();
    ADD_FAILURE() << "resume() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "deep");
  }
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(sim::Fiber::current(), nullptr);
}

TEST(Fiber, NeverResumedMakesNoSwitch) {
  trace::Tracer tracer("fiber");
  trace::Tracer* prev = trace::set_current(&tracer);
  bool ran = false;
  {
    sim::Fiber f([&] { ran = true; });
    EXPECT_FALSE(f.finished());
    EXPECT_FALSE(f.running());
  }
  trace::set_current(prev);
  EXPECT_FALSE(ran);
  EXPECT_EQ(tracer.counter(trace::Ctr::SimFibersCreated), 1u);
  EXPECT_EQ(tracer.counter(trace::Ctr::FiberSwitches), 0u);
}

// ---------------------------------------------------------------- Engine

TEST(Engine, EventsFireInTimeOrder) {
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  sim::Engine eng;
  eng.schedule_at(1.0, [&] {
    EXPECT_THROW(eng.schedule_at(0.5, [] {}), std::invalid_argument);
  });
  eng.run();
}

TEST(Engine, NonFiniteTimesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  sim::Engine eng;
  EXPECT_THROW(eng.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.schedule_after(nan, [] {}), std::invalid_argument);
  // A process sleeping NaN (what Ctx::compute(NaN) does) fails loudly
  // instead of turning the clock into NaN.
  bool resumed = false;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.0);
    p.sleep(nan);
    resumed = true;
  });
  EXPECT_THROW(eng.run(), std::invalid_argument);
  EXPECT_FALSE(resumed);
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
}

TEST(Engine, CancelledEventsDoNotFire) {
  sim::Engine eng;
  bool fired = false;
  auto id = eng.schedule_at(1.0, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, EventsCanScheduleEvents) {
  sim::Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) eng.schedule_after(1.0, chain);
  };
  eng.schedule_at(0.0, chain);
  eng.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 4.0);
}

TEST(Engine, RunUntilStopsAtTime) {
  sim::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(i, [&] { ++count; });
  }
  eng.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST(Engine, ProcessSleepAdvancesTime) {
  sim::Engine eng;
  double t_mid = -1, t_end = -1;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.5);
    t_mid = eng.now();
    p.sleep(2.5);
    t_end = eng.now();
  });
  eng.run();
  EXPECT_DOUBLE_EQ(t_mid, 1.5);
  EXPECT_DOUBLE_EQ(t_end, 4.0);
}

TEST(Engine, ProcessesInterleaveDeterministically) {
  sim::Engine eng;
  std::vector<std::string> trace;
  for (int i = 0; i < 3; ++i) {
    eng.add_process("p" + std::to_string(i), [&, i](sim::Process& p) {
      trace.push_back("a" + std::to_string(i));
      p.sleep(1.0 + i * 0.1);
      trace.push_back("b" + std::to_string(i));
    });
  }
  eng.run();
  ASSERT_EQ(trace.size(), 6u);
  // Startup in rank order, wakeups in sleep-duration order.
  EXPECT_EQ(trace[0], "a0");
  EXPECT_EQ(trace[1], "a1");
  EXPECT_EQ(trace[2], "a2");
  EXPECT_EQ(trace[3], "b0");
  EXPECT_EQ(trace[4], "b1");
  EXPECT_EQ(trace[5], "b2");
}

TEST(Engine, SuspendAndWake) {
  sim::Engine eng;
  double woken_at = -1;
  auto& p = eng.add_process("sleeper", [&](sim::Process& proc) {
    proc.suspend();
    woken_at = eng.now();
  });
  eng.schedule_at(3.0, [&] { p.wake(); });
  eng.run();
  EXPECT_DOUBLE_EQ(woken_at, 3.0);
}

TEST(Engine, WakeDuringSleepIsRemembered) {
  // A wake arriving while the process sleeps (computes) must not interrupt
  // the sleep, but the following suspend() must return immediately.
  sim::Engine eng;
  double resumed_at = -1;
  auto& p = eng.add_process("worker", [&](sim::Process& proc) {
    proc.sleep(5.0);          // wake arrives at t=2 in here
    proc.suspend();           // must not block
    resumed_at = eng.now();
  });
  eng.schedule_at(2.0, [&] { p.wake(); });
  eng.run();
  EXPECT_DOUBLE_EQ(resumed_at, 5.0);
}

TEST(Engine, CoalescedWakes) {
  sim::Engine eng;
  int wake_count = 0;
  auto& p = eng.add_process("w", [&](sim::Process& proc) {
    proc.suspend();
    ++wake_count;
    proc.suspend();
    ++wake_count;
  });
  // Two wakes at the same instant coalesce into one resume; the third
  // wake at t=2 releases the second suspend.
  eng.schedule_at(1.0, [&] {
    p.wake();
    p.wake();
  });
  eng.schedule_at(2.0, [&] { p.wake(); });
  eng.run();
  EXPECT_EQ(wake_count, 2);
}

TEST(Engine, DeadlockDetected) {
  sim::Engine eng;
  eng.add_process("stuck", [](sim::Process& p) { p.suspend(); });
  EXPECT_THROW(eng.run(), sim::Engine::DeadlockError);
}

TEST(Engine, CancelAfterFireIsANoOp) {
  sim::Engine eng;
  int fired = 0;
  auto id = eng.schedule_at(1.0, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.cancel(id);  // stale id: must not blow up or affect future events
  bool later = false;
  eng.schedule_at(2.0, [&] { later = true; });
  eng.run();
  EXPECT_TRUE(later);
}

TEST(Engine, StaleCancelDoesNotKillSlotReuser) {
  // The slot of a fired event is recycled; cancelling the fired event's
  // id afterwards must not cancel the unrelated event now in that slot.
  sim::Engine eng;
  auto first = eng.schedule_at(1.0, [] {});
  eng.run();
  int fired = 0;
  eng.schedule_at(2.0, [&] { ++fired; });  // may reuse first's slot
  eng.cancel(first);
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelHeavyChurnKeepsOrder) {
  // Schedule a block, cancel every other event, interleave a second
  // block reusing the freed slots: survivors fire in (time, seq) order.
  sim::Engine eng;
  std::vector<int> order;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(eng.schedule_at(1.0 + i, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) eng.cancel(ids[i]);
  for (int i = 100; i < 150; ++i) {
    eng.schedule_at(1.0 + i, [&order, i] { order.push_back(i); });
  }
  eng.run();
  std::vector<int> expect;
  for (int i = 1; i < 100; i += 2) expect.push_back(i);
  for (int i = 100; i < 150; ++i) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(Engine, ZeroDelayEventsRunFifoAfterPendingHeapEvents) {
  // Heap events already due at the current instant precede zero-delay
  // events scheduled from within a callback at that instant; zero-delay
  // chains preserve FIFO order.
  sim::Engine eng;
  std::vector<std::string> trace;
  eng.schedule_at(1.0, [&] {
    trace.push_back("a");
    eng.schedule_after(0.0, [&] {
      trace.push_back("c");
      eng.schedule_after(0.0, [&] { trace.push_back("e"); });
      eng.schedule_after(0.0, [&] { trace.push_back("f"); });
    });
    eng.schedule_after(0.0, [&] { trace.push_back("d"); });
  });
  eng.schedule_at(1.0, [&] { trace.push_back("b"); });  // already in heap
  eng.schedule_at(2.0, [&] { trace.push_back("g"); });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b", "c", "d", "e", "f",
                                             "g"}));
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, ZeroDelayEventCanBeCancelled) {
  sim::Engine eng;
  bool fired = false;
  eng.schedule_at(1.0, [&] {
    auto id = eng.schedule_after(0.0, [&] { fired = true; });
    eng.cancel(id);
  });
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilDoesNotRunZeroDelayPastLimit) {
  // run_until(t) must not fire events scheduled at a now_ beyond t.
  sim::Engine eng;
  eng.schedule_at(5.0, [] {});
  eng.run();  // now_ == 5
  bool fired = false;
  eng.schedule_after(0.0, [&] { fired = true; });  // at t == 5
  eng.run_until(3.0);                              // in the past: no-op
  EXPECT_FALSE(fired);
  eng.run_until(5.0);  // events at exactly t still fire
  EXPECT_TRUE(fired);
}

TEST(Engine, EventsProcessedCountsOnlyExecuted) {
  sim::Engine eng;
  auto a = eng.schedule_at(1.0, [] {});
  eng.schedule_at(2.0, [] {});
  eng.cancel(a);
  eng.run();
  EXPECT_EQ(eng.events_processed(), 1u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine eng(1234);
    std::vector<double> samples;
    eng.add_process("p", [&](sim::Process& p) {
      for (int i = 0; i < 100; ++i) {
        p.sleep(eng.rng().uniform(0.0, 1.0));
        samples.push_back(eng.now());
      }
    });
    eng.run();
    return samples;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------- sleeps, wake-ups and ordering

namespace {
// Installs a Tracer on this thread for the scope, so tests can read the
// engine's counters.
struct CountingScope {
  trace::Tracer tracer{"engine"};
  trace::Tracer* prev = trace::set_current(&tracer);
  ~CountingScope() { trace::set_current(prev); }
  [[nodiscard]] std::uint64_t operator[](trace::Ctr c) const {
    return tracer.counter(c);
  }
};

using ClockLog = std::vector<std::pair<double, std::string>>;
}  // namespace

TEST(Engine, LoneSleeperAdvancesWithoutASwitch) {
  CountingScope counts;
  sim::Engine eng;
  const std::vector<double> dts = {0.25, 1e-9, 3.0, 0.1, 7.5};
  std::vector<double> expect, seen;
  double t = 0.0;
  for (const double dt : dts) expect.push_back(t += dt);
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.0);  // while launching: queued, like any start-up sleep
    for (const double dt : dts) {
      p.sleep(dt);
      seen.push_back(eng.now() - 1.0);
    }
  });
  eng.run();
  ASSERT_EQ(seen.size(), expect.size());
  double clock = 1.0;
  for (std::size_t i = 0; i < dts.size(); ++i) {
    clock += dts[i];  // the exact clock value a queued wake-up would carry
    EXPECT_EQ(seen[i] + 1.0, clock) << "sleep " << i;
  }
  EXPECT_EQ(eng.now(), clock);
  EXPECT_EQ(counts[trace::Ctr::FiberSwitches], 2u);  // launch + first wake
  EXPECT_EQ(counts[trace::Ctr::EngineInlineAdvances], dts.size());
  // An inline advance still counts as one scheduled and one fired event.
  EXPECT_EQ(counts[trace::Ctr::EngineEventsScheduled], dts.size() + 1);
  EXPECT_EQ(counts[trace::Ctr::EngineEventsFired], dts.size() + 1);
  EXPECT_EQ(eng.events_processed(), dts.size() + 1);
}

TEST(Engine, EventsDueAtTheWakeTimeRunBeforeTheSleeper) {
  sim::Engine eng;
  ClockLog log;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(0.5);
    log.emplace_back(eng.now(), "p");
    p.sleep(0.5);  // wakes at 1.0, where "heap" is due with a smaller seq
    log.emplace_back(eng.now(), "p");
    eng.schedule_after(0.0, [&] { log.emplace_back(eng.now(), "fifo"); });
    p.sleep(0.5);  // the zero-delay event is due first
    log.emplace_back(eng.now(), "p");
  });
  eng.schedule_at(1.0, [&] { log.emplace_back(eng.now(), "heap"); });
  eng.run();
  EXPECT_EQ(log, (ClockLog{{0.5, "p"},
                           {1.0, "heap"},
                           {1.0, "p"},
                           {1.0, "fifo"},
                           {1.5, "p"}}));
}

TEST(Engine, RunUntilLeavesALaterSleeperAsleep) {
  sim::Engine eng;
  double woke_at = -1.0;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.0);
    p.sleep(2.0);  // wakes at 3.0, past the limit below
    woke_at = eng.now();
  });
  eng.run_until(2.0);
  EXPECT_EQ(eng.now(), 2.0);
  EXPECT_EQ(woke_at, -1.0);
  EXPECT_FALSE(eng.process(0).finished());
  eng.run();
  EXPECT_EQ(woke_at, 3.0);
}

TEST(Engine, ProcessesLaunchedTogetherAllStartBeforeAnyAdvances) {
  sim::Engine eng;
  ClockLog log;
  const auto body = [&](sim::Process& p) {
    log.emplace_back(eng.now(), "start " + p.name());
    p.sleep(1.0 + p.id());
    log.emplace_back(eng.now(), "end " + p.name());
  };
  for (const char* name : {"a", "b", "c"}) eng.add_process(name, body);
  // A batch added mid-run starts together too, at the adding instant.
  eng.schedule_at(10.0, [&] {
    for (const char* name : {"d", "e"}) eng.add_process(name, body);
  });
  eng.run();
  EXPECT_EQ(log, (ClockLog{{0.0, "start a"},
                           {0.0, "start b"},
                           {0.0, "start c"},
                           {1.0, "end a"},
                           {2.0, "end b"},
                           {3.0, "end c"},
                           {10.0, "start d"},
                           {10.0, "start e"},
                           {14.0, "end d"},
                           {15.0, "end e"}}));
}

TEST(Engine, LaunchGuardIsClearedWhenAStartThrows) {
  CountingScope counts;
  sim::Engine eng;
  eng.add_process("thrower", [](sim::Process&) {
    throw std::runtime_error("start");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
  double woke_at = -1.0;
  eng.add_process("sleeper", [&](sim::Process& p) {
    p.sleep(1.0);
    p.sleep(1.0);  // nothing else pending: advances in place
    woke_at = eng.now();
  });
  eng.run();
  EXPECT_EQ(woke_at, 2.0);
  EXPECT_EQ(counts[trace::Ctr::EngineInlineAdvances], 1u);
}

TEST(Engine, CancelledHeapTopDoesNotBlockAnInlineAdvance) {
  CountingScope counts;
  sim::Engine eng;
  bool fired = false;
  double woke_at = -1.0;
  eng.add_process("p", [&](sim::Process& p) {
    p.sleep(1.0);
    eng.cancel(eng.schedule_at(1.5, [&] { fired = true; }));
    p.sleep(1.0);  // the cancelled entry at 1.5 is all that is queued
    woke_at = eng.now();
  });
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(woke_at, 2.0);
  EXPECT_EQ(counts[trace::Ctr::EngineInlineAdvances], 1u);
  EXPECT_EQ(counts[trace::Ctr::FiberSwitches], 2u);
}

// A seeded mix of sleeping and suspend/wake processes, callbacks and
// cancels, run once on the engine and once on a reference scheduler that
// keeps every pending event in one list sorted by (t, seq): both must log
// the same (clock, actor) sequence.
namespace mix {

struct Op {
  enum Kind : std::uint8_t { Sleep, Suspend, Wake, Spawn, Cancel };
  Kind kind;
  double dt;   // Sleep: duration; Spawn: delay
  int target;  // Wake: process; Cancel: callback (modulo those created)
};

constexpr int kSweeper = -1;       // actor id of the wake-everyone callback
constexpr int kCallbackBase = 1000;  // actor id of callback c: base + c
constexpr double kSweepAt = 20.0;

// Binary fractions: sums stay exact, so many events tie in time.
double draw_dt(sim::Rng& rng) {
  constexpr double kDts[] = {0.0, 0.25, 0.5, 1.0};
  return kDts[rng.uniform_below(4)];
}

std::vector<Op> process_script(sim::Rng& rng, int procs, int len) {
  std::vector<Op> ops;
  for (int i = 0; i < len; ++i) {
    const auto r = rng.uniform_below(10);
    const int target = static_cast<int>(rng.uniform_below(1000));
    if (r < 5) ops.push_back({Op::Sleep, draw_dt(rng), 0});
    else if (r < 7) ops.push_back({Op::Suspend, 0.0, 0});
    else if (r < 8) ops.push_back({Op::Wake, 0.0, target % procs});
    else if (r < 9) ops.push_back({Op::Spawn, draw_dt(rng), 0});
    else ops.push_back({Op::Cancel, 0.0, target});
  }
  return ops;
}

// Callback c's actions, a pure function of (seed, c).
std::vector<Op> callback_script(std::uint64_t seed, int c, int procs) {
  sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(c));
  std::vector<Op> ops;
  const auto n = rng.uniform_below(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto r = rng.uniform_below(4);
    const int target = static_cast<int>(rng.uniform_below(1000));
    if (r < 2) ops.push_back({Op::Wake, 0.0, target % procs});
    else if (r < 3 && c < 200) ops.push_back({Op::Spawn, draw_dt(rng), 0});
    else ops.push_back({Op::Cancel, 0.0, target});
  }
  return ops;
}

struct Setup {
  std::uint64_t seed;
  std::vector<std::vector<Op>> scripts;  // one per process
  std::vector<double> initial_callbacks;  // their times
};

Setup make_setup(std::uint64_t seed) {
  sim::Rng rng(seed);
  Setup s{seed, {}, {}};
  const int procs = 1 + static_cast<int>(rng.uniform_below(8));
  for (int p = 0; p < procs; ++p) {
    s.scripts.push_back(process_script(rng, procs, 25));
  }
  const auto n = rng.uniform_below(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto quarters = static_cast<double>(rng.uniform_below(40));
    s.initial_callbacks.push_back(0.25 * quarters);
  }
  return s;
}

using Log = std::vector<std::pair<double, int>>;  // (clock, actor)

struct EngineRun {
  Log log;
  std::uint64_t switches = 0;
  std::uint64_t inline_advances = 0;
};

EngineRun run_engine(const Setup& s) {
  CountingScope counts;
  sim::Engine eng;
  EngineRun out;
  const int procs = static_cast<int>(s.scripts.size());
  std::vector<std::uint64_t> ids;  // event id of callback c
  std::function<void(int)> fire;
  const auto apply = [&](const Op& op) {
    switch (op.kind) {
      case Op::Wake:
        eng.process(op.target).wake();
        break;
      case Op::Spawn: {
        const int c = static_cast<int>(ids.size());
        ids.push_back(eng.schedule_after(op.dt, [&fire, c] { fire(c); }));
        break;
      }
      case Op::Cancel:
        if (!ids.empty()) {
          eng.cancel(ids[static_cast<std::size_t>(op.target) % ids.size()]);
        }
        break;
      default:
        break;
    }
  };
  fire = [&](int c) {
    out.log.emplace_back(eng.now(), kCallbackBase + c);
    for (const Op& op : callback_script(s.seed, c, procs)) apply(op);
  };
  for (int p = 0; p < procs; ++p) {
    eng.add_process("p" + std::to_string(p), [&, p](sim::Process& self) {
      out.log.emplace_back(eng.now(), p);
      for (const Op& op : s.scripts[static_cast<std::size_t>(p)]) {
        if (op.kind == Op::Sleep) self.sleep(op.dt);
        else if (op.kind == Op::Suspend) self.suspend();
        else apply(op);
        out.log.emplace_back(eng.now(), p);
      }
    });
  }
  for (const double t : s.initial_callbacks) {
    const int c = static_cast<int>(ids.size());
    ids.push_back(eng.schedule_at(t, [&fire, c] { fire(c); }));
  }
  std::function<void()> sweep = [&] {
    out.log.emplace_back(eng.now(), kSweeper);
    bool pending = false;
    for (int p = 0; p < procs; ++p) pending |= !eng.process(p).finished();
    if (!pending) return;
    for (int p = 0; p < procs; ++p) eng.process(p).wake();
    eng.schedule_after(1.0, [&sweep] { sweep(); });
  };
  eng.schedule_at(kSweepAt, [&sweep] { sweep(); });
  eng.run();
  out.switches = counts[trace::Ctr::FiberSwitches];
  out.inline_advances = counts[trace::Ctr::EngineInlineAdvances];
  return out;
}

// The reference: processes are script interpreters, every pending event is
// an entry of one vector kept sorted by (t, seq), and each step runs the
// first entry.
class Reference {
 public:
  explicit Reference(const Setup& s)
      : s_(s), procs_(s.scripts.size()) {}

  Log run() {
    for (const double t : s_.initial_callbacks) spawn_at(t);
    push(kSweepAt, Entry::Sweep, 0);
    for (std::size_t p = 0; p < procs_.size(); ++p) resume(static_cast<int>(p));
    while (!pending_.empty()) {
      const Entry e = pending_.front();
      pending_.erase(pending_.begin());
      now_ = e.t;
      if (e.what == Entry::SleepDone) {
        resume(e.who);
      } else if (e.what == Entry::WakeUp) {
        Proc& p = procs_[static_cast<std::size_t>(e.who)];
        if (p.suspended) {
          p.suspended = false;
          p.wake_pending = false;
          resume(e.who);
        }
      } else if (e.what == Entry::Callback) {
        log_.emplace_back(now_, kCallbackBase + e.who);
        for (const Op& op : callback_script(s_.seed, e.who, procs())) apply(op);
      } else {
        sweep();
      }
    }
    return log_;
  }

  [[nodiscard]] std::uint64_t resumes() const { return resumes_; }

 private:
  struct Entry {
    enum What : std::uint8_t { SleepDone, WakeUp, Callback, Sweep };
    double t;
    std::uint64_t seq;
    What what;
    int who;
  };
  struct Proc {
    std::size_t pc = 0;
    bool running = false, suspended = false, wake_pending = false;
    bool finished = false;
  };

  [[nodiscard]] int procs() const { return static_cast<int>(procs_.size()); }

  void push(double t, Entry::What what, int who) {
    const Entry e{t, seq_++, what, who};
    const auto earlier = [](const Entry& a, const Entry& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    };
    const auto at =
        std::upper_bound(pending_.begin(), pending_.end(), e, earlier);
    pending_.insert(at, e);
  }

  void spawn_at(double t) { push(t, Entry::Callback, callbacks_++); }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::Wake:
        wake(op.target);
        break;
      case Op::Spawn:
        spawn_at(now_ + op.dt);
        break;
      case Op::Cancel: {
        if (callbacks_ == 0) break;
        const int c = op.target % callbacks_;
        std::erase_if(pending_, [c](const Entry& e) {
          return e.what == Entry::Callback && e.who == c;
        });
        break;
      }
      default:
        break;
    }
  }

  // Process::wake's rules.
  void wake(int who) {
    Proc& p = procs_[static_cast<std::size_t>(who)];
    if (p.running || p.finished) return;
    if (!p.suspended) {
      p.wake_pending = true;
      return;
    }
    if (p.wake_pending) return;
    p.wake_pending = true;
    push(now_, Entry::WakeUp, who);
  }

  // Enter process `who` (start it, or finish its blocking op) and run its
  // script until it blocks again or ends.
  void resume(int who) {
    Proc& p = procs_[static_cast<std::size_t>(who)];
    const auto& script = s_.scripts[static_cast<std::size_t>(who)];
    ++resumes_;
    p.running = true;
    log_.emplace_back(now_, who);  // start, or the blocking op's return
    while (p.pc < script.size()) {
      const Op& op = script[p.pc++];
      if (op.kind == Op::Sleep && op.dt > 0) {
        push(now_ + op.dt, Entry::SleepDone, who);
        p.running = false;
        return;
      }
      if (op.kind == Op::Suspend) {
        if (!p.wake_pending) {
          p.suspended = true;
          p.running = false;
          return;
        }
        p.wake_pending = false;
      }
      apply(op);  // no-op for the non-blocking sleep and suspend above
      log_.emplace_back(now_, who);
    }
    p.running = false;
    p.finished = true;
  }

  void sweep() {
    log_.emplace_back(now_, kSweeper);
    bool pending = false;
    for (const Proc& p : procs_) pending |= !p.finished;
    if (!pending) return;
    for (int p = 0; p < procs(); ++p) wake(p);
    push(now_ + 1.0, Entry::Sweep, 0);
  }

  const Setup& s_;
  std::vector<Proc> procs_;
  std::vector<Entry> pending_;
  Log log_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  int callbacks_ = 0;
  std::uint64_t resumes_ = 0;
};

}  // namespace mix

TEST(Engine, RandomMixMatchesASortedReferenceScheduler) {
  std::uint64_t inline_total = 0, queued_total = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const mix::Setup setup = mix::make_setup(seed);
    mix::Reference ref(setup);
    const mix::Log expect = ref.run();
    const mix::EngineRun got = mix::run_engine(setup);
    ASSERT_EQ(got.log, expect) << "seed " << seed;
    // Every resumption the reference makes is a switch or an inline advance.
    EXPECT_EQ(got.switches + got.inline_advances, ref.resumes())
        << "seed " << seed;
    inline_total += got.inline_advances;
    queued_total += got.switches;
  }
  // Both the inline and the queued path were exercised.
  EXPECT_GT(inline_total, 0u);
  EXPECT_GT(queued_total, inline_total);
}

// -------------------------------------------------------------- Resource

TEST(Resource, SerializesReservations) {
  sim::Resource r;
  auto a = r.reserve(0.0, 2.0);
  auto b = r.reserve(0.0, 3.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end, 5.0);
}

TEST(Resource, IdleGapsRespectEarliest) {
  sim::Resource r;
  auto a = r.reserve(0.0, 1.0);
  auto b = r.reserve(10.0, 1.0);  // resource idle 1..10
  EXPECT_DOUBLE_EQ(a.end, 1.0);
  EXPECT_DOUBLE_EQ(b.start, 10.0);
  EXPECT_DOUBLE_EQ(r.available_at(), 11.0);
}

TEST(Resource, ResetClearsState) {
  sim::Resource r;
  r.reserve(0.0, 5.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.available_at(), 0.0);
  auto s = r.reserve(0.0, 1.0);
  EXPECT_DOUBLE_EQ(s.start, 0.0);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  sim::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  sim::Rng r(42);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMeanAndSpread) {
  sim::Rng r(42);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}
