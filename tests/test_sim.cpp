// Unit tests for the discrete-event core: event ordering, determinism,
// fiber lifecycle, process sleep/suspend/wake semantics, resources, RNG.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
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

// A switch keeps only what _setjmp saves, so every live local of a
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

TEST(FiberStack, EnvOverridesAndClampsDefault) {
  ASSERT_EQ(unsetenv("NBCTUNE_FIBER_STACK"), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 256u * 1024u);
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "1048576", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 1048576u);
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "4096", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 16u * 1024u);  // clamped
  ASSERT_EQ(setenv("NBCTUNE_FIBER_STACK", "garbage", 1), 0);
  EXPECT_EQ(sim::default_fiber_stack_bytes(), 256u * 1024u);
  ASSERT_EQ(unsetenv("NBCTUNE_FIBER_STACK"), 0);
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
