// Unit tests for the ScenarioPool sweep runner: determinism across
// thread counts, ordered aggregation, exception propagation, edge cases,
// and the work-stealing machinery under load.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario_pool.hpp"
#include "sim/engine.hpp"

namespace harness = nbctune::harness;
namespace sim = nbctune::sim;

namespace {

/// A miniature scenario: a seeded simulation whose result depends on its
/// own Engine/Rng only — the determinism contract's unit of work.
double run_mini_scenario(std::uint64_t seed) {
  sim::Engine eng(seed);
  eng.add_process("p", [&](sim::Process& p) {
    for (int i = 0; i < 50; ++i) p.sleep(eng.rng().uniform(0.0, 1.0));
  });
  eng.run();
  return eng.now();
}

std::vector<double> run_sweep(int threads, std::size_t n) {
  harness::ScenarioPool pool(threads);
  std::vector<double> out(n);
  pool.run_indexed(n, [&](std::size_t i) {
    out[i] = run_mini_scenario(1000 + i);
  });
  return out;
}

}  // namespace

TEST(ScenarioPool, DeterministicAcrossThreadCounts) {
  const std::size_t n = 64;
  const auto serial = run_sweep(1, n);
  EXPECT_EQ(serial, run_sweep(2, n));
  EXPECT_EQ(serial, run_sweep(8, n));
}

TEST(ScenarioPool, EveryIndexRunsExactlyOnce) {
  const std::size_t n = 500;
  harness::ScenarioPool pool(8);
  std::vector<std::atomic<int>> hits(n);
  pool.run_indexed(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ScenarioPool, EmptyBatchIsANoOp) {
  harness::ScenarioPool pool(4);
  bool touched = false;
  pool.run_indexed(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ScenarioPool, SingleTaskRuns) {
  harness::ScenarioPool pool(4);
  int value = 0;
  pool.run_indexed(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ScenarioPool, WorkerExceptionPropagates) {
  harness::ScenarioPool pool(4);
  EXPECT_THROW(
      pool.run_indexed(16,
                       [&](std::size_t i) {
                         if (i == 5) throw std::runtime_error("task 5 died");
                       }),
      std::runtime_error);
}

TEST(ScenarioPool, LowestIndexExceptionWinsAndOthersStillRun) {
  // Several tasks throw; the surviving exception must be the lowest
  // submission index regardless of execution order, and non-throwing
  // tasks still execute.
  for (int threads : {1, 4}) {
    harness::ScenarioPool pool(threads);
    const std::size_t n = 32;
    std::vector<std::atomic<int>> hits(n);
    try {
      pool.run_indexed(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 20 || i == 3 || i == 27) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "threads=" << threads;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

namespace {

/// Records every on_task_failed callback (fired from worker threads).
struct FailureLog : harness::PoolObserver {
  void on_batch_begin(std::size_t tasks) override { batches.push_back(tasks); }
  void on_task_failed(std::size_t index, const char* what) override {
    std::lock_guard<std::mutex> lk(mu);
    failed.emplace_back(index, what);
  }
  std::mutex mu;
  std::vector<std::size_t> batches;
  std::vector<std::pair<std::size_t, std::string>> failed;
};

}  // namespace

TEST(ScenarioPool, ObserverSeesEveryFailureAndBatchStillDrains) {
  // Crash containment: a throwing scenario body must not kill the sweep.
  // Every other task still runs, every failure is reported to the
  // observer with its submission index and error string, and only then
  // does the driver-facing rethrow (lowest index) fire.
  for (int threads : {1, 4}) {
    harness::ScenarioPool pool(threads);
    FailureLog log;
    pool.set_observer(&log);
    const std::size_t n = 24;
    std::vector<std::atomic<int>> hits(n);
    try {
      pool.run_indexed(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 9 || i == 2) {
          throw std::runtime_error("scenario " + std::to_string(i) + " blew up");
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "scenario 2 blew up") << "threads=" << threads;
    }
    pool.set_observer(nullptr);
    // The batch drained before the rethrow: all 24 tasks ran exactly once.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
    ASSERT_EQ(log.failed.size(), 2u) << "threads=" << threads;
    std::sort(log.failed.begin(), log.failed.end());
    EXPECT_EQ(log.failed[0].first, 2u);
    EXPECT_EQ(log.failed[0].second, "scenario 2 blew up");
    EXPECT_EQ(log.failed[1].first, 9u);
    EXPECT_EQ(log.failed[1].second, "scenario 9 blew up");
    EXPECT_EQ(log.batches, std::vector<std::size_t>{n});
  }
}

TEST(ScenarioPool, ObserverSeesNonStdExceptionFailures) {
  // A body throwing something outside std::exception still gets contained
  // and reported (with a generic description), not lost.
  harness::ScenarioPool pool(2);
  FailureLog log;
  pool.set_observer(&log);
  EXPECT_THROW(pool.run_indexed(4,
                                [&](std::size_t i) {
                                  if (i == 1) throw 42;
                                }),
               int);
  pool.set_observer(nullptr);
  ASSERT_EQ(log.failed.size(), 1u);
  EXPECT_EQ(log.failed[0].first, 1u);
  EXPECT_FALSE(log.failed[0].second.empty());
}

TEST(ScenarioPool, PoolIsReusableAcrossBatches) {
  harness::ScenarioPool pool(4);
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<int> out(37, -1);
    pool.run_indexed(out.size(), [&](std::size_t i) {
      out[i] = batch * 1000 + static_cast<int>(i);
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], batch * 1000 + static_cast<int>(i));
    }
  }
}

TEST(ScenarioPool, ReentrantDispatchRunsInline) {
  // A task that dispatches a sub-batch on its own pool must not deadlock;
  // the sub-batch runs inline on the worker.
  harness::ScenarioPool pool(2);
  std::vector<int> outer(4, 0);
  pool.run_indexed(outer.size(), [&](std::size_t i) {
    int sum = 0;
    pool.run_indexed(3, [&](std::size_t j) { sum += static_cast<int>(j) + 1; });
    outer[i] = sum;
  });
  for (int v : outer) EXPECT_EQ(v, 6);
}

TEST(ScenarioPool, MapAggregatesInSubmissionOrder) {
  harness::ScenarioPool pool(8);
  std::vector<int> items(40);
  std::iota(items.begin(), items.end(), 0);
  const auto out = pool.map<int>(
      items, [](int item, std::size_t idx) {
        return item * 2 + static_cast<int>(idx);
      });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ScenarioPool, ResolveThreadsHonoursEnvAndRequest) {
  EXPECT_EQ(harness::ScenarioPool::resolve_threads(5), 5);
  ::setenv("NBCTUNE_THREADS", "3", 1);
  EXPECT_EQ(harness::ScenarioPool::resolve_threads(0), 3);
  EXPECT_EQ(harness::ScenarioPool::resolve_threads(2), 2);  // arg wins
  ::unsetenv("NBCTUNE_THREADS");
  const int fallback = harness::ScenarioPool::resolve_threads(0);
  EXPECT_GE(fallback, 1);
  // Only a whole positive decimal in int range counts; anything else
  // (atoi would read 99999999999 as 1215752191 and 4294967297 as 1)
  // falls back to the hardware concurrency.
  for (const char* bad : {"99999999999", "4294967297", "-3", "+3", " 3",
                          "3 ", "3x", "0x4", "0", ""}) {
    SCOPED_TRACE(bad);
    ::setenv("NBCTUNE_THREADS", bad, 1);
    EXPECT_EQ(harness::ScenarioPool::resolve_threads(0), fallback);
  }
  ::unsetenv("NBCTUNE_THREADS");
}

TEST(ScenarioPool, UnevenTasksAllComplete) {
  // Work stealing: one shard gets a block of heavy tasks; idle workers
  // must steal them rather than wait.
  harness::ScenarioPool pool(4);
  const std::size_t n = 64;
  std::vector<double> out(n, 0.0);
  pool.run_indexed(n, [&](std::size_t i) {
    // The first block (worker 0's seed) is 30x heavier than the rest.
    const int reps = i < n / 4 ? 30 : 1;
    double acc = 0;
    for (int r = 0; r < reps; ++r) acc += run_mini_scenario(i * 31 + r);
    out[i] = acc;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_GT(out[i], 0.0) << i;
}
