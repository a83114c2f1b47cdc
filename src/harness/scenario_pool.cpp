#include "harness/scenario_pool.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "trace/trace.hpp"

namespace nbctune::harness {

namespace {
constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

std::string describe_error(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}
}  // namespace

struct ScenarioPool::Impl {
  // One deque of task indices per worker, individually locked.  At sweep
  // granularity (every task simulates a full scenario, milliseconds to
  // seconds of host time) the per-pop mutex is noise; what matters is
  // that idle workers can drain a loaded victim.
  struct Shard {
    std::mutex mu;
    std::deque<std::size_t> q;
  };

  Impl(int threads, std::atomic<std::uint64_t>* completed,
       std::atomic<std::uint64_t>* steals,
       std::atomic<PoolObserver*>* observer)
      : shards(static_cast<std::size_t>(threads)),
        completed_ctr(completed),
        steals_ctr(steals),
        observer_ptr(observer) {
    workers.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      shutdown = true;
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  void worker_main(int me) {
    std::uint64_t seen_batch = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk,
                     [&] { return shutdown || batch_id != seen_batch; });
        if (shutdown) return;
        seen_batch = batch_id;
      }
      drain(me);
    }
  }

  /// Run tasks until neither my shard nor any victim has work.
  void drain(int me) {
    std::size_t idx;
    while (pop_task(me, &idx)) {
      run_task(idx);
    }
  }

  bool pop_task(int me, std::size_t* idx) {
    {
      Shard& own = shards[static_cast<std::size_t>(me)];
      std::lock_guard<std::mutex> lk(own.mu);
      if (!own.q.empty()) {
        *idx = own.q.front();
        own.q.pop_front();
        return true;
      }
    }
    // Steal from the back of the fullest victim: grabs the work farthest
    // from the owner's hot end and keeps contiguous blocks contiguous.
    for (;;) {
      int victim = -1;
      std::size_t victim_size = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (static_cast<int>(s) == me) continue;
        std::lock_guard<std::mutex> lk(shards[s].mu);
        if (shards[s].q.size() > victim_size) {
          victim = static_cast<int>(s);
          victim_size = shards[s].q.size();
        }
      }
      if (victim < 0) return false;
      Shard& v = shards[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lk(v.mu);
      if (v.q.empty()) continue;  // raced: somebody drained it, rescan
      *idx = v.q.back();
      v.q.pop_back();
      steals_ctr->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  /// Task indices still parked in shard deques (observability gauge).
  std::size_t queued() {
    std::size_t n = 0;
    for (Shard& s : shards) {
      std::lock_guard<std::mutex> lk(s.mu);
      n += s.q.size();
    }
    return n;
  }

  void run_task(std::size_t idx) {
    // Route traces finished inside this task into its submission-order
    // slot; the batch adopts slots by index afterwards, so a traced sweep
    // exports byte-identically at any thread count.
    std::vector<trace::FinishedTrace>* prev_staging = nullptr;
    const bool tracing = staged != nullptr;
    if (tracing) prev_staging = trace::Session::set_staging(&(*staged)[idx]);
    try {
      (*fn)(idx);
    } catch (...) {
      const std::exception_ptr ep = std::current_exception();
      if (PoolObserver* o =
              observer_ptr->load(std::memory_order_acquire)) {
        o->on_task_failed(idx, describe_error(ep).c_str());
      }
      std::lock_guard<std::mutex> lk(mu);
      if (idx < error_index) {
        error_index = idx;
        error = ep;
      }
    }
    if (tracing) trace::Session::set_staging(prev_staging);
    completed_ctr->fetch_add(1, std::memory_order_relaxed);
    if (unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu);
      done_cv.notify_all();
    }
  }

  void run_batch(std::size_t n, const std::function<void(std::size_t)>& f) {
    std::vector<std::vector<trace::FinishedTrace>> staging;
    const bool tracing = trace::Session::enabled();
    {
      std::lock_guard<std::mutex> lk(mu);
      fn = &f;
      if (tracing) {
        staging.resize(n);
        staged = &staging;
      }
      error = nullptr;
      error_index = kNoError;
      unfinished.store(n, std::memory_order_relaxed);
      // Seed each worker with a contiguous block of indices; remainders
      // spread one extra task over the first workers.
      const std::size_t w = shards.size();
      const std::size_t base = n / w;
      const std::size_t extra = n % w;
      std::size_t next = 0;
      for (std::size_t s = 0; s < w; ++s) {
        std::lock_guard<std::mutex> slk(shards[s].mu);
        const std::size_t take = base + (s < extra ? 1 : 0);
        for (std::size_t i = 0; i < take; ++i) shards[s].q.push_back(next++);
      }
      ++batch_id;
    }
    work_cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    done_cv.wait(lk, [&] {
      return unfinished.load(std::memory_order_acquire) == 0;
    });
    fn = nullptr;
    staged = nullptr;
    if (tracing) {
      // Submission-order merge: slot i holds everything task i produced.
      for (auto& slot : staging) {
        for (auto& t : slot) trace::Session::instance().adopt(std::move(t));
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

  std::vector<Shard> shards;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t>* completed_ctr;
  std::atomic<std::uint64_t>* steals_ctr;
  std::atomic<PoolObserver*>* observer_ptr;
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  const std::function<void(std::size_t)>* fn = nullptr;
  // Per-task trace staging slots of the active batch (null when the trace
  // session is disabled); written under `mu` before the batch starts.
  std::vector<std::vector<trace::FinishedTrace>>* staged = nullptr;
  std::atomic<std::size_t> unfinished{0};
  std::uint64_t batch_id = 0;
  bool shutdown = false;
  std::exception_ptr error;
  std::size_t error_index = kNoError;
};

int ScenarioPool::resolve_threads(int requested) noexcept {
  if (requested > 0) return requested;
  // Only a whole positive decimal in int range counts: a sign, a space,
  // an overflow or trailing text falls back to the hardware concurrency.
  if (const char* env = std::getenv("NBCTUNE_THREADS")) {
    const std::string_view s(env);
    int n = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
    if (ec == std::errc{} && end == s.data() + s.size() && n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ScenarioPool::ScenarioPool(int threads)
    : impl_(nullptr), threads_(resolve_threads(threads)) {
  if (threads_ > 1) {
    impl_ = new Impl(threads_, &completed_, &steals_, &observer_);
  }
}

ScenarioPool::~ScenarioPool() { delete impl_; }

PoolStats ScenarioPool::stats() const {
  PoolStats s;
  s.tasks_submitted = submitted_.load(std::memory_order_relaxed);
  s.tasks_completed = completed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.queued = impl_ != nullptr ? impl_->queued() : 0;
  s.inflight = s.tasks_submitted >= s.tasks_completed
                   ? static_cast<std::size_t>(s.tasks_submitted -
                                              s.tasks_completed)
                   : 0;
  return s;
}

void ScenarioPool::run_indexed(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  submitted_.fetch_add(n, std::memory_order_relaxed);
  if (PoolObserver* o = observer_.load(std::memory_order_acquire)) {
    o->on_batch_begin(n);
  }
  const bool pooled =
      impl_ != nullptr && n > 1 && !busy_.exchange(true, std::memory_order_acquire);
  if (!pooled) {
    // Inline execution: same contract as the pooled path (every task
    // runs; the lowest-index exception propagates afterwards).
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        const std::exception_ptr ep = std::current_exception();
        if (PoolObserver* o = observer_.load(std::memory_order_acquire)) {
          o->on_task_failed(i, describe_error(ep).c_str());
        }
        if (error == nullptr) error = ep;
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  try {
    impl_->run_batch(n, fn);
  } catch (...) {
    busy_.store(false, std::memory_order_release);
    throw;
  }
  busy_.store(false, std::memory_order_release);
}

}  // namespace nbctune::harness
