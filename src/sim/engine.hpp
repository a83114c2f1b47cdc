#pragma once

// Discrete-event simulation engine.
//
// The engine owns a clock (seconds, double precision), a priority queue of
// events, and a set of processes.  Each process is a fiber (see fiber.hpp)
// running an arbitrary program; processes advance the clock by sleeping and
// interact through events.  Event ordering is fully deterministic: ties in
// time are broken by insertion sequence number.  A process's own sleeps and
// wake-ups are queue entries without a callback, and a sleep whose wake-up
// would be the very next event advances the clock in place; neither changes
// which event runs when.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/inline_fn.hpp"
#include "sim/random.hpp"

namespace nbctune::sim {

/// Simulated time in seconds.
using Time = double;

class Engine;

/// One simulated process: a program running on its own fiber, owned by the
/// engine.  All methods except wake() must be called from inside the
/// process's own fiber; wake() is called from scheduler context (events).
class Process {
 public:
  Process(Engine& engine, int id, std::string name,
          std::function<void(Process&)> body, std::size_t stack_bytes);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Engine-wide process index (0-based, dense).
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] bool finished() const noexcept { return fiber_.finished(); }

  /// Advance this process's time by dt; other events run meanwhile.
  /// A sleeping process cannot be interrupted (models a busy CPU).  When
  /// nothing else is due before the wake-up, the clock advances without a
  /// fiber switch.
  void sleep(Time dt);

  /// Block until some event calls wake().  Returns immediately if a wake
  /// arrived since the last suspend (no lost wakeups when used in a
  /// check-condition-then-suspend loop).
  void suspend();

  /// Wake a suspended process: schedules its resumption at the current
  /// time.  No-op if the process is running, sleeping, or already woken.
  /// Safe to call multiple times; wakes coalesce.
  void wake();

  /// True if currently blocked in suspend().
  [[nodiscard]] bool suspended() const noexcept { return suspended_; }

 private:
  friend class Engine;
  void run_slice();  // resume the fiber (scheduler side)

  Engine& engine_;
  int id_;
  std::string name_;
  Fiber fiber_;
  bool suspended_ = false;
  bool wake_pending_ = false;
};

/// The simulation engine / scheduler.
class Engine {
 public:
  /// Event callbacks are small-buffer callables (see inline_fn.hpp):
  /// scheduling never allocates, which matters at tens of millions of
  /// events per experiment.
  using Callback = InlineFn;

  explicit Engine(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Schedule cb at absolute time t (>= now).  Returns an id for cancel().
  /// Throws std::invalid_argument for a past, NaN or infinite t.
  /// Events at exactly the current time bypass the heap entirely (the
  /// wake()/zero-delay fast path) and run FIFO after any heap events that
  /// were already pending for this instant.
  std::uint64_t schedule_at(Time t, Callback cb);

  /// Schedule cb dt seconds from now.
  std::uint64_t schedule_after(Time dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Cancel a scheduled event in O(1).  Cancelling an already-fired or
  /// unknown id is a no-op.  The slot is reclaimed immediately; the stale
  /// heap entry is skipped when it surfaces.
  void cancel(std::uint64_t id);

  /// Create a process; its body starts running when run() is called.
  /// Returns the process (owned by the engine, stable address).
  /// @param stack_bytes fiber stack size; 0 = sim::kDefaultFiberStackBytes
  Process& add_process(std::string name, std::function<void(Process&)> body,
                       std::size_t stack_bytes = 0);

  [[nodiscard]] Process& process(int id) { return *processes_.at(id); }

  /// Run until the event queue is empty.  Throws DeadlockError if the
  /// queue drains while processes are still suspended.
  void run();

  /// Run until the clock reaches t (events at exactly t still fire).
  void run_until(Time t);

  /// Thrown by run() when all events are exhausted but suspended
  /// processes remain: a genuine simulated deadlock.
  struct DeadlockError : std::runtime_error {
    explicit DeadlockError(const std::string& what)
        : std::runtime_error(what) {}
  };

 private:
  friend class Process;

  // The heap holds small plain entries.  An entry's `ref` is either a slot
  // of the callback slab or a process resumption: the process id tagged
  // kSleepRef (resume it) or kWakeRef (resume it if still suspended).
  // Resumptions are never cancelled, so they need no slot, generation or
  // callable, and step() resumes the process directly.
  //
  // Callbacks live in the slab so heap sifts move 24 bytes instead of the
  // whole callable.  Each slot carries a generation counter, bumped on
  // every release: an event id encodes (slot, generation), so cancel() is
  // pointer-free O(1) arithmetic and a popped heap entry whose generation
  // no longer matches its slot is simply stale (cancelled or superseded).
  // The slab never shrinks; freed slots are recycled LIFO for cache warmth.
  struct Event {
    Time t;
    std::uint64_t seq;
    std::uint32_t ref;
    std::uint32_t gen;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  /// Entry of the now-FIFO: events scheduled at exactly the current time.
  struct NowEvent {
    std::uint32_t ref;
    std::uint32_t gen;
  };

  // Slot indices and process ids stay far below 2^30: a slab that large
  // would hold 64 GiB of callbacks.
  static constexpr std::uint32_t kSleepRef = 1u << 31;
  static constexpr std::uint32_t kWakeRef = 1u << 30;
  static constexpr std::uint32_t kResumeRefs = kSleepRef | kWakeRef;

  static constexpr std::uint64_t make_id(std::uint32_t slot,
                                         std::uint32_t gen) noexcept {
    return (static_cast<std::uint64_t>(slot) << 32) | gen;
  }
  /// True for a callback entry whose slot was released since it was queued.
  [[nodiscard]] bool stale(std::uint32_t ref,
                           std::uint32_t gen) const noexcept {
    return (ref & kResumeRefs) == 0 && slot_gen_[ref] != gen;
  }

  std::uint32_t acquire_slot(Callback cb);
  void release_slot(std::uint32_t slot) noexcept;
  void check_time(Time t) const;  // throws for a past or non-finite t
  void enqueue(Time t, std::uint32_t ref, std::uint32_t gen);

  // Process side (see Process::sleep and Process::wake).
  /// Queue a resumption (ref = process id | kSleepRef or kWakeRef) at t.
  void schedule_resume(Time t, std::uint32_t ref);
  /// Advance the clock to t in place if the wake-up at t is the event
  /// step() would run next; returns false otherwise.  Either way it may
  /// drop cancelled heap entries, which step() would skip.
  bool advance_inline(Time t);
  void resume(std::uint32_t ref);  // run a popped resumption

  bool step(Time limit);  // pop and run one event with t <= limit
  void check_deadlock() const;
  void launch_pending();  // start processes added since the last call

  Time now_ = 0.0;
  Time limit_ = 0.0;  // the running run()/run_until() call's limit
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> free_slots_;
  // Fast path for schedule_after(0)-style wakeups: a FIFO of events at
  // t == now_, drained after the heap's events for this instant (which
  // necessarily carry smaller sequence numbers) and before the clock
  // advances.  Skips two O(log n) heap sifts per wakeup.
  std::vector<NowEvent> now_fifo_;
  std::size_t now_head_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Process*> start_pending_;
  Rng rng_;
  bool running_ = false;
  bool launching_ = false;  // inside launch_pending(): no inline advance
};

}  // namespace nbctune::sim
