#include "sim/engine.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trace/trace.hpp"

namespace nbctune::sim {

// ---------------------------------------------------------------- Process

Process::Process(Engine& engine, int id, std::string name,
                 std::function<void(Process&)> body, std::size_t stack_bytes)
    : engine_(engine),
      id_(id),
      name_(std::move(name)),
      fiber_([this, body = std::move(body)] { body(*this); }, stack_bytes) {}

void Process::sleep(Time dt) {
  if (dt < 0) throw std::invalid_argument("Process::sleep: negative dt");
  if (dt == 0) return;
  const Time t = engine_.now() + dt;
  if (engine_.advance_inline(t)) return;
  engine_.schedule_resume(t,
                          Engine::kSleepRef | static_cast<std::uint32_t>(id_));
  fiber_.yield();
}

void Process::suspend() {
  if (wake_pending_) {
    wake_pending_ = false;
    return;
  }
  suspended_ = true;
  fiber_.yield();
  suspended_ = false;
}

void Process::wake() {
  if (fiber_.running() || finished()) return;
  if (!suspended_) {
    // Sleeping or not yet started: remember the wake so the next suspend()
    // returns immediately.
    wake_pending_ = true;
    return;
  }
  if (wake_pending_) return;  // a resume event is already queued
  wake_pending_ = true;
  engine_.schedule_resume(engine_.now(),
                          Engine::kWakeRef | static_cast<std::uint32_t>(id_));
}

void Process::run_slice() { fiber_.resume(); }

// ----------------------------------------------------------------- Engine

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

std::uint32_t Engine::acquire_slot(Callback cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
    slot_gen_.push_back(0);
  }
  return slot;
}

void Engine::release_slot(std::uint32_t slot) noexcept {
  slots_[slot].reset();
  // The generation bump invalidates every outstanding id and heap/FIFO
  // entry referring to this slot's previous occupant.  (A single slot
  // would need 2^32 reuses for an id to alias; experiments run tens of
  // millions of events, far below that.)
  ++slot_gen_[slot];
  free_slots_.push_back(slot);
}

inline void Engine::check_time(Time t) const {
  // A NaN key would compare false both ways and corrupt the heap order
  // (and the clock); an infinite one would never fire.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("schedule_at: non-finite time");
  }
  if (t < now_) throw std::invalid_argument("schedule_at: time in the past");
}

void Engine::enqueue(Time t, std::uint32_t ref, std::uint32_t gen) {
  trace::count(trace::Ctr::EngineEventsScheduled);
  if (t == now_) {
    // Zero-delay fast path: no heap sift.  FIFO order equals sequence
    // order, and every heap event at this instant predates the clock's
    // arrival here, so heap-before-FIFO preserves global (t, seq) order.
    trace::count(trace::Ctr::EngineNowFifoHits);
    now_fifo_.push_back(NowEvent{ref, gen});
  } else {
    queue_.push(Event{t, next_seq_++, ref, gen});
  }
}

std::uint64_t Engine::schedule_at(Time t, Callback cb) {
  check_time(t);
  const std::uint32_t slot = acquire_slot(std::move(cb));
  const std::uint32_t gen = slot_gen_[slot];
  enqueue(t, slot, gen);
  return make_id(slot, gen);
}

void Engine::schedule_resume(Time t, std::uint32_t ref) {
  check_time(t);
  enqueue(t, ref, 0);
}

bool Engine::advance_inline(Time t) {
  // The wake-up at t would get the largest sequence number yet, so step()
  // would pop it next exactly when nothing is due at or before t: no
  // unstarted process waits at now_ (launch batch), the now-FIFO is
  // drained, and the heap's first live entry lies strictly after t.  It
  // must also fall inside the running call's limit, where step() would
  // stop instead.  Running the sleeper on in place then keeps every event
  // at its (t, seq) position.
  if (launching_ || now_head_ != now_fifo_.size() || !(t > now_) ||
      t > limit_ || !std::isfinite(t)) {
    return false;
  }
  while (!queue_.empty() && queue_.top().t <= t) {
    if (!stale(queue_.top().ref, queue_.top().gen)) return false;
    queue_.pop();  // cancelled: step() would skip it anyway
  }
  now_ = t;
  ++events_processed_;
  trace::count(trace::Ctr::EngineEventsScheduled);
  trace::count(trace::Ctr::EngineEventsFired);
  trace::count(trace::Ctr::EngineInlineAdvances);
  return true;
}

void Engine::resume(std::uint32_t ref) {
  Process& p = *processes_[ref & ~kResumeRefs];
  if ((ref & kSleepRef) != 0) {
    p.run_slice();
  } else if (p.suspended_) {
    // A wake resumes only a process still blocked in suspend(); one that
    // moved on (e.g. finished) drops it.
    p.wake_pending_ = false;
    p.run_slice();
  }
}

void Engine::cancel(std::uint64_t id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot < slot_gen_.size() && slot_gen_[slot] == gen) {
    trace::count(trace::Ctr::EngineEventsCancelled);
    release_slot(slot);
  }
}

Process& Engine::add_process(std::string name,
                             std::function<void(Process&)> body,
                             std::size_t stack_bytes) {
  const int id = static_cast<int>(processes_.size());
  processes_.push_back(std::make_unique<Process>(*this, id, std::move(name),
                                                 std::move(body), stack_bytes));
  Process* p = processes_.back().get();
  start_pending_.push_back(p);
  if (running_) {
    // Started mid-run: launch via an event at the current time.
    schedule_after(0.0, [this] { launch_pending(); });
  }
  return *p;
}

bool Engine::step(Time limit) {
  for (;;) {
    std::uint32_t ref = 0;
    const bool fifo_ready = now_head_ < now_fifo_.size();
    if (!queue_.empty() && (!fifo_ready || queue_.top().t <= now_)) {
      const Event ev = queue_.top();
      if (ev.t > limit) return false;
      queue_.pop();
      if (stale(ev.ref, ev.gen)) continue;  // cancelled
      now_ = ev.t;
      ref = ev.ref;
    } else if (fifo_ready) {
      if (now_ > limit) return false;  // run_until() into the past
      const NowEvent ev = now_fifo_[now_head_];
      if (++now_head_ == now_fifo_.size()) {
        now_fifo_.clear();
        now_head_ = 0;
      }
      if (stale(ev.ref, ev.gen)) continue;  // cancelled
      ref = ev.ref;
    } else {
      return false;
    }
    ++events_processed_;
    trace::count(trace::Ctr::EngineEventsFired);
    if ((ref & kResumeRefs) != 0) {
      resume(ref);
    } else {
      Callback cb = std::move(slots_[ref]);
      release_slot(ref);
      cb();
    }
    return true;
  }
}

void Engine::check_deadlock() const {
  std::ostringstream oss;
  bool any = false;
  for (const auto& p : processes_) {
    if (!p->finished() && p->suspended()) {
      if (!any) {
        oss << "simulated deadlock: event queue empty but processes "
               "suspended:";
        any = true;
      }
      oss << ' ' << p->name();
    }
  }
  if (any) throw DeadlockError(oss.str());
}

void Engine::launch_pending() {
  // FIFO start order (process 0 first) for reproducible startup.  Until the
  // whole batch has started, later processes are due at now_, so no sleep
  // may advance the clock in place.
  std::vector<Process*> batch;
  batch.swap(start_pending_);
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }  // also when a process's start throws
  } reset{launching_};
  launching_ = true;
  for (Process* p : batch) p->run_slice();
}

void Engine::run() {
  running_ = true;
  limit_ = std::numeric_limits<Time>::infinity();
  launch_pending();
  while (step(std::numeric_limits<Time>::infinity())) {
  }
  running_ = false;
  check_deadlock();
}

void Engine::run_until(Time t) {
  running_ = true;
  limit_ = t;
  launch_pending();
  while (step(t)) {
  }
  if (now_ < t) now_ = t;
  running_ = false;
}

}  // namespace nbctune::sim
