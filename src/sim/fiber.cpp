// glibc's fortified _longjmp (__longjmp_chk) aborts on a jump to a lower
// stack address unless it starts on the signal stack.  A switch between the
// scheduler's stack and a fiber stack often is such a jump, so this file must
// get the plain _longjmp even where the compiler enables fortification.
#undef _FORTIFY_SOURCE

#include "sim/fiber.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include <ucontext.h>

#ifdef NBCTUNE_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

#include "trace/trace.hpp"

namespace nbctune::sim {

namespace {
// The fiber being entered or currently running.  Single-threaded by design.
thread_local Fiber* g_current = nullptr;

constexpr std::size_t kFallbackStackBytes = 256 * 1024;
constexpr std::size_t kMinStackBytes = 16 * 1024;

std::unique_ptr<char[]> allocate_stack(std::size_t stack_bytes) {
  try {
    return std::unique_ptr<char[]>(new char[stack_bytes]);
  } catch (const std::bad_alloc&) {
    throw std::runtime_error(
        "fiber: cannot allocate a " + std::to_string(stack_bytes) +
        "-byte stack (out of memory); shrink the world or lower the stack "
        "size with NBCTUNE_FIBER_STACK or --fiber-stack (16384 fits the "
        "pinned collective loop)");
  }
}
}  // namespace

std::size_t default_fiber_stack_bytes() {
  // Read the environment on every call so tests can vary it per world.
  if (const char* env = std::getenv("NBCTUNE_FIBER_STACK")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return std::max(static_cast<std::size_t>(v), kMinStackBytes);
    }
  }
  return kFallbackStackBytes;
}

Fiber::Fiber(Fn fn, std::size_t stack_bytes)
    : fn_(std::move(fn)),
      stack_bytes_(stack_bytes != 0 ? std::max(stack_bytes, kMinStackBytes)
                                    : default_fiber_stack_bytes()) {
  if (!fn_) throw std::invalid_argument("Fiber requires a callable");
  stack_ = allocate_stack(stack_bytes_);
  trace::count(trace::Ctr::SimFibersCreated);
}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber leaks whatever is on its
  // stack (no unwinding).  The simulator only destroys fibers after their
  // programs complete; assert in debug builds to catch misuse.
  assert(finished_ || !started_);
}

Fiber* Fiber::current() noexcept { return g_current; }

void Fiber::trampoline() {
  Fiber* self = g_current;
#ifdef NBCTUNE_FIBER_ASAN
  // First entry: no shadow to restore; record the scheduler's stack so
  // yield() can announce switches back to it.
  __sanitizer_finish_switch_fiber(nullptr, &self->sched_stack_bottom_,
                                  &self->sched_stack_size_);
#endif
  try {
    self->fn_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->finished_ = true;
#ifdef NBCTUNE_FIBER_ASAN
  // Final departure from this stack: null fake-stack frees the shadow.
  __sanitizer_start_switch_fiber(nullptr, self->sched_stack_bottom_,
                                 self->sched_stack_size_);
#endif
  _longjmp(self->return_jb_, 1);
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (running_) throw std::logic_error("resume() on running fiber");
  // First entry only: a context that starts trampoline() on the fiber's
  // stack.  trampoline() leaves with _longjmp, never through this context.
  // It lives in this frame because a helper's frame would be abandoned on
  // the scheduler's stack, leaving ASan's redzone poison below this one.
  ucontext_t entry;
  if (!started_) {
    if (getcontext(&entry) != 0) throw std::runtime_error("getcontext failed");
    entry.uc_stack.ss_sp = stack_.get();
    entry.uc_stack.ss_size = stack_bytes_;
    entry.uc_link = nullptr;
    makecontext(&entry, &Fiber::trampoline, 0);
  }
  trace::count(trace::Ctr::FiberSwitches);
  Fiber* prev = g_current;
  g_current = this;
  running_ = true;
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_start_switch_fiber(&sched_fake_stack_, stack_.get(),
                                 stack_bytes_);
#endif
  if (_setjmp(return_jb_) == 0) {
    if (started_) _longjmp(fiber_jb_, 1);
    started_ = true;
    setcontext(&entry);
    std::abort();  // setcontext returns only if it could not switch
  }
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(sched_fake_stack_, nullptr, nullptr);
#endif
  running_ = false;
  g_current = prev;
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  if (g_current != this || !running_)
    throw std::logic_error("yield() must be called on the running fiber");
  if (_setjmp(fiber_jb_) == 0) {
#ifdef NBCTUNE_FIBER_ASAN
    __sanitizer_start_switch_fiber(&fiber_fake_stack_, sched_stack_bottom_,
                                   sched_stack_size_);
#endif
    _longjmp(return_jb_, 1);
  }
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &sched_stack_bottom_,
                                  &sched_stack_size_);
#endif
}

}  // namespace nbctune::sim
