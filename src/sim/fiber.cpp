#include "sim/fiber.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#ifdef NBCTUNE_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef NBCTUNE_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#include "trace/trace.hpp"

#if !defined(__x86_64__) || !defined(__ELF__)
#error "src/sim/fiber.cpp: the fiber switch exists for x86-64 ELF only"
#endif

// nbctune_fiber_switch(save, load): push the callee-saved registers, store
// the stack pointer in *save, make `load` the stack pointer, pop the
// registers saved there and return to the address above them.  The
// caller-saved registers need no saving: the call clobbers them anyway.
extern "C" void nbctune_fiber_switch(void** save, void* load) noexcept;
asm(R"(
    .pushsection .text
    .p2align 4
    .globl nbctune_fiber_switch
    .hidden nbctune_fiber_switch
    .type nbctune_fiber_switch, @function
nbctune_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size nbctune_fiber_switch, .-nbctune_fiber_switch
    .popsection
)");

namespace nbctune::sim {

namespace {
// The fiber being entered or currently running.  Single-threaded by design.
thread_local Fiber* g_current = nullptr;

constexpr std::size_t kMinStackBytes = 16 * 1024;
constexpr int kSavedRegisters = 6;  // rbp, rbx, r12-r15

std::unique_ptr<char[]> allocate_stack(std::size_t stack_bytes) {
  try {
    return std::unique_ptr<char[]>(new char[stack_bytes]);
  } catch (const std::bad_alloc&) {
    throw std::runtime_error(
        "fiber: cannot allocate a " + std::to_string(stack_bytes) +
        "-byte stack (out of memory); shrink the world or lower the stack "
        "size with --fiber-stack or fiber_stack_bytes (16384 fits the "
        "pinned collective loop)");
  }
}

// Lay out a fresh stack as if `entry` had been called from a suspended
// switch: below a 16-byte-aligned top, a null return address for `entry`
// (it never returns; the null ends unwinding), `entry` as the switch's
// return address, and zeroed callee-saved registers.  The switch's `ret`
// then enters `entry` with rsp + 8 16-byte aligned, as a call would.
void* prime_stack(char* stack, std::size_t bytes, void (*entry)()) {
  const auto top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<void**>(top);
  *--sp = nullptr;
  *--sp = reinterpret_cast<void*>(entry);
  for (int i = 0; i < kSavedRegisters; ++i) *--sp = nullptr;
  return sp;
}
}  // namespace

Fiber::Fiber(Fn fn, std::size_t stack_bytes)
    : fn_(std::move(fn)),
      stack_bytes_(stack_bytes != 0 ? std::max(stack_bytes, kMinStackBytes)
                                    : kDefaultFiberStackBytes) {
  if (!fn_) throw std::invalid_argument("Fiber requires a callable");
  stack_ = allocate_stack(stack_bytes_);
  trace::count(trace::Ctr::SimFibersCreated);
}

Fiber::~Fiber() {
  // Destroying a suspended-but-unfinished fiber leaks whatever is on its
  // stack (no unwinding).  The simulator only destroys fibers after their
  // programs complete; assert in debug builds to catch misuse.
  assert(finished_ || !started_);
#ifdef NBCTUNE_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
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
#ifdef NBCTUNE_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_return_, 0);
#endif
  nbctune_fiber_switch(&self->fiber_sp_, self->return_sp_);
  std::abort();  // a finished fiber is never switched back into
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (running_) throw std::logic_error("resume() on running fiber");
  if (!started_) {
    started_ = true;
    fiber_sp_ = prime_stack(stack_.get(), stack_bytes_, &Fiber::trampoline);
#ifdef NBCTUNE_FIBER_TSAN
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }
  trace::count(trace::Ctr::FiberSwitches);
  Fiber* prev = g_current;
  g_current = this;
  running_ = true;
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_start_switch_fiber(&sched_fake_stack_, stack_.get(),
                                 stack_bytes_);
#endif
#ifdef NBCTUNE_FIBER_TSAN
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  nbctune_fiber_switch(&return_sp_, fiber_sp_);
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
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, sched_stack_bottom_,
                                 sched_stack_size_);
#endif
#ifdef NBCTUNE_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_return_, 0);
#endif
  nbctune_fiber_switch(&fiber_sp_, return_sp_);
#ifdef NBCTUNE_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &sched_stack_bottom_,
                                  &sched_stack_size_);
#endif
}

}  // namespace nbctune::sim
