#pragma once

// Cooperative user-space fibers with a register-only switch.
//
// The simulation runs every simulated rank as one fiber.  Exactly one fiber
// executes at any time; the scheduler (the "main" context) resumes a fiber,
// and the fiber returns control by yielding.  This gives deterministic,
// single-threaded execution with cheap context switches, which matters on
// the single-core hosts this simulator targets.
//
// A switch is one short assembly routine (fiber.cpp; x86-64 System V only):
// it pushes the callee-saved registers, swaps stack pointers, pops the other
// context's registers and returns into it, so it never enters the kernel.  A
// fiber's first resume() primes its stack so that this return lands in the
// fiber's entry function.  Nothing else is switched: fibers share their
// thread's signal mask and floating-point environment (the MXCSR and x87
// control words), so a fiber that changes either changes it for the
// scheduler and every other fiber on the thread.  The simulator changes
// neither.  The routine keeps no CET shadow stack; glibc leaves the shadow
// stack off unless a tunable turns it on.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

// AddressSanitizer must be told about stack switches, or unwinding on a
// fiber stack (e.g. an exception thrown by a simulated rank) is reported
// as stack-use-after-scope.  ThreadSanitizer must be told too: it cannot
// see the switch routine, and would mix up the fibers' shadow call stacks
// and happens-before state.  The annotations are no-ops otherwise.
#ifdef __SANITIZE_ADDRESS__
#define NBCTUNE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NBCTUNE_FIBER_ASAN 1
#endif
#endif
#ifdef __SANITIZE_THREAD__
#define NBCTUNE_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NBCTUNE_FIBER_TSAN 1
#endif
#endif

namespace nbctune::sim {

/// Stack size used when a caller does not pick one.  It is generous for
/// the schedule builders and FFT kernels that run on fiber stacks;
/// pure-collective mega-scale runs fit in the 16 KiB floor, which keeps a
/// 131072-rank world near 10 KiB of resident memory per rank.
inline constexpr std::size_t kDefaultFiberStackBytes = 256 * 1024;

/// A single cooperatively scheduled fiber.
///
/// Lifecycle: construct with the function to run, call resume() to enter it,
/// the function calls yield() to suspend back into resume()'s caller.  Once
/// the function returns, finished() is true and resume() must not be called
/// again.  Exceptions escaping the fiber function are captured and rethrown
/// from resume().  Constructing a fiber only allocates its stack; the first
/// resume() primes it.
class Fiber {
 public:
  using Fn = std::function<void()>;

  /// @param fn          body executed on the fiber's own stack
  /// @param stack_bytes stack size, raised to a 16 KiB floor; 0 means
  ///                    kDefaultFiberStackBytes.
  ///                    Throws std::runtime_error (not std::bad_alloc) with
  ///                    an actionable message when the stack cannot be
  ///                    allocated.
  explicit Fiber(Fn fn, std::size_t stack_bytes = 0);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Switch from the scheduler into the fiber.  Returns when the fiber
  /// yields or its function returns.  Rethrows any exception that escaped
  /// the fiber body.
  void resume();

  /// Switch from inside the fiber back to the scheduler.  Must only be
  /// called on the currently running fiber.
  void yield();

  /// True once the fiber function has returned.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True while execution is inside this fiber (between resume and yield).
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The fiber currently executing, or nullptr when in the scheduler.
  static Fiber* current() noexcept;

 private:
  [[noreturn]] static void trampoline();

  Fn fn_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
  void* fiber_sp_ = nullptr;   // where yield() suspended the fiber
  void* return_sp_ = nullptr;  // where resume() waits for the next yield/finish
  bool started_ = false;
  bool finished_ = false;
  bool running_ = false;
  std::exception_ptr pending_exception_;
#ifdef NBCTUNE_FIBER_ASAN
  void* sched_fake_stack_ = nullptr;  // scheduler's shadow while in the fiber
  void* fiber_fake_stack_ = nullptr;  // fiber's shadow while suspended
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
#endif
#ifdef NBCTUNE_FIBER_TSAN
  void* tsan_fiber_ = nullptr;   // this fiber's TSan context
  void* tsan_return_ = nullptr;  // resume()'s caller's TSan context
#endif
};

}  // namespace nbctune::sim
