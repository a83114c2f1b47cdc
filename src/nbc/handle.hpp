#pragma once

// The schedule executor: LibNBC's NBC_Handle equivalent.
//
// A Handle binds a Schedule to a communicator and a tag, registers itself
// with the rank's progress engine, and advances the schedule one round at
// a time from progress passes.  This is the key fidelity point: a
// multi-round schedule needs multiple progress-engine invocations to move
// forward, so algorithms with more rounds need more progress calls to
// overlap — the phenomenon of the paper's Figs. 6 and 7.

#include <cstddef>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/world.hpp"
#include "nbc/schedule.hpp"

namespace nbctune::nbc {

/// Executes one Schedule; restartable (persistent-operation semantics).
class Handle : public mpi::ProgressClient {
 public:
  /// Cancel-on-timeout recovery (armed under lossy fault plans): when the
  /// operation has not completed `op_timeout` simulated seconds into a
  /// wait() — or a transport send was declared failed — every rank agrees
  /// (collectively) to cancel what is in flight and restart the operation
  /// on the fallback schedule with a fresh tag.
  struct Recovery {
    double op_timeout = 0.0;           ///< 0 = recovery off
    const Schedule* fallback = nullptr;
    int max_attempts = 10;             ///< restarts before wait() throws
  };
  /// @param ctx       the owning rank's context
  /// @param comm      communicator the schedule's peers refer to
  /// @param schedule  recipe to execute; must outlive the handle
  /// @param tag       tag for every message of this operation; concurrent
  ///                  operations on the same communicator need distinct tags
  Handle(mpi::Ctx& ctx, mpi::Comm comm, const Schedule* schedule, int tag);
  ~Handle() override;

  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  /// Begin (or restart) execution: posts round 0.  The previous execution
  /// must have completed.
  void start();

  /// True once every round has completed.
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// One progress pass on this rank; cheap completion check afterwards.
  bool test();

  /// Block (progressing) until the operation completes.  With recovery
  /// armed this is a deadline loop: timeout/failure triggers a collective
  /// agreement and a fallback restart (see Recovery).
  void wait();

  /// Arm (or disarm, with op_timeout <= 0) timeout recovery.  The
  /// fallback schedule must outlive the handle.
  void set_recovery(const Recovery& r) { recovery_ = r; }

  /// ProgressClient: advance at most one round per pass (LibNBC fidelity).
  double poke(mpi::Ctx& ctx) override;

  /// Swap the schedule (the tuner switches implementations between
  /// executions).  Only valid while inactive.
  void rebind(const Schedule* schedule);

  /// Fail-stop recovery: cancel everything in flight and deactivate
  /// without completing — the execution is abandoned, not finished
  /// (counted as nbc.ops_aborted; the started/completed invariant becomes
  /// started == completed + aborted).  No-op while inactive.
  void abort();

  /// Bind to a (shrunk) communicator with a fresh tag; peers in the
  /// schedule then refer to the new membership.  Only valid while
  /// inactive.
  void rebind_comm(mpi::Comm comm, int tag);

  [[nodiscard]] std::size_t rounds_completed() const noexcept {
    return round_;
  }

 private:
  double post_round(std::size_t r);  // returns CPU cost of posting
  /// The execution body start() and recover() share: reset to round 0,
  /// post it, cascade through rounds that complete synchronously, and
  /// complete if that finished the schedule.
  void begin();
  /// Post the rounds after the current one until one waits on
  /// communication or the schedule ends, adding their posting cost to
  /// `cost`.
  void advance(double& cost);
  void trace_completion();           // emit the op-lifetime span
  void recover();                    // cancel + restart on the fallback
  [[nodiscard]] bool any_pending_failed() const;

  mpi::Ctx& ctx_;
  mpi::Comm comm_;
  const Schedule* schedule_;
  int tag_;
  std::size_t round_ = 0;
  double start_time_ = 0.0;  // simulated start, for the op-lifetime span
  std::uint64_t op_corr_ = 0;  // trace parent of this execution's events
  std::vector<mpi::Req> pending_;
  // Cached stable pointers to the pending requests: the per-pass
  // completion poll is the hottest loop in the simulator.
  std::vector<mpi::Request*> pending_ptrs_;
  bool active_ = false;
  bool done_ = true;  // nothing started yet counts as complete
  Recovery recovery_;
  int fallbacks_ = 0;
  // One nbc.op completion span per logical operation, even when a rank
  // that already finished restarts for a peer's recovery (G1's 1:1
  // start/completion accounting depends on it).
  bool completion_emitted_ = false;
};

}  // namespace nbctune::nbc
