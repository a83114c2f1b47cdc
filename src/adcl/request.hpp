#pragma once

// Persistent collective requests and the timer object (paper §III-C/D).
//
// A Request is the ADCL_Request of the paper: a persistent non-blocking
// collective bound to fixed buffers.  Each iteration the application calls
// init() (start the operation), computes — calling progress() to drive the
// library — and wait()s.  During the learning phase the request executes a
// different candidate implementation per batch of iterations; after the
// decision it sticks to the winner.
//
// The timing problem of non-blocking operations (the time "inside" the
// operation is not observable) is solved by the Timer: it brackets a whole
// code section containing init/compute/wait, and its measurement is
// attributed to the implementation that executed in that section.  Without
// a timer, a request self-times from init() to the end of wait().

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "adcl/function.hpp"
#include "adcl/selection.hpp"
#include "nbc/handle.hpp"

namespace nbctune::adcl {

/// A persistent, auto-tuned collective operation.
class Request {
 public:
  /// Normally built through the ialltoall_init/ibcast_init/... factories.
  /// @param shared  join an existing selection (co-tuned requests); when
  ///                null the request owns a fresh SelectionState.
  Request(mpi::Ctx& ctx, std::shared_ptr<const FunctionSet> fset, OpArgs args,
          TuningOptions opts,
          std::shared_ptr<SelectionState> shared = nullptr);
  ~Request();

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Start the operation with the currently selected implementation
  /// (ADCL_Request_init of the paper's listing).
  void init();

  /// Complete the operation (ADCL_Request_wait).  Self-times and feeds the
  /// selection logic unless a Timer drives this request.
  void wait();

  /// Drive the progress engine (the ADCL progress function, §III-C).
  void progress();

  /// init() + wait(): blocking execution (ADCL_Request_start).
  void start();

  /// Fail-stop recovery: abandon any in-flight execution, rebind the
  /// request to the shrunk communicator `comm` with a fresh tag, drop the
  /// cached schedules (they address dead peers; rebuilt lazily, which
  /// also re-elects node leaders in hierarchical function sets) and
  /// re-open tuning rolled back to `resume_iteration`.  Call once per
  /// recovery epoch; co-tuned requests sharing a SelectionState must
  /// funnel through a single recover() call per state.
  void recover(const mpi::Comm& comm, int resume_iteration);

  /// Fail-stop unwind of a dying rank: abort the in-flight execution (it
  /// can neither complete nor be redone here) so the started = completed
  /// + aborted ledger stays exact, without touching the selection state.
  /// No-op when nothing is in flight.
  void abandon();

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] SelectionState& selection() noexcept { return *state_; }
  [[nodiscard]] const SelectionState& selection() const noexcept {
    return *state_;
  }
  [[nodiscard]] std::shared_ptr<SelectionState> selection_ptr() noexcept {
    return state_;
  }
  [[nodiscard]] const Function& current_function() const {
    return fset_->function(state_->current());
  }
  [[nodiscard]] const OpArgs& args() const noexcept { return args_; }
  [[nodiscard]] mpi::Ctx& ctx() noexcept { return ctx_; }

  /// The tuned number of progress calls per iteration, when the
  /// function-set carries a "progress" attribute (see
  /// make_ialltoall_progress_functionset); `fallback` otherwise.  The
  /// application reads this each iteration and drives the progress engine
  /// accordingly — the co-tuning of algorithm and progress frequency the
  /// paper proposes in §III-C.
  [[nodiscard]] int recommended_progress_calls(int fallback) const;

 private:
  friend class Timer;

  const nbc::Schedule& schedule_for(int func);
  void consult_history();

  mpi::Ctx& ctx_;
  std::shared_ptr<const FunctionSet> fset_;
  OpArgs args_;
  TuningOptions opts_;
  std::shared_ptr<SelectionState> state_;
  std::map<int, nbc::Schedule> schedules_;  // lazily built per function
  std::unique_ptr<nbc::Handle> handle_;
  int bound_function_ = -1;
  int tag_;
  bool active_ = false;
  bool timer_driven_ = false;
  double init_time_ = 0.0;
  std::uint64_t progress_calls_ = 0;  // explicit calls this iteration
};

/// Decouples measurement from the operation (paper §III-D, Fig. 1):
/// start()/stop() bracket the tuned code section; the elapsed time is
/// recorded against the implementation(s) executed inside it.  A timer
/// may cover several requests; requests sharing a SelectionState receive
/// one sample per stop (co-tuning).
class Timer {
 public:
  Timer(mpi::Ctx& ctx, std::vector<Request*> requests);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Begin the timed section (ADCL_Timer_start).
  void start();
  /// End the timed section and feed the selection logic (ADCL_Timer_end).
  void stop();

  /// Discard a running measurement without recording it (fail-stop
  /// recovery: the bracketed section was interrupted mid-flight, so its
  /// elapsed time is meaningless).  No-op when not running.
  void abort() noexcept { running_ = false; }

  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  mpi::Ctx& ctx_;
  std::vector<Request*> requests_;
  std::vector<std::shared_ptr<SelectionState>> states_;  // deduplicated
  double t0_ = 0.0;
  bool running_ = false;
};

}  // namespace nbctune::adcl
