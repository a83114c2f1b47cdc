#pragma once

// Fiberless (machine-mode) execution of the micro-benchmark loop.
//
// Fiber mode runs every rank's loop on its own fiber stack and blocks by
// yielding; stack memory and context-switch cost cap worlds at ~1k ranks.
// Machine mode runs the same loop as an explicit per-rank state machine
// advanced in place by sim::Engine events: each blocking point of the fiber
// program (charge, compute sleep, suspend-until-wake) becomes a phase
// transition, and transport wakeups dispatch to on_wake() instead of
// Process::wake().  Per-rank progress state lives in one flat contiguous
// arena, so a pure-collective scenario needs zero fibers and memory scales
// to 100k+ ranks.
//
// The runner replicates the fiber blocking protocol bit for bit — the same
// Ctx/Handle/Request code performs all work, RNG draws, and trace emission,
// so both modes produce identical event streams and timings wherever both
// can run.  Machine mode is restricted to pinned (forced-winner) runs: the
// tuner's undecided-path decision allreduce and timeout/drift recovery are
// blocking control flows that still need fibers.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adcl/request.hpp"
#include "mpi/world.hpp"

namespace nbctune::exec {

/// Result of the loop (mirrors harness::RunOutcome; rank 0's view).
struct Outcome {
  std::string impl;
  double loop_time = 0.0;
  int decision_iteration = -1;
  double decision_time = std::numeric_limits<double>::quiet_NaN();
  double post_decision_time = 0.0;
  int post_decision_iterations = 0;
};

/// What every rank executes (the harness micro-benchmark loop shape).
struct MachineSpec {
  /// Build the rank's persistent request (buffers owned by the runner so
  /// they outlive the iterations); force the winner here for pinned runs.
  std::function<std::unique_ptr<adcl::Request>(
      mpi::Ctx&, std::vector<std::byte>& sbuf, std::vector<std::byte>& rbuf)>
      make_request;
  double compute_per_iter = 0.0;
  int iterations = 1;
  int progress_calls = 0;
};

class MachineRunner final : public mpi::MachineDriver {
 public:
  /// Calls world.launch_machine(*this); the runner must outlive engine.run().
  MachineRunner(mpi::World& world, MachineSpec spec);
  ~MachineRunner() override;

  MachineRunner(const MachineRunner&) = delete;
  MachineRunner& operator=(const MachineRunner&) = delete;

  /// Run every rank's state machine up to its first blocking point, in
  /// rank order (the fiberless analogue of Engine::launch_pending()).
  /// Call engine.run() afterwards, then check_finished().
  void start();

  /// MachineDriver: a transport event wants this rank to make progress.
  void on_wake(int wrank) override;

  /// Throws if any rank's loop did not run to completion (the machine-mode
  /// analogue of the engine's fiber deadlock check).
  void check_finished() const;

  [[nodiscard]] const Outcome& outcome() const noexcept { return outcome_; }

  /// Flat per-rank state-machine arena footprint (diagnostics).
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

 private:
  /// Continuation points of the fiber program.  Every phase entry is a spot
  /// where the fiber version would resume after blocking (or fall through
  /// synchronously when the modeled cost is zero).
  enum class Phase : std::uint8_t {
    Setup,         // build request/timer, stamp loop t0
    IterStart,     // timer.start + init_begin + handle start_begin
    StartCascade,  // after charging round-0 cost
    StartFinish,   // after charging the cascade cost
    AfterInit,     // blocking members enter the wait loop here
    ComputeStep,   // next compute slice (or enter the request wait loop)
    ComputeDone,   // after the compute sleep: emit the span
    ProgressDone,  // after charging an explicit progress call
    WaitPass,      // wait loop: run one progress pass
    WaitCheck,     // after charging the pass: span, predicate, suspend
    IterEnd,       // wait_finish + timer.stop, next iteration
    Finish,        // loop complete: fill the outcome on rank 0
  };

  /// Flat POD progress state, one slot per rank (the per-rank arena).
  struct RankSM {
    Phase phase = Phase::Setup;
    Phase wait_ret = Phase::IterEnd;  // where the wait loop returns to
    // Blocking-protocol state, mirroring sim::Process exactly.
    bool running = false;
    bool suspended = false;
    bool wake_pending = false;
    bool finished = false;
    bool decided_before = false;
    int iter = 0;
    int pc_idx = 0;
    int post_iters = 0;
    double t0 = 0.0;          // loop start (after setup)
    double compute_t0 = 0.0;  // current compute slice start
    double pass_t0 = 0.0;     // current progress pass start
    double pass_cost = 0.0;   // its cost (span emitted only when > 0)
  };

  /// Per-rank objects with identity (heap-owning, parallel to the arena).
  struct Rank {
    std::vector<std::byte> sbuf, rbuf;
    std::unique_ptr<adcl::Request> req;
    std::unique_ptr<adcl::Timer> timer;
    nbc::Handle* handle = nullptr;
  };

  /// Advance rank `w` until it blocks or finishes (Process::run_slice).
  void run(int w);
  /// Execute the current phase; returns false when the rank blocked.
  bool step(int w);

  /// Process::sleep equivalent: false = continue synchronously (dt == 0),
  /// true = resume event scheduled.  The caller has already set the phase
  /// to the continuation point.
  bool block_sleep(int w, double dt);
  /// Ctx::charge equivalent (applies jitter to a positive cost).
  bool block_charge(int w, double cost);

  mpi::World& world_;
  sim::Engine& engine_;
  MachineSpec spec_;
  std::vector<RankSM> sms_;
  std::vector<Rank> ranks_;
  Outcome outcome_;
};

}  // namespace nbctune::exec
