#pragma once

// The micro-benchmark of the paper (§IV-A): a loop that initiates a
// non-blocking collective, computes in chunks with progress calls in
// between, and completes the operation — measuring how well each
// implementation overlaps and which one the tuner selects.
//
//   for it in iterations:
//     request.init()
//     repeat progress_calls times:
//       compute(compute_per_iter / progress_calls)
//       request.progress()
//     request.wait()
//
// run_fixed() pins one implementation (circumventing the selection logic,
// the paper's "verification run" reference data); run_adcl() lets a policy
// choose.  run_verification() combines both and scores the decision.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "adcl/adcl.hpp"
#include "harness/scenario_pool.hpp"
#include "net/platform.hpp"
#include "trace/trace.hpp"

namespace nbctune::harness {

enum class OpKind { Ialltoall, Ibcast, Iallreduce, Iscatter };

[[nodiscard]] const char* op_name(OpKind k) noexcept;

/// One benchmark configuration.
struct MicroScenario {
  net::Platform platform;
  int nprocs = 4;
  OpKind op = OpKind::Ialltoall;
  /// Message size: bytes per process pair (alltoall) / total (bcast).
  std::size_t bytes = 1024;
  /// Compute per iteration (the paper quotes totals like "50 s compute
  /// time" over 1000 iterations, i.e. 50 ms per iteration).
  double compute_per_iter = 50e-3;
  int iterations = 30;
  int progress_calls = 5;
  std::uint64_t seed = 1;
  double noise_scale = 1.0;
  /// Move real payload bytes (off for large-scale runs).
  bool payload = false;
  /// Include blocking implementations in the alltoall set (paper §IV-B).
  bool include_blocking = false;
  /// Include the hierarchy-aware two-level members in the Ibcast /
  /// Iallreduce function-sets (coll/hierarchical.hpp).
  bool include_hierarchical = false;
  /// Short topology tag (ScenarioKey::topo), isolating hierarchy
  /// experiments into their own analyzer groups; empty = untagged.
  std::string topo_tag;
  /// Fault-plan spec (see fault/fault.hpp grammar); empty = fault-free.
  /// The plan's rto/retries/op_timeout knobs arm the resilient transport
  /// and NBC recovery; drift knobs arm ADCL re-tuning.
  std::string fault_plan;
  /// Short plan name (ScenarioKey::plan); defaults to "spec" when a plan
  /// is set without a name.
  std::string fault_plan_name;
  /// Per-rank fiber stack size; 0 = the sim default (256 KiB).  The
  /// 16 KiB floor is enough for a pinned collective loop and is how
  /// bench_scale_sweep reaches 131072 ranks.
  std::size_t fiber_stack_bytes = 0;
};

/// Result of one benchmark execution.
struct RunOutcome {
  std::string impl;       ///< implementation (or winner) name
  double loop_time = 0;   ///< simulated time of the whole loop
  int decision_iteration = -1;
  double decision_time = std::numeric_limits<double>::quiet_NaN();
  /// Time of the iterations after the decision (excludes learning phase);
  /// equals loop_time for fixed runs.
  double post_decision_time = 0;
  int post_decision_iterations = 0;
};

/// The per-operation function-set used by the harness for a scenario.
std::shared_ptr<const adcl::FunctionSet> scenario_functionset(
    const MicroScenario& s);

/// The trace identity of running `s` with member `impl` pinned
/// (tuned = false) or with ADCL under policy `impl` (tuned = true).
trace::ScenarioKey scenario_key(const MicroScenario& s, bool tuned,
                                std::string impl);

/// Run the loop with implementation `func_idx` pinned.
RunOutcome run_fixed(const MicroScenario& s, int func_idx);

/// Run the loop with run-time selection under `opts.policy`.
RunOutcome run_adcl(const MicroScenario& s, adcl::TuningOptions opts);

/// A full verification run: every fixed implementation plus ADCL with the
/// brute-force and attribute-heuristic policies.
struct VerificationRun {
  std::vector<RunOutcome> fixed;  ///< one per function
  RunOutcome adcl_bruteforce;
  RunOutcome adcl_heuristic;
  int best_fixed = -1;            ///< index of the fastest fixed run
  bool bruteforce_correct = false;  ///< winner within tol of the best
  bool heuristic_correct = false;
};

/// Tolerance for "correct decision" (paper: within 5% of the best).
inline constexpr double kCorrectTolerance = 0.05;

/// When a pool is given, the component runs (every fixed implementation
/// plus the two ADCL policies — each with its own Engine) execute as
/// parallel tasks; results are identical to the serial path.
VerificationRun run_verification(const MicroScenario& s,
                                 int tests_per_function = 5,
                                 ScenarioPool* pool = nullptr);

}  // namespace nbctune::harness
