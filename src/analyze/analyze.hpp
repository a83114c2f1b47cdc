#pragma once

// Post-hoc trace analysis (the "why was it slow" layer).  Consumes
// finished per-scenario traces — trace::FinishedTrace objects, from the
// live session or read back from an exported Chrome trace-event JSON —
// and derives:
//
//   * critical-path extraction per collective operation: the chain of
//     "rank finished last <- message it waited for <- sender posted it"
//     hops through the send/recv/progress dependency graph, plus an
//     exact blame partition of the critical rank's op window into
//     compute / progress / wire / late-sender / missing-progress / other
//     (the six components sum to the op's elapsed time by construction);
//   * overlap and slack accounting per rank and per NBC handle: achieved
//     communication/computation overlap ratio against the LogGP ideal
//     (perfect overlap hides min(compute, wire) entirely, so the ideal
//     ratio is 1 whenever both are non-zero) and the slack the operation
//     left on the table;
//   * an ADCL decision audit: every agreed batch score, the winner, the
//     margin over the runner-up and the decision iteration, replayed
//     from adcl.score / adcl.decision events;
//   * performance-guideline checks over the whole scenario set (G1-G7
//     below), the trace-level analogue of the self-consistent-performance
//     rules the paper's tuning results are expected to satisfy; G2-G7
//     compare scenarios whose trace::ScenarioKey agrees on everything
//     but the member, the message size or the process count;
//   * repetition-aware statistics per scenario: median and nonparametric
//     confidence intervals over the op-instance samples, with a
//     minimum-repetition flag ("MPI Benchmarking Revisited" discipline).
//
// All analysis is pure: no simulator state is touched, so the same
// report can be produced live by a bench driver (--report) or offline by
// tools/nbctune-analyze from an exported trace file.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace nbctune::analyze {

// ---------------------------------------------------------------- input

// The analyzer reads trace::FinishedTrace directly: the live session's
// traces as they are, and read_chrome's reconstruction of an export.

/// perfbench's name for the analyzer input; an alias of the one trace
/// type.
using ScenarioTrace = trace::FinishedTrace;

/// An identity copy, kept for perfbench, which copies each drained
/// trace through it before analysis.
[[nodiscard]] inline ScenarioTrace from_finished(
    const trace::FinishedTrace& t) {
  return t;
}

// -------------------------------------------------------------- results

/// Exact partition of a critical rank's op window.  Components are
/// disjoint by construction (priority compute > progress > wire >
/// late-sender > missing-progress > other), so they sum to the elapsed
/// time up to floating-point rounding.
struct Blame {
  double compute = 0.0;   ///< application compute on the critical rank
  double progress = 0.0;  ///< progress-engine work (posting, matching)
  double wire = 0.0;      ///< inbound payload serialized on the wire
  double late_sender = 0.0;       ///< waiting before the sender even posted
  double missing_progress = 0.0;  ///< data arrived, nobody advanced the op
  double other = 0.0;             ///< unattributed remainder
  [[nodiscard]] double total() const noexcept {
    return compute + progress + wire + late_sender + missing_progress + other;
  }
};

/// One backwards hop of the critical path: `rank` was blocked until the
/// message `corr` (posted by `from_rank` at `post_ts`) arrived at
/// `arrival_ts`.
struct CriticalHop {
  int rank = -1;
  int from_rank = -1;
  std::uint64_t corr = 0;
  double post_ts = 0.0;
  double arrival_ts = 0.0;
};

/// Critical-path analysis of one collective operation instance (all
/// nbc.op spans sharing one correlation id across ranks).
struct OpCritical {
  std::uint64_t corr = 0;
  int critical_rank = -1;  ///< rank whose nbc.op span finished last
  double start = 0.0;      ///< critical rank's op start
  double elapsed = 0.0;    ///< critical rank's op duration
  Blame blame;
  std::vector<CriticalHop> hops;  ///< newest hop first
};

/// Per-rank overlap/slack accounting aggregated over the rank's NBC
/// handles (= nbc.op spans).
struct RankOverlap {
  int rank = -1;
  std::uint64_t ops = 0;
  double op_time = 0.0;       ///< sum of op elapsed
  double compute_in_op = 0.0; ///< compute overlapped with op windows
  double wire_in_op = 0.0;    ///< correlated wire time within op windows
  /// Mean achieved overlap ratio: (C + W - E) / min(C, W), clamped to
  /// [0, 1]; the LogGP ideal is 1 (communication fully hidden).
  double overlap_ratio = 0.0;
  double slack = 0.0;  ///< sum of E - max(C, W): time neither side used
};

/// One agreed ADCL batch score replayed from the trace.
struct AdclScore {
  int func = -1;
  double score = 0.0;  ///< seconds (decoded from score_ns)
  int iteration = 0;
};

/// One attribute-heuristic pruning step replayed from adcl.eliminate /
/// adcl.eliminate.func events: the sweep over `attr` closed, fixing it at
/// `value` (function `kept` was best), and `pruned` left the candidates.
struct AdclElimination {
  int attr = -1;
  int value = 0;
  int kept = -1;
  int iteration = 0;
  std::vector<int> pruned;
};

/// One guideline-pruning conviction replayed from an adcl.prune event:
/// function `func` was removed because it violated a mock-up bound of
/// `bound` seconds (0 = convicted by name before tuning started).
struct AdclPrune {
  int func = -1;
  double bound = 0.0;
  int iteration = 0;
};

/// Decision audit of one tuned scenario.
struct AdclAudit {
  bool present = false;  ///< scenario recorded adcl events
  int winner = -1;
  int decision_iteration = -1;
  double decision_ts = 0.0;
  double winner_score = 0.0;
  double runner_up_score = 0.0;  ///< best non-winner score (0 if none)
  /// Relative margin (runner_up - winner) / winner; 0 with < 2 scores.
  double margin = 0.0;
  std::uint64_t samples_seen = 0;      ///< from per-scenario counters
  std::uint64_t samples_filtered = 0;  ///< (0 when unavailable)
  std::vector<AdclScore> scores;       ///< chronological
  /// Times drift detection re-opened tuning (adcl.retune events).
  int retunes = 0;
  /// Attribute-heuristic pruning audit, chronological (empty for
  /// non-eliminating policies).
  std::vector<AdclElimination> eliminations;
  /// Guideline-pruning audit (adcl.prune events), chronological.
  std::vector<AdclPrune> prunes;
};

/// Fault/resilience activity replayed from trace events; all zero (and
/// omitted from reports) for fault-free runs.
struct FaultSummary {
  std::uint64_t drops = 0;           ///< fault.drop (injected message loss)
  std::uint64_t dups = 0;            ///< fault.dup (injected duplicates)
  std::uint64_t dup_deliveries = 0;  ///< msg.dup_drop (dedup discarded)
  std::uint64_t retransmits = 0;     ///< msg.retransmit
  std::uint64_t send_failures = 0;   ///< msg.send_failure (budget spent)
  std::uint64_t fallbacks = 0;       ///< nbc.fallback (per-rank restarts)
  std::uint64_t stragglers = 0;      ///< fault.straggler (dilated compute)
  [[nodiscard]] bool any() const noexcept {
    return (drops | dups | dup_deliveries | retransmits | send_failures |
            fallbacks | stragglers) != 0;
  }
};

/// Fail-stop recovery audit replayed from mpi.rank_death / mpi.ft.detect /
/// mpi.ft.agree / nbc.rebuild / nbc.abort trace events; all zero (and
/// omitted from reports) for kill-free runs.  Latencies are means over
/// their populations: detection over deaths, the others over shrink
/// epochs (agreement rounds that removed ranks).  A death after sweep
/// completion yields an epoch with no rebuild phase; such epochs are
/// excluded from the rebuild / time-to-recover means.
struct RecoverySummary {
  std::uint64_t deaths = 0;       ///< mpi.rank_death (fail-stop kills)
  std::uint64_t epochs = 0;       ///< shrink epochs (membership changed)
  std::uint64_t rebuilds = 0;     ///< nbc.rebuild (per-rank handle rebinds)
  std::uint64_t aborted_ops = 0;  ///< nbc.abort (executions abandoned)
  double detection = 0.0;       ///< mean death -> detectable, seconds
  double agreement = 0.0;       ///< mean first detect -> agreement, seconds
  double rebuild = 0.0;         ///< mean agreement -> last rebuild, seconds
  double time_to_recover = 0.0; ///< mean first death -> last rebuild, seconds
  [[nodiscard]] bool any() const noexcept { return deaths != 0; }
};

/// Order statistics of one sample set ("MPI Benchmarking Revisited":
/// report the median with a nonparametric confidence interval, never a
/// bare mean).  The ~95% CI on the median comes from binomial
/// order-statistic ranks (normal approximation, z = 1.96); the rank
/// arithmetic is integer-exact, so the bounds are byte-deterministic
/// across compilers.  With n < 2 the CI degenerates to the sample.
struct SampleStats {
  std::uint64_t n = 0;
  double median = 0.0;
  double lo = 0.0;  ///< lower CI bound (an order statistic of the sample)
  double hi = 0.0;  ///< upper CI bound
};

/// Compute order statistics of `samples` (consumed; sorted in place).
[[nodiscard]] SampleStats order_stats(std::vector<double> samples);

/// Per-blame-category statistics over a scenario's op instances.
struct BlameStats {
  SampleStats compute;
  SampleStats progress;
  SampleStats wire;
  SampleStats late_sender;
  SampleStats missing_progress;
  SampleStats other;
};

/// Everything derived from one scenario trace.
struct ScenarioReport {
  std::string label;
  std::optional<trace::ScenarioKey> key;  ///< from FinishedTrace::key
  std::uint64_t ops_started = 0;
  std::uint64_t ops_completed = 0;
  /// Executions abandoned by fail-stop recovery (nbc.abort events); the
  /// conservation guideline G1 checks started == completed + aborted.
  std::uint64_t ops_aborted = 0;
  double mean_op_elapsed = 0.0;  ///< mean nbc.op duration, seconds
  /// Mean op elapsed over ops starting after the ADCL decision (equals
  /// mean_op_elapsed when there is no decision event).
  double post_decision_op_elapsed = 0.0;
  bool zero_compute = true;  ///< no compute spans anywhere in the trace
  Blame blame;               ///< summed over every op instance
  bool has_critical = false;
  OpCritical worst;  ///< the op instance with the largest elapsed
  std::vector<RankOverlap> ranks;
  AdclAudit adcl;
  FaultSummary faults;
  RecoverySummary recovery;
  /// Execution-resource counters from the per-scenario trace (0 when the
  /// trace predates them): fibers constructed and the World's flat
  /// per-rank arena footprint at destruction.
  std::uint64_t fibers_created = 0;
  std::uint64_t peak_arena_bytes = 0;
  /// Repetition-aware statistics over the scenario's op instances (one
  /// sample per collective instance: the critical rank's elapsed time
  /// and its blame partition).  `min_reps_met` flags whether the sample
  /// count reaches Options::min_reps — reports below that threshold are
  /// smoke signals, not measurements (see docs/METHODOLOGY.md).
  SampleStats op_stats;
  BlameStats blame_stats;
  bool min_reps_met = false;
  /// Every op instance's critical-rank analysis, ordered by correlation
  /// id (deterministic).  This is the raw material of the profile
  /// exporter (src/obs: collapsed-stack frames are rank;op;phase
  /// weighted by these blame partitions); not serialized into the JSON
  /// report.
  std::vector<OpCritical> op_criticals;
  /// Events discarded by the trace buffer cap (NBCTUNE_TRACE_MAX_EVENTS);
  /// non-zero means every number above is computed from a truncated
  /// event stream and should be read as a lower bound.
  std::uint64_t dropped_events = 0;
  [[nodiscard]] bool truncated() const noexcept { return dropped_events > 0; }
};

/// Outcome of one performance-guideline check.
struct GuidelineResult {
  std::string id;           ///< "G1".."G7"
  std::string description;
  int checked = 0;  ///< comparisons evaluated
  int passed = 0;
  std::vector<std::string> violations;  ///< human-readable, deterministic
  [[nodiscard]] const char* status() const noexcept {
    if (checked == 0) return "n/a";
    return passed == checked ? "pass" : "FAIL";
  }
};

struct Report {
  std::vector<ScenarioReport> scenarios;
  std::vector<GuidelineResult> guidelines;
  /// Session-wide counter totals (filled by the CLI from the flat
  /// counter dump; empty on the in-process path, where counters live
  /// per-scenario in FinishedTrace::counts instead).
  std::map<std::string, std::uint64_t> session_counters;
};

// ------------------------------------------------------------- analysis

struct Options {
  /// Tolerance for guideline comparisons (G2/G3): candidate may exceed
  /// the reference by this relative fraction before it counts as a
  /// violation (tuning measures under noise, so exact dominance is not a
  /// realistic requirement — see paper §IV).
  double epsilon = 0.25;
  /// Allowed relative dip for the message-size monotonicity check (G4)
  /// and the rank-count monotonicity check (G6).
  double monotonicity_tolerance = 0.05;
  /// Hop limit for the backwards critical-path walk.
  int max_hops = 16;
  /// Minimum op-instance samples for a scenario's statistics to count as
  /// a measurement ("MPI Benchmarking Revisited": repetition control);
  /// below this ScenarioReport::min_reps_met is false.
  int min_reps = 5;
};

/// Analyze a batch of scenario traces (one bench run).  Deterministic:
/// output depends only on the trace contents and options.
[[nodiscard]] Report analyze(std::span<const trace::FinishedTrace> traces,
                             const Options& opts = {});

// -------------------------------------------------------------- writers

/// Machine-readable report.  All numeric fields are integers (times in
/// nanoseconds, ratios in basis points), so the bytes are identical
/// across compilers and libcs — CI diffs this against a committed
/// golden.
void write_json(std::ostream& os, const Report& report);

/// Human-readable tables (same content, friendlier units).
void write_table(std::ostream& os, const Report& report);

}  // namespace nbctune::analyze
