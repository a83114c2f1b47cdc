#pragma once

// nbctune-top's model/view: TopState consumes nbctune-live-v1 JSONL
// lines (see live.hpp) and renders a one-screen dashboard.  Parsing and
// rendering live here — not in the tool binary — so tests can drive the
// state machine line by line without a terminal.
//
// The stream may be interleaved with non-JSON text (a driver writing
// `--live-jsonl=-` shares stdout with its result tables); feed_line
// silently skips anything that does not parse as a live record.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace nbctune::obs {

class TopState {
 public:
  /// Consume one line of input.  Returns true when the line was a live
  /// record (any type), false for blank/foreign lines and for records
  /// carrying a number outside long long's range (skipped, state
  /// untouched).
  bool feed_line(const std::string& line);

  /// Render the dashboard.  With `ansi`, guideline tiles and the
  /// progress bar use color; the caller owns screen clearing.
  void render(std::ostream& os, bool ansi) const;

  // ------------------------------------------------ inspectable model
  struct OpAgg {
    std::uint64_t scenarios = 0;
    std::uint64_t ops = 0;
    long long median_sum_ns = 0;  ///< sum of per-scenario medians
    long long blame_bp_sum[6] = {0, 0, 0, 0, 0, 0};  ///< summed shares
  };

  struct Gauges {
    std::uint64_t pool_submitted = 0;
    std::uint64_t pool_completed = 0;
    std::uint64_t pool_steals = 0;
    std::uint64_t pool_queued = 0;
    std::uint64_t pool_inflight = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t trace_dropped = 0;
    std::uint64_t fibers = 0;
    std::uint64_t peak_arena_bytes = 0;
    std::uint64_t rss_bytes = 0;
    bool seen = false;
  };

  /// Fail-stop recovery aggregates summed over finished scenarios that
  /// carried a "recovery" block (kill-plan sweeps).
  struct Recovery {
    std::uint64_t scenarios = 0;  ///< scenarios that saw >= 1 death
    std::uint64_t deaths = 0;
    std::uint64_t epochs = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t aborted_ops = 0;
    long long detection_sum_ns = 0;  ///< sum of per-scenario means
    long long ttr_sum_ns = 0;        ///< sum of time_to_recover means
  };

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t finished() const noexcept { return finished_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] const Recovery& recovery() const noexcept { return recovery_; }
  [[nodiscard]] bool done() const noexcept { return !status_.empty(); }
  [[nodiscard]] const std::string& status() const noexcept { return status_; }
  [[nodiscard]] long long last_t_ms() const noexcept { return last_t_ms_; }
  /// Wall-clock estimate of time to completion in ms (-1 = unknown).
  [[nodiscard]] long long eta_ms() const noexcept;
  [[nodiscard]] const std::map<std::string, OpAgg>& ops() const noexcept {
    return ops_;
  }
  /// Guideline id -> merged status ("pass"/"FAIL"/"n/a"); FAIL is sticky.
  [[nodiscard]] const std::map<std::string, std::string>& guidelines()
      const noexcept {
    return guidelines_;
  }
  [[nodiscard]] const Gauges& gauges() const noexcept { return gauges_; }
  [[nodiscard]] std::uint64_t seq_errors() const noexcept {
    return seq_errors_;
  }

 private:
  std::string bench_;
  int threads_ = 0;
  std::string status_;  ///< "" while running; "ok"/"aborted" after summary
  std::uint64_t submitted_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::uint64_t failed_ = 0;            ///< scenario bodies that threw
  std::vector<std::string> failures_;   ///< "task N: error" (first few)
  Recovery recovery_;
  long long last_t_ms_ = 0;
  long long last_seq_ = -1;
  std::uint64_t seq_errors_ = 0;  ///< non-monotonic seq fields seen
  std::uint64_t dropped_events_ = 0;
  std::map<std::string, OpAgg> ops_;
  std::map<std::string, std::string> guidelines_;
  std::vector<std::string> recent_;  ///< last few finished labels
  Gauges gauges_;
};

}  // namespace nbctune::obs
