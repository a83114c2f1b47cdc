#pragma once

// Live sweep telemetry (`nbctune::obs`): a streaming JSONL sink that a
// bench driver attaches to the trace session and the scenario pool.
//
// Motivation: a paper-scale sweep (hundreds of scenarios, minutes of
// wall clock) was previously a black box until the terminal report.  The
// LiveSink emits one JSON object per line as each scenario starts and
// finishes — in *completion* order, from whatever worker thread ran it —
// so `nbctune-top` (or plain `tail -f | jq`) can watch progress, per-op
// medians, blame shares and guideline verdicts while the sweep runs.
//
// Determinism contract: the live records are intentionally outside the
// byte-determinism envelope (they carry wall-clock timestamps and
// completion order).  The *terminal summary record* is not: it embeds
// the exact `analyze::write_json` bytes — the same bytes `--report=json`
// prints — as an escaped JSON string, so
// `nbctune-analyze --extract-report live.jsonl` round-trips a stream
// produced at any `--threads` back to the byte-identical report.
//
// Stream schema (nbctune-live-v1), one object per line, `seq` strictly
// monotonic over the whole stream:
//
//   {"type":"hello","seq":0,"schema":"nbctune-live-v1",...}
//   {"type":"batch","seq":n,"t_ms":..,"tasks":..,"total_submitted":..}
//   {"type":"scenario","phase":"started","seq":n,"t_ms":..,"label":".."}
//   {"type":"scenario","phase":"finished","seq":n,"label":..,["op":..,]
//    ...per-op stats...}  ("op" only for keyed scenarios)
//   {"type":"scenario","phase":"failed","seq":n,"index":..,"error":".."}
//   {"type":"sample","seq":n,...pool/trace/exec/rss gauges...}
//   {"type":"summary","seq":n,"status":"ok"|"aborted",...}
//
// Abort path: LiveSink::abort_from_signal is async-signal-safe (atomics,
// a stack buffer and one ::write) so a SIGINT handler can finalize the
// stream with an `aborted` summary record before the process dies.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "harness/scenario_pool.hpp"
#include "trace/trace.hpp"

namespace nbctune::analyze {
struct Report;
}

namespace nbctune::obs {

class LiveSink final : public trace::Session::Listener,
                       public harness::PoolObserver {
 public:
  /// Open the stream: `path` is a file (created/truncated) or "-" for
  /// stdout.  Writes the hello record on success; check ok() after.
  LiveSink(const std::string& path, std::string bench, int threads);
  ~LiveSink() override;

  LiveSink(const LiveSink&) = delete;
  LiveSink& operator=(const LiveSink&) = delete;

  /// False when the output file could not be opened (nothing will be
  /// written; all callbacks become no-ops).
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  // trace::Session::Listener — completion-order scenario lifecycle.
  // on_scope_finish analyzes the scenario and attaches the report to
  // the trace (analyze::attach_report), so the terminal report reuses
  // this worker's analysis instead of repeating it.
  void on_scope_start(const std::string& label) override;
  void on_scope_finish(const trace::FinishedTrace& t) override;

  // harness::PoolObserver — batch submissions (progress denominators).
  void on_batch_begin(std::size_t tasks) override;

  // harness::PoolObserver — a scenario body threw (crash containment):
  // the sweep keeps draining, and the stream records which task failed
  // and why so a watcher sees the crash before the driver's exit code.
  void on_task_failed(std::size_t index, const char* what) override;

  /// Emit a periodic gauge record (called by obs::Sampler): pool
  /// activity, cumulative trace/exec totals observed by this sink, and
  /// the process RSS.
  void sample(const harness::PoolStats& pool);

  /// Emit the terminal summary record (status "ok"): scenario count plus
  /// the full report JSON — byte-identical to --report=json output —
  /// embedded as an escaped string.  Finalizes the stream; later
  /// callbacks are dropped.
  void write_summary(const analyze::Report& report,
                     const std::string& report_json);

  /// Cumulative totals accumulated from finished scopes (tests assert
  /// the gauge arithmetic against these).
  struct Totals {
    std::uint64_t started = 0;
    std::uint64_t finished = 0;
    std::uint64_t failed = 0;      ///< scenario bodies that threw
    std::uint64_t submitted = 0;   ///< sum of batch sizes observed
    std::uint64_t events = 0;      ///< trace events across finished scopes
    std::uint64_t fibers = 0;      ///< sim.fibers_created summed
    std::uint64_t dropped = 0;     ///< trace.dropped_events summed
    std::uint64_t peak_arena = 0;  ///< max world.peak_arena_bytes
  };
  [[nodiscard]] Totals totals() const;

  /// Resident set size of this process in bytes (0 where unsupported).
  [[nodiscard]] static std::uint64_t rss_bytes() noexcept;

  /// Register `s` (or nullptr) as the target of abort_from_signal.
  static void install_signal_target(LiveSink* s) noexcept;

  /// Async-signal-safe: write a minimal `aborted` summary record to the
  /// registered sink and finalize it.  Safe to call with no target.
  static void abort_from_signal() noexcept;

 private:
  /// Append '\n' and write the line with a single ::write under the
  /// stream mutex (assigns the record's seq at write time, so seq order
  /// equals byte order in the file).
  void write_line(std::string body);
  [[nodiscard]] long long now_ms() const;

  int fd_ = -1;
  bool owns_fd_ = false;
  std::string bench_;
  std::mutex mu_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<bool> finalized_{false};
  std::chrono::steady_clock::time_point t0_;
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> finished_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> fibers_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> peak_arena_{0};
};

}  // namespace nbctune::obs
