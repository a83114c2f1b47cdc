#pragma once

// Shared pieces of the perfbench driver: options, the in-memory span
// recorder, per-pass results and small statistics helpers.  The driver
// only calls the library's public entry points; every number here is
// host time measured around those calls, or a counter the library's own
// trace session already keeps.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int workers = 0;           ///< 0 = nproc
  bool smoke = false;        ///< tiny sizes for the self-tests
  std::string spans_out;     ///< traced run: span dump path ("" = none)
};

/// Host wall clock in seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

/// One span recorded around a call the benchmark makes into a layer.
struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds (now_s clock)
  double end = 0.0;
  int id = -1;
  int parent = -1;     ///< enclosing span on the same thread, -1 = none
  int run = -1;        ///< simulated-world id, -1 = not inside one run
};

/// Thread-safe in-memory span store; written out once at exit.  A null
/// recorder makes every SpanScope a no-op, which is how untraced runs keep
/// their timings free of the benchmark's own bookkeeping.
class Spans {
 public:
  /// Innermost span open on the calling thread (-1 = none).
  static int current();
  int open(const char* name, int run, int parent);
  void close(int id);
  [[nodiscard]] std::vector<Span> snapshot() const;
  /// Write every span plus per-name self time (duration minus the part
  /// covered by direct children) as JSON lines.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; nests under `parent`, by default the innermost span open on
/// the calling thread (pool tasks pass their batch span explicitly).
class SpanScope {
 public:
  SpanScope(Spans* s, const char* name, int run = -1, int parent = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_ = -1;
  int prev_ = -1;
};

// ---------------------------------------------------------------- results

/// What one pass of a workload produced.  A pass is the whole workload
/// run once on freshly set-up state; a run of the benchmark repeats passes
/// on identical inputs and reports medians.
struct Pass {
  double wall_s = 0.0;    ///< workload start -> last output written
  double setup_s = 0.0;   ///< part of wall_s before the first simulation
  double report_s = 0.0;  ///< last run's end -> last output written
  std::uint64_t attempted = 0;  ///< simulated worlds started
  std::set<std::size_t> bad;    ///< runs (by index) that threw or failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  std::string outcomes;   ///< canonical outcome text (digest input)
  double decision_accuracy = 1.0;  ///< neutral 1 where no tuned run is judged
  double fft_adcl_ratio = 1.0;     ///< neutral 1 where no FFT cell runs
  std::vector<double> run_ms;      ///< host ms per simulated world
  double sweep_s = 0.0;            ///< first run start -> last run end
  int workers = 1;                 ///< pool workers used
  std::uint64_t steals = 0;        ///< pool steals during the pass
  /// Traced pass only: per-layer metrics measured from the outside.
  std::map<std::string, double> layer;

  /// Record a failed check of run `run` (a world counts once however
  /// many of its checks fail).
  void fail(const std::string& what, std::size_t run);
};

/// Per-scenario counters summed over every trace the session adopted
/// (the traced pass drains them after the sweep).
struct CounterTotals {
  std::uint64_t ctr[static_cast<std::size_t>(nbctune::trace::Ctr::kCount)] = {};
  std::uint64_t wire_transfers = 0;  ///< WireBytes histogram sample count
  std::uint64_t events = 0;          ///< events kept in the buffers
  void add(const nbctune::trace::FinishedTrace& t);
  [[nodiscard]] std::uint64_t operator[](nbctune::trace::Ctr c) const {
    return ctr[static_cast<std::size_t>(c)];
  }
};

/// Fill the counter-derived per-layer metrics of `p` from `c`.
void layer_from_counters(const CounterTotals& c, Pass& p);

// ------------------------------------------------------------- workloads

Pass run_tune_sweep(const Options& o, Spans* spans);
Pass run_fft_app(const Options& o, Spans* spans);
Pass run_faults_report(const Options& o, Spans* spans);
Pass run_scale_boot(const Options& o, Spans* spans);

/// Probes: one public call of a layer in a tight loop on a fixed small
/// input; unit costs in the names' units (ns or us per call).
std::map<std::string, double> run_probes();

/// Real-math 3-D FFT through the simulated world against a serial
/// reference; returns the max abs error (checked by the caller).
double fft_real_math_error();

// ------------------------------------------------------------------ stats

double median(std::vector<double> v);
/// Value at percentile `pct` (nearest rank on the sorted sample).
double percentile(std::vector<double> v, double pct);
/// Highest of {50, 90, 95, 99, 99.9} with at least ten samples beyond it
/// (0 when fewer than ten samples exist); the chosen percentile is
/// returned through `pct`.
double tail(const std::vector<double>& v, double& pct);

/// Deterministic 64-bit FNV-1a digest as 16 hex digits.
std::string digest(const std::string& text);

/// splitmix64: the seed-derivation step every workload draws from.
std::uint64_t mix(std::uint64_t& state);

/// Full-precision number formatting for outcome texts.
std::string num(double v);

}  // namespace perfbench
