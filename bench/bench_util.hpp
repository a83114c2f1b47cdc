#pragma once

// Shared helpers for the figure-reproduction benchmark binaries.

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "fault/fault.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "harness/table.hpp"
#include "net/topology.hpp"
#include "obs/flags.hpp"
#include "obs/live.hpp"
#include "obs/sampler.hpp"
#include "trace/trace.hpp"

namespace nbctune::bench {

/// Scale knob: benches default to a reduced iteration/test budget that
/// preserves the paper's shapes; `--full` runs closer to paper scale.
/// `--threads N` (or NBCTUNE_THREADS) shards independent scenarios across
/// a ScenarioPool; results are aggregated in submission order, so stdout
/// is byte-identical at any thread count (timing goes to stderr).
/// `--trace <file>` writes a Chrome trace-event JSON of every simulated
/// scenario (load in ui.perfetto.dev); `--trace-counters <file>` writes
/// the flat counter/histogram dump for CI diffing.  `--report[=json]`
/// runs the post-hoc trace analysis (src/analyze) over every scenario
/// when the run finishes — critical paths, overlap accounting, the ADCL
/// decision audit and the performance guidelines — and prints it to
/// stderr (table) or writes it with `--report-out <file>`.  All exports
/// are byte-deterministic at any thread count and never touch stdout.
/// `--fiber-stack N` sets the per-rank fiber stack in bytes (default
/// 256 KiB or NBCTUNE_FIBER_STACK; raised to a 16 KiB floor, which is
/// enough for pinned collective loops at 100k+ ranks).
/// `--list-platforms` dumps every preset's node/core/NIC counts,
/// per-level link parameters and hierarchy shape
/// (net::describe_platform) to stdout and exits before the sweep.
/// `--list-plans` likewise dumps every canned fault plan — name, a
/// one-line description and the exact spec string a driver's fault
/// option accepts — and exits before the sweep.
/// `--live-jsonl=PATH|-` streams scenario lifecycle records as JSONL
/// while the sweep runs (watch with nbctune-top); the terminal summary
/// record embeds the exact --report=json bytes.  `--live-sample-ms N`
/// sets the gauge sampling period of the live stream (default 100,
/// 0 = off).  Numeric values parse strictly (obs::parse_flag): a
/// malformed one exits with status 2, naming the flag.
struct Scale {
  enum class ReportMode { None, Table, Json };
  bool full = false;
  int threads = 0;  ///< 0 = auto (NBCTUNE_THREADS, then hardware)
  std::size_t fiber_stack = 0;  ///< 0 = sim default
  std::string trace_path;     ///< Chrome trace-event JSON output, if set
  std::string counters_path;  ///< flat counter dump output, if set
  ReportMode report = ReportMode::None;
  std::string report_path;  ///< report output file ("" = stderr)
  bool list_platforms = false;  ///< dump presets and exit (Driver ctor)
  bool list_plans = false;      ///< dump canned fault plans and exit
  std::string live_jsonl;   ///< live JSONL stream path ("-" = stdout)
  int live_sample_ms = 100;  ///< gauge sampling period (0 = no sampler)
  [[nodiscard]] bool tracing() const noexcept {
    return !trace_path.empty() || !counters_path.empty() || reporting() ||
           live();
  }
  [[nodiscard]] bool live() const noexcept { return !live_jsonl.empty(); }
  [[nodiscard]] bool reporting() const noexcept {
    return report != ReportMode::None || !report_path.empty();
  }
  static Scale from_args(int argc, char** argv) {
    Scale s;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) s.full = true;
      if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        s.threads = obs::parse_flag("--threads", argv[++i], 0);
      }
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        s.trace_path = argv[++i];
      }
      if (std::strcmp(argv[i], "--trace-counters") == 0 && i + 1 < argc) {
        s.counters_path = argv[++i];
      }
      if (std::strcmp(argv[i], "--report") == 0 ||
          std::strcmp(argv[i], "--report=table") == 0) {
        s.report = ReportMode::Table;
      }
      if (std::strcmp(argv[i], "--report=json") == 0) {
        s.report = ReportMode::Json;
      }
      if (std::strcmp(argv[i], "--report-out") == 0 && i + 1 < argc) {
        s.report_path = argv[++i];
        if (s.report == ReportMode::None) s.report = ReportMode::Json;
      }
      if (std::strcmp(argv[i], "--fiber-stack") == 0 && i + 1 < argc) {
        // Zero would silently mean the default, so it is malformed too.
        s.fiber_stack =
            obs::parse_flag<std::size_t>("--fiber-stack", argv[++i], 1);
      }
      if (std::strcmp(argv[i], "--list-platforms") == 0) {
        s.list_platforms = true;
      }
      if (std::strcmp(argv[i], "--list-plans") == 0) {
        s.list_plans = true;
      }
      if (std::strncmp(argv[i], "--live-jsonl=", 13) == 0) {
        s.live_jsonl = argv[i] + 13;
      }
      if (std::strcmp(argv[i], "--live-jsonl") == 0 && i + 1 < argc) {
        s.live_jsonl = argv[++i];
      }
      if (std::strcmp(argv[i], "--live-sample-ms") == 0 && i + 1 < argc) {
        s.live_sample_ms = obs::parse_flag("--live-sample-ms", argv[++i], 0);
      }
    }
    return s;
  }
};

/// Wall-clock scope for the parallel sweep phase.  Reports to stderr so
/// the deterministic stdout tables stay byte-identical across thread
/// counts.
class SweepTimer {
 public:
  SweepTimer(std::string label, int threads)
      : label_(std::move(label)),
        threads_(threads),
        t0_(std::chrono::steady_clock::now()) {}
  ~SweepTimer() {
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    std::cerr << "[" << label_ << "] wall-clock " << dt << " s at "
              << threads_ << " thread(s)\n";
  }

 private:
  std::string label_;
  int threads_;
  std::chrono::steady_clock::time_point t0_;
};

/// SIGINT handler installed while a live stream is open: finalize the
/// stream with an `aborted` summary record (async-signal-safe), then
/// die by the default disposition so the exit status stays honest.
extern "C" inline void nbctune_live_sigint(int sig) {
  obs::LiveSink::abort_from_signal();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// The shared spine of every bench driver: parses the common CLI flags,
/// owns the ScenarioPool, enables the trace session when `--trace` /
/// `--trace-counters` is given, and exports the trace files on
/// destruction.  Replaces the Scale/pool/SweepTimer boilerplate that each
/// driver used to carry.  With `--live-jsonl` it also owns the live
/// telemetry sink: scenario lifecycle records stream out during the
/// sweep and the destructor finalizes the stream with a summary record
/// embedding the exact --report=json bytes.
class Driver {
 public:
  Driver(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        scale_(Scale::from_args(argc, argv)),
        pool_(scale_.threads) {
    if (scale_.list_platforms) {
      for (const char* p : {"crill", "whale", "whale-tcp", "bgp", "mega"}) {
        net::describe_platform(std::cout, net::platform_by_name(p));
        std::cout << "\n";
      }
      std::exit(0);
    }
    if (scale_.list_plans) {
      for (const fault::CannedPlan& p : fault::canned_plans()) {
        std::cout << p.name << "\n  " << p.desc << "\n  spec: " << p.spec
                  << "\n\n";
      }
      std::exit(0);
    }
    if (scale_.tracing()) trace::Session::enable();
    if (scale_.live()) {
      sink_ = std::make_unique<obs::LiveSink>(scale_.live_jsonl, name_,
                                              pool_.threads());
      if (!sink_->ok()) {
        std::cerr << "[" << name_ << "] cannot open live stream: "
                  << scale_.live_jsonl << "\n";
        sink_.reset();
      } else {
        trace::Session::set_listener(sink_.get());
        pool_.set_observer(sink_.get());
        obs::LiveSink::install_signal_target(sink_.get());
        std::signal(SIGINT, nbctune_live_sigint);
        if (scale_.live_sample_ms > 0) {
          sampler_ = std::make_unique<obs::Sampler>(
              [this] { sink_->sample(pool_.stats()); },
              scale_.live_sample_ms);
        }
      }
    }
  }

  ~Driver() {
    // Teardown order matters: stop the sampler (one final gauge record),
    // detach the completion-order listener/observer, export the
    // deterministic artifacts, then finalize the live stream with the
    // summary record built from the same analysis as --report.
    if (sampler_) sampler_->stop();
    if (sink_) {
      trace::Session::set_listener(nullptr);
      pool_.set_observer(nullptr);
    }
    if (scale_.tracing()) {
      auto& session = trace::Session::instance();
      if (!scale_.trace_path.empty()) {
        std::ofstream os(scale_.trace_path);
        session.write_chrome(os);
        std::cerr << "[" << name_ << "] trace: " << session.size()
                  << " scenario(s), " << session.total_events()
                  << " event(s) -> " << scale_.trace_path << "\n";
      }
      if (!scale_.counters_path.empty()) {
        std::ofstream os(scale_.counters_path);
        session.write_counters(os);
        std::cerr << "[" << name_ << "] counters -> " << scale_.counters_path
                  << "\n";
      }
      if (scale_.reporting() || sink_ != nullptr) {
        // One analysis pass (submission-order traces, so byte-identical
        // at any thread count) shared by the report and the summary.
        const std::vector<trace::FinishedTrace> traces = session.drain();
        const analyze::Report report = analyze::analyze(traces);
        if (scale_.reporting()) write_report(report, traces.size());
        if (sink_ != nullptr) {
          std::ostringstream json;
          analyze::write_json(json, report);
          sink_->write_summary(report, json.str());
          std::cerr << "[" << name_ << "] live stream -> "
                    << scale_.live_jsonl << "\n";
        }
      }
    }
    if (sink_) obs::LiveSink::install_signal_target(nullptr);
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  [[nodiscard]] const Scale& scale() const noexcept { return scale_; }
  [[nodiscard]] bool full() const noexcept { return scale_.full; }
  [[nodiscard]] harness::ScenarioPool& pool() noexcept { return pool_; }
  [[nodiscard]] int threads() const noexcept { return pool_.threads(); }

  /// Wall-clock scope for the sweep phase (stderr only).
  [[nodiscard]] SweepTimer timer() const {
    return SweepTimer(name_ + " sweep", pool_.threads());
  }

  /// Apply the per-scenario flags to a scenario (--fiber-stack).
  void configure(harness::MicroScenario& s) const noexcept {
    s.fiber_stack_bytes = scale_.fiber_stack;
  }

 private:
  /// Write the post-hoc analysis where --report asked for it.  Traces
  /// are adopted in submission order regardless of the worker count, so
  /// the report bytes are identical at --threads 1 and --threads N.
  void write_report(const analyze::Report& report, std::size_t count) {
    if (!scale_.report_path.empty()) {
      std::ofstream os(scale_.report_path);
      if (scale_.report == Scale::ReportMode::Table) {
        analyze::write_table(os, report);
      } else {
        analyze::write_json(os, report);
      }
      std::cerr << "[" << name_ << "] report: " << count
                << " scenario(s) -> " << scale_.report_path << "\n";
    } else if (scale_.report == Scale::ReportMode::Json) {
      analyze::write_json(std::cerr, report);
    } else {
      analyze::write_table(std::cerr, report);
    }
  }

  std::string name_;
  Scale scale_;
  harness::ScenarioPool pool_;
  std::unique_ptr<obs::LiveSink> sink_;
  std::unique_ptr<obs::Sampler> sampler_;
};

/// Print one verification run as a figure-style table: every fixed
/// implementation plus the two ADCL policies, flagged with the winner.
inline void print_verification(const std::string& title,
                               const harness::MicroScenario& s,
                               const harness::VerificationRun& v) {
  harness::banner(title);
  std::cout << "platform=" << s.platform.name << " nprocs=" << s.nprocs
            << " bytes=" << s.bytes << " compute/iter=" << s.compute_per_iter
            << "s progress_calls=" << s.progress_calls
            << " iterations=" << s.iterations << "\n\n";
  harness::Table t({"implementation", "loop_time[s]", "vs_best", "note"});
  const double best = v.fixed[v.best_fixed].loop_time;
  for (std::size_t f = 0; f < v.fixed.size(); ++f) {
    t.add_row({v.fixed[f].impl, harness::Table::num(v.fixed[f].loop_time),
               harness::Table::num(v.fixed[f].loop_time / best, 2),
               static_cast<int>(f) == v.best_fixed ? "<- best fixed" : ""});
  }
  t.add_row({"ADCL(brute-force)",
             harness::Table::num(v.adcl_bruteforce.loop_time),
             harness::Table::num(v.adcl_bruteforce.loop_time / best, 2),
             "winner=" + v.adcl_bruteforce.impl +
                 (v.bruteforce_correct ? " [correct]" : " [SUBOPTIMAL]")});
  t.add_row({"ADCL(heuristic)",
             harness::Table::num(v.adcl_heuristic.loop_time),
             harness::Table::num(v.adcl_heuristic.loop_time / best, 2),
             "winner=" + v.adcl_heuristic.impl +
                 (v.heuristic_correct ? " [correct]" : " [SUBOPTIMAL]")});
  t.print();
}

/// Compare fixed implementations only (the per-algorithm bars of the
/// influence figures); the per-implementation runs execute on the pool.
/// Returns the winner's name.
inline std::string print_fixed_comparison(const std::string& title,
                                          const harness::MicroScenario& s,
                                          harness::ScenarioPool& pool) {
  harness::banner(title);
  std::cout << "platform=" << s.platform.name << " nprocs=" << s.nprocs
            << " bytes=" << s.bytes << " compute/iter=" << s.compute_per_iter
            << "s progress_calls=" << s.progress_calls
            << " iterations=" << s.iterations << "\n\n";
  auto fset = harness::scenario_functionset(s);
  harness::Table t({"implementation", "loop_time[s]", "vs_best"});
  std::vector<harness::RunOutcome> runs(fset->size());
  pool.run_indexed(fset->size(), [&](std::size_t f) {
    runs[f] = harness::run_fixed(s, static_cast<int>(f));
  });
  double best = 1e300;
  std::string best_name;
  for (const auto& r : runs) {
    if (r.loop_time < best) {
      best = r.loop_time;
      best_name = r.impl;
    }
  }
  for (const auto& r : runs) {
    t.add_row({r.impl, harness::Table::num(r.loop_time),
               harness::Table::num(r.loop_time / best, 2)});
  }
  t.print();
  std::cout << "winner: " << best_name << "\n";
  return best_name;
}

}  // namespace nbctune::bench
