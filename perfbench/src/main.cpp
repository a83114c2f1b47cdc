// perfbench: host-time benchmark driver for nbctune.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--workers K] [--smoke] [--spans-out FILE]
//
// Untraced (--trace 0): repeats passes of workload W on the inputs drawn
// from seed N until S seconds are used, then prints the end-to-end
// metrics (medians over passes).  Traced (--trace 1): one pass with the
// library's trace session on and the benchmark's spans recorded, plus the
// layer probes, then prints the per-layer metrics.  Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// the lines before it carry the host/build stamp and the outcome digest.
// Exit status is nonzero when any simulated world failed a check.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

/// Process VmHWM in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
}

bool optimized() {
#ifdef __OPTIMIZE__
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
#else
  return false;
#endif
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.traced = value() != "0";
    else if (a == "--workers") o.workers = std::stoi(value());
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--spans-out") o.spans_out = value();
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

Pass run_pass(const Options& o, Spans* spans) {
  if (o.workload == "tune_sweep") return run_tune_sweep(o, spans);
  if (o.workload == "fft_app") return run_fft_app(o, spans);
  if (o.workload == "faults_report") return run_faults_report(o, spans);
  if (o.workload == "scale_boot") return run_scale_boot(o, spans);
  throw std::invalid_argument("unknown workload " + o.workload);
}

/// Every per-layer metric in print order, with its unit.  Metrics a
/// workload does not exercise print as 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"fail_share", "fraction"},
    {"report_s", "s"},
    {"harness.runs", "count"},
    {"harness.run_p50_ms", "ms"},
    {"harness.run_tail_ms", "ms"},
    {"harness.pool_busy_share", "fraction"},
    {"harness.pool_steals", "count"},
    {"sim.events_fired", "count"},
    {"sim.fiber_switches", "count"},
    {"sim.events_per_msg", "events/msg"},
    {"sim.switches_per_msg", "switches/msg"},
    {"sim.now_fifo_share", "fraction"},
    {"sim.cancelled_share", "fraction"},
    {"sim.fibers_created", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.event_ns", "ns"},
    {"sim.switch_ns", "ns"},
    {"mpi.msgs", "count"},
    {"mpi.bulk_chunks", "count"},
    {"mpi.nic_bulks", "count"},
    {"mpi.progress_passes", "count"},
    {"mpi.world_teardown_ms", "ms"},
    {"mpi.eager_msg_ns", "ns"},
    {"mpi.rndv_msg_ns", "ns"},
    {"mpi.acks", "count"},
    {"mpi.retransmit_share", "fraction"},
    {"mpi.dup_deliveries", "count"},
    {"mpi.send_failures", "count"},
    {"mpi.rank_deaths", "count"},
    {"mpi.shrinks", "count"},
    {"fault.drops", "count"},
    {"fault.degraded_msgs", "count"},
    {"nbc.ops_started", "count"},
    {"nbc.ops_completed", "count"},
    {"nbc.ops_aborted", "count"},
    {"nbc.rounds_per_op", "rounds/op"},
    {"nbc.fallbacks", "count"},
    {"nbc.rebuilds", "count"},
    {"coll.schedules_built", "count"},
    {"nbc.round_ns", "ns"},
    {"coll.build_us", "us"},
    {"adcl.decisions", "count"},
    {"adcl.batches_scored", "count"},
    {"adcl.filtered_share", "fraction"},
    {"adcl.learning_share", "fraction"},
    {"adcl.retunes", "count"},
    {"adcl.step_ns", "ns"},
    {"fft.iterations", "count"},
    {"fft.iteration_host_ms", "ms"},
    {"net.wire_bytes", "bytes"},
    {"net.wire_transfers", "count"},
    {"trace.events", "count"},
    {"trace.dropped_events", "count"},
    {"trace.chrome_ms", "ms"},
    {"trace.chrome_mb", "MiB"},
    {"trace.counters_ms", "ms"},
    {"trace.emit_ns", "ns"},
    {"analyze.convert_ms", "ms"},
    {"analyze.analyze_ms", "ms"},
    {"analyze.json_ms", "ms"},
    {"analyze.ns_per_event", "ns"},
    {"obs.live_finish_ms", "ms"},
    {"obs.live_records", "count"},
    {"obs.summary_ms", "ms"},
};

void put(std::ostringstream& os, bool& first, const std::string& name,
         double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const int cores = nproc();
  if (o.workers <= 0) o.workers = cores;

  // ---- host and build stamp; refuse builds and settings whose timings
  // would mislead.
  std::ostringstream stamp;
  stamp << "{\"nproc\": " << cores << ", \"cpu\": \"" << json_escape(cpu_model())
        << "\", \"compiler\": \""
#if defined(__clang__)
        << "clang "
#elif defined(__GNUC__)
        << "g++ "
#endif
        << __VERSION__ << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"workers\": " << o.workers << "}";
  std::cout << "perfbench stamp " << stamp.str() << "\n";
  if (!optimized()) {
    std::cerr << "perfbench: refusing an unoptimized (Debug) build\n";
    return 3;
  }
  if (sanitized()) {
    std::cerr << "perfbench: refusing a sanitizer build\n";
    return 3;
  }
  if (o.workers > cores) {
    std::cerr << "perfbench: " << o.workers << " workers exceed nproc "
              << cores << "\n";
    return 3;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<Pass> passes;
  std::map<std::string, double> probes;
  double rss_mb = 0.0;  ///< VmHWM after the first pass (a fresh process)
  Spans spans;
  try {
    // Output check outside the timed phase: a small real-math FFT
    // through the simulated world against the serial reference.
    if (o.workload == "fft_app") {
      const double err = fft_real_math_error();
      ++attempted;
      if (!(err < 1e-9)) {
        ++failed;
        failures.push_back("real-math FFT error " + num(err));
      }
    }
    const double start = now_s();
    for (;;) {
      passes.push_back(run_pass(o, o.traced ? &spans : nullptr));
      // Later passes reuse the heap the first one freed, so their
      // high-water mark tracks allocator history, not the workload.
      if (passes.size() == 1) rss_mb = peak_rss_mb();
      const Pass& p = passes.back();
      attempted += p.attempted;
      failed += p.bad.size();
      failures.insert(failures.end(), p.failures.begin(), p.failures.end());
      if (p.outcomes != passes.front().outcomes) {
        ++failed;
        failures.push_back("outcomes differ between passes on one seed");
      }
      if (o.traced) break;
      if (now_s() - start + p.wall_s > o.seconds) break;
    }
    if (o.traced) probes = run_probes();
  } catch (const std::exception& e) {
    ++failed;
    failures.push_back(std::string("workload aborted: ") + e.what());
  }
  if (attempted == 0) attempted = 1;
  for (std::size_t i = 0; i < failures.size() && i < 10; ++i) {
    std::cerr << "perfbench: FAIL " << failures[i] << "\n";
  }

  const std::string dg = passes.empty() ? "none" : digest(passes[0].outcomes);
  std::cout << "perfbench digest " << o.workload << " seed=" << o.seed << " "
            << dg << "\n";
  std::vector<double> wall, setup, acc, ratio;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
    acc.push_back(p.decision_accuracy);
    ratio.push_back(p.fft_adcl_ratio);
  }
  std::cout << "perfbench passes " << passes.size() << " wall_s";
  for (double w : wall) std::cout << " " << num(w);
  std::cout << "\n";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::cout << "perfbench pass " << i << " setup_s " << num(p.setup_s)
              << " sweep_s " << num(p.sweep_s) << " report_s "
              << num(p.report_s) << "\n";
  }

  std::ostringstream m;
  bool first = true;
  if (!o.traced) {
    put(m, first, "wall_s", median(wall), "s");
    put(m, first, "setup_s", median(setup), "s");
    put(m, first, "peak_rss_mb", rss_mb, "MiB");
    put(m, first, "decision_accuracy", median(acc), "fraction");
    put(m, first, "fft_adcl_ratio", median(ratio), "ratio");
  } else {
    std::map<std::string, double> layer =
        passes.empty() ? std::map<std::string, double>{} : passes[0].layer;
    layer.insert(probes.begin(), probes.end());
    layer["fail_share"] = double(failed) / double(attempted);
    if (!passes.empty()) {
      const Pass& p = passes[0];
      double pct = 0, busy = 0;
      for (double r : p.run_ms) busy += r;
      layer["report_s"] = p.report_s;
      layer["harness.runs"] = static_cast<double>(p.run_ms.size());
      layer["harness.run_p50_ms"] = median(p.run_ms);
      layer["harness.run_tail_ms"] = tail(p.run_ms, pct);
      layer["harness.pool_busy_share"] =
          p.sweep_s > 0 ? busy / 1e3 / (p.workers * p.sweep_s) : 0.0;
      layer["harness.pool_steals"] = static_cast<double>(p.steals);
      const double events = layer["sim.events_fired"];
      layer["sim.host_ns_per_event"] = events > 0 ? busy * 1e6 / events : 0.0;
      std::cout << "perfbench traced_wall_s " << num(p.wall_s) << "\n";
      std::cout << "perfbench run_tail p" << pct << " of n="
                << p.run_ms.size() << "\n";
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layer.find(name);
      put(m, first, name, it == layer.end() ? 0.0 : it->second, unit);
    }
    if (!o.spans_out.empty()) spans.write(o.spans_out);
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << m.str() << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
