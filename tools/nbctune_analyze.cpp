// nbctune-analyze: offline trace analysis and report regression gating.
//
// Analysis mode (default):
//
//   nbctune-analyze [options] trace.json [trace2.json ...]
//
//   --counters FILE     fold a flat counter dump into the report
//   --report=table      human-readable output (default)
//   --report=json       machine-readable output (integers only; see
//                       docs/ARCHITECTURE.md for the schema)
//   --out FILE          write the report there instead of stdout
//   --epsilon X         guideline tolerance (default 0.25)
//   --min-reps N        repetitions below which a scenario's stats are
//                       flagged as not-a-measurement (default 5)
//   --flame FILE        write collapsed stacks (rank;op;phase weighted
//                       by blame nanoseconds) for flamegraph.pl or
//                       speedscope, which imports them natively
//
// Reads the Chrome trace-event JSON exported by any bench driver's
// --trace flag, reconstructs the per-scenario event streams, and runs
// the full analysis pass: critical paths with blame breakdowns, overlap
// and slack accounting, repetition-aware statistics (median + ~95% CI),
// the ADCL decision audit and the performance guidelines (G1-G6).
// Multiple trace files are concatenated into one scenario list, so a
// combined report over several drivers is a single invocation.
//
// Regression mode:
//
//   nbctune-analyze --regress old.json new.json [options]
//
//   --tolerance KEY=VAL   override one tolerance (repeatable); keys:
//                         blame_share, op_rel, overlap, ci_separation
//   --tolerance-config F  read `key value` lines from F
//   --out FILE            write the diff summary there instead of stdout
//
// Diffs two report JSONs (old golden vs. fresh run) semantically and
// exits 4 when blame shares, overlap, op times (CI-arbitrated), ADCL
// winners or guideline verdicts drift beyond tolerance.  See
// docs/METHODOLOGY.md for how to read a failure.
//
// Extract mode:
//
//   nbctune-analyze --extract-report live.jsonl [--out FILE]
//
// Pulls the embedded report JSON out of a live stream's terminal
// summary record (see src/obs/live.hpp) and prints it verbatim — the
// bytes equal a `--report=json` run of the same sweep, so CI can `cmp`
// a streamed sweep against the golden report.
//
// Exit codes: 0 ok, 1 I/O or parse error, 2 usage, 3 guideline failure
// (analysis mode), 4 regression beyond tolerance (regress mode).

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/chrome_reader.hpp"
#include "analyze/json_min.hpp"
#include "analyze/regress.hpp"
#include "obs/flags.hpp"
#include "obs/profile.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--counters FILE] [--report=json|table] [--out FILE]"
               " [--epsilon X] [--min-reps N] trace.json...\n"
               "       "
            << argv0
            << " --regress old.json new.json [--tolerance KEY=VAL]..."
               " [--tolerance-config FILE] [--out FILE]\n"
               "       "
            << argv0
            << " --extract-report live.jsonl [--out FILE]\n"
               "  profile exporter (analysis mode): [--flame FILE]\n";
  return 2;
}

/// Find the last summary record of a live JSONL stream and print its
/// embedded report JSON verbatim.
int run_extract(const std::vector<std::string>& inputs,
                const std::string& out_path) {
  using namespace nbctune;
  if (inputs.size() != 1) {
    std::cerr << "--extract-report needs exactly one live stream, got "
              << inputs.size() << "\n";
    return 2;
  }
  std::ifstream is(inputs[0]);
  if (!is) {
    std::cerr << "cannot open live stream: " << inputs[0] << "\n";
    return 1;
  }
  std::string report;
  std::string status;
  bool found = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != '{') continue;
    analyze::jsonmin::Value v;
    try {
      v = analyze::jsonmin::parse(line);
    } catch (const std::exception&) {
      continue;  // interleaved non-record line
    }
    const analyze::jsonmin::Value* type = v.get("type");
    if (type == nullptr || type->str != "summary") continue;
    if (const analyze::jsonmin::Value* st = v.get("status")) {
      status = st->str;
    }
    if (const analyze::jsonmin::Value* r = v.get("report")) {
      report = r->str;
      found = true;
    }
  }
  if (!found) {
    std::cerr << inputs[0] << ": no summary record with an embedded report"
              << (status.empty() ? "" : " (status: " + status + ")") << "\n";
    return 1;
  }
  if (out_path.empty()) {
    std::cout << report;
  } else {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write report: " << out_path << "\n";
      return 1;
    }
    os << report;
  }
  return 0;
}

int run_regress(const std::vector<std::string>& inputs,
                const nbctune::analyze::RegressTolerances& tol,
                const std::string& out_path) {
  using namespace nbctune;
  if (inputs.size() != 2) {
    std::cerr << "--regress needs exactly two reports (old new), got "
              << inputs.size() << "\n";
    return 2;
  }
  analyze::ReportDigest digests[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream is(inputs[i]);
    if (!is) {
      std::cerr << "cannot open report: " << inputs[i] << "\n";
      return 1;
    }
    try {
      digests[i] = analyze::read_report_json(is);
    } catch (const std::exception& e) {
      std::cerr << inputs[i] << ": " << e.what() << "\n";
      return 1;
    }
  }
  const analyze::RegressResult res = analyze::regress(digests[0], digests[1], tol);
  std::ostringstream body;
  body << "old: " << inputs[0] << " (" << digests[0].schema << ")\n"
       << "new: " << inputs[1] << " (" << digests[1].schema << ")\n";
  analyze::write_regress(body, res, tol);
  if (out_path.empty()) {
    std::cout << body.str();
  } else {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write regress summary: " << out_path << "\n";
      return 1;
    }
    os << body.str();
    std::cerr << (res.ok() ? "regress: OK -> " : "regress: REGRESSION -> ")
              << out_path << "\n";
  }
  return res.ok() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbctune;
  std::vector<std::string> inputs;
  std::string counters_path;
  std::string out_path;
  std::string flame_path;
  bool json = false;
  bool regress_mode = false;
  bool extract_mode = false;
  analyze::Options opts;
  analyze::RegressTolerances tol;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--counters") == 0 && i + 1 < argc) {
      counters_path = argv[++i];
    } else if (std::strcmp(a, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(a, "--epsilon") == 0 && i + 1 < argc) {
      opts.epsilon = obs::parse_flag("--epsilon", argv[++i], 0.0);
    } else if (std::strcmp(a, "--min-reps") == 0 && i + 1 < argc) {
      opts.min_reps = obs::parse_flag("--min-reps", argv[++i], 0);
    } else if (std::strcmp(a, "--regress") == 0) {
      regress_mode = true;
    } else if (std::strcmp(a, "--extract-report") == 0) {
      extract_mode = true;
    } else if (std::strcmp(a, "--flame") == 0 && i + 1 < argc) {
      flame_path = argv[++i];
    } else if (std::strcmp(a, "--tolerance") == 0 && i + 1 < argc) {
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos ||
          !tol.set(kv.substr(0, eq), kv.substr(eq + 1))) {
        std::cerr << "bad --tolerance setting: " << kv << "\n";
        return usage(argv[0]);
      }
    } else if (std::strcmp(a, "--tolerance-config") == 0 && i + 1 < argc) {
      const char* path = argv[++i];
      std::ifstream is(path);
      if (!is) {
        std::cerr << "cannot open tolerance config: " << path << "\n";
        return 1;
      }
      try {
        analyze::read_tolerances(is, tol);
      } catch (const std::exception& e) {
        std::cerr << path << ": " << e.what() << "\n";
        return 1;
      }
    } else if (std::strcmp(a, "--report=json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--report=table") == 0 ||
               std::strcmp(a, "--report") == 0) {
      json = false;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      return usage(argv[0]);
    } else if (a[0] == '-') {
      std::cerr << "unknown option: " << a << "\n";
      return usage(argv[0]);
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) return usage(argv[0]);
  if (regress_mode) return run_regress(inputs, tol, out_path);
  if (extract_mode) return run_extract(inputs, out_path);

  std::vector<trace::FinishedTrace> traces;
  for (const std::string& path : inputs) {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "cannot open trace file: " << path << "\n";
      return 1;
    }
    try {
      std::vector<trace::FinishedTrace> batch = analyze::read_chrome(is);
      for (auto& t : batch) traces.push_back(std::move(t));
    } catch (const std::exception& e) {
      std::cerr << path << ": " << e.what() << "\n";
      return 1;
    }
  }

  std::map<std::string, std::uint64_t> session_counters;
  if (!counters_path.empty()) {
    std::ifstream is(counters_path);
    if (!is) {
      std::cerr << "cannot open counters file: " << counters_path << "\n";
      return 1;
    }
    try {
      session_counters = analyze::read_counters(is);
    } catch (const std::exception& e) {
      std::cerr << counters_path << ": " << e.what() << "\n";
      return 1;
    }
  }

  analyze::Report report = analyze::analyze(traces, opts);
  report.session_counters = std::move(session_counters);
  if (!flame_path.empty()) {
    std::ofstream os(flame_path);
    if (!os) {
      std::cerr << "cannot write collapsed stacks: " << flame_path << "\n";
      return 1;
    }
    obs::write_collapsed(os, report);
    std::cerr << "flame: " << obs::profile_total_weight_ns(report)
              << " ns of blame -> " << flame_path << "\n";
  }

  std::ostringstream body;
  if (json) {
    analyze::write_json(body, report);
  } else {
    analyze::write_table(body, report);
  }
  if (out_path.empty()) {
    std::cout << body.str();
  } else {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write report: " << out_path << "\n";
      return 1;
    }
    os << body.str();
    std::cerr << "report: " << traces.size() << " scenario(s) -> " << out_path
              << "\n";
  }

  // Exit non-zero when a guideline fails, so CI can gate on it.
  for (const auto& g : report.guidelines) {
    if (g.checked > 0 && g.passed != g.checked) return 3;
  }
  return 0;
}
