#include "obs/profile.hpp"

#include <cmath>
#include <ostream>
#include <string>

namespace nbctune::obs {

namespace {

long long ns(double seconds) {
  return static_cast<long long>(std::llround(seconds * 1e9));
}

constexpr const char* kPhases[6] = {"compute",     "progress",
                                    "wire",        "late_sender",
                                    "missing_progress", "other"};

/// The six blame components of `oc` in kPhases order.
void components(const analyze::OpCritical& oc, double out[6]) {
  out[0] = oc.blame.compute;
  out[1] = oc.blame.progress;
  out[2] = oc.blame.wire;
  out[3] = oc.blame.late_sender;
  out[4] = oc.blame.missing_progress;
  out[5] = oc.blame.other;
}

std::string sanitize_frame(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == ' ' || c == ';') c = '_';
  }
  return out;
}

}  // namespace

void write_collapsed(std::ostream& os, const analyze::Report& report) {
  for (const analyze::ScenarioReport& s : report.scenarios) {
    const std::string label = sanitize_frame(s.label);
    for (const analyze::OpCritical& oc : s.op_criticals) {
      double comp[6];
      components(oc, comp);
      for (int p = 0; p < 6; ++p) {
        const long long w = ns(comp[p]);
        if (w <= 0) continue;
        os << label << ";rank:" << oc.critical_rank << ";op:" << oc.corr
           << ";" << kPhases[p] << " " << w << "\n";
      }
    }
  }
}

long long profile_total_weight_ns(const analyze::Report& report) {
  long long total = 0;
  for (const analyze::ScenarioReport& s : report.scenarios) {
    for (const analyze::OpCritical& oc : s.op_criticals) {
      double comp[6];
      components(oc, comp);
      for (int p = 0; p < 6; ++p) {
        const long long w = ns(comp[p]);
        if (w > 0) total += w;
      }
    }
  }
  return total;
}

}  // namespace nbctune::obs
