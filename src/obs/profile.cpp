#include "obs/profile.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>

#include "trace/trace.hpp"

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

void write_speedscope(std::ostream& os, const analyze::Report& report) {
  // Shared frame table (deduplicated); stacks are
  // [rank frame, op frame, phase frame].
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frame_ix;
  const auto frame = [&](const std::string& name) -> std::size_t {
    auto it = frame_ix.find(name);
    if (it != frame_ix.end()) return it->second;
    const std::size_t ix = frames.size();
    frames.push_back(name);
    frame_ix.emplace(name, ix);
    return ix;
  };

  struct Profile {
    const std::string* name;
    std::vector<std::size_t> stacks[3];  // column-major: rank/op/phase
    std::vector<long long> weights;
    long long total = 0;
  };
  std::vector<Profile> profiles;
  profiles.reserve(report.scenarios.size());
  for (const analyze::ScenarioReport& s : report.scenarios) {
    Profile prof;
    prof.name = &s.label;
    for (const analyze::OpCritical& oc : s.op_criticals) {
      double comp[6];
      components(oc, comp);
      const std::size_t rank_f =
          frame("rank " + std::to_string(oc.critical_rank));
      const std::size_t op_f = frame("op " + std::to_string(oc.corr));
      for (int p = 0; p < 6; ++p) {
        const long long w = ns(comp[p]);
        if (w <= 0) continue;
        prof.stacks[0].push_back(rank_f);
        prof.stacks[1].push_back(op_f);
        prof.stacks[2].push_back(frame(kPhases[p]));
        prof.weights.push_back(w);
        prof.total += w;
      }
    }
    profiles.push_back(std::move(prof));
  }

  os << "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\"";
  os << ",\"shared\":{\"frames\":[";
  for (std::size_t f = 0; f < frames.size(); ++f) {
    os << (f == 0 ? "" : ",") << "{\"name\":\""
       << trace::json_escaped(frames[f]) << "\"}";
  }
  os << "]},\"profiles\":[";
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const Profile& prof = profiles[p];
    os << (p == 0 ? "" : ",") << "\n{\"type\":\"sampled\",\"name\":\""
       << trace::json_escaped(*prof.name)
       << "\",\"unit\":\"nanoseconds\",\"startValue\":0,\"endValue\":"
       << prof.total << ",\"samples\":[";
    for (std::size_t i = 0; i < prof.weights.size(); ++i) {
      os << (i == 0 ? "" : ",") << "[" << prof.stacks[0][i] << ","
         << prof.stacks[1][i] << "," << prof.stacks[2][i] << "]";
    }
    os << "],\"weights\":[";
    for (std::size_t i = 0; i < prof.weights.size(); ++i) {
      os << (i == 0 ? "" : ",") << prof.weights[i];
    }
    os << "]}";
  }
  os << "\n],\"exporter\":\"nbctune-analyze\",\"activeProfileIndex\":0}\n";
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

bool otlp_enabled() noexcept {
#ifdef NBCTUNE_OTLP_ENABLED
  return true;
#else
  return false;
#endif
}

#ifdef NBCTUNE_OTLP_ENABLED

namespace {

/// Deterministic hex id: `v` in `digits` lowercase hex chars (OTLP wants
/// 32-digit trace ids and 16-digit span ids; all-zero is invalid, so
/// callers pass 1-based values).
std::string hex_id(std::uint64_t v, int digits) {
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0 && v != 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xF];
  }
  return out;
}

std::string track_name(std::int32_t track) {
  if (track >= 0) return "rank " + std::to_string(track);
  return "node " + std::to_string(-1 - track) + " wire";
}

}  // namespace

void write_otlp(std::ostream& os,
                const std::vector<analyze::ScenarioTrace>& traces) {
  os << "{\"resourceSpans\":[{\"resource\":{\"attributes\":[{\"key\":"
        "\"service.name\",\"value\":{\"stringValue\":\"nbctune\"}}]}"
     << ",\"scopeSpans\":[";
  std::uint64_t span_id = 0;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const analyze::ScenarioTrace& tr = traces[t];
    const std::string trace_id = hex_id(t + 1, 32);
    os << (t == 0 ? "" : ",") << "\n{\"scope\":{\"name\":\""
       << trace::json_escaped(tr.label) << "\"},\"spans\":[";
    bool first = true;
    for (const analyze::AEvent& e : tr.events) {
      if (!e.is_span()) continue;
      os << (first ? "" : ",") << "\n{\"traceId\":\"" << trace_id
         << "\",\"spanId\":\"" << hex_id(++span_id, 16) << "\",\"name\":\""
         << trace::json_escaped(e.name)
         << "\",\"kind\":1,\"startTimeUnixNano\":\"" << ns(e.ts)
         << "\",\"endTimeUnixNano\":\"" << ns(e.end())
         << "\",\"attributes\":[{\"key\":\"track\",\"value\":{\"stringValue\""
            ":\"" << track_name(e.track)
         << "\"}},{\"key\":\"cat\",\"value\":{\"stringValue\":\""
         << trace::json_escaped(e.cat) << "\"}}";
      if (e.corr != 0) {
        os << ",{\"key\":\"corr\",\"value\":{\"intValue\":\"" << e.corr
           << "\"}}";
      }
      os << "]}";
      first = false;
    }
    os << "\n]}";
  }
  os << "\n]}]}\n";
}

#else  // !NBCTUNE_OTLP_ENABLED

void write_otlp(std::ostream&, const std::vector<analyze::ScenarioTrace>&) {}

#endif

}  // namespace nbctune::obs
