#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "analyze/analyze.hpp"
#include "trace/trace.hpp"

// Report writers.  The JSON writer emits integers only (times in
// nanoseconds, ratios in basis points) so the bytes are identical across
// compilers, libcs and thread counts; CI diffs the output against a
// committed golden.

namespace nbctune::analyze {

namespace {

long long ns(double seconds) {
  return static_cast<long long>(std::llround(seconds * 1e9));
}

long long bp(double ratio) {
  return static_cast<long long>(std::llround(ratio * 1e4));
}

void put_str(std::ostream& os, const char* key, std::string_view v,
             bool comma = true) {
  os << "\"" << key << "\":\"" << trace::json_escaped(v) << "\"";
  if (comma) os << ",";
}

void put_blame(std::ostream& os, const char* key, const Blame& b) {
  os << "\"" << key << "\":{\"compute\":" << ns(b.compute)
     << ",\"progress\":" << ns(b.progress) << ",\"wire\":" << ns(b.wire)
     << ",\"late_sender\":" << ns(b.late_sender)
     << ",\"missing_progress\":" << ns(b.missing_progress)
     << ",\"other\":" << ns(b.other) << ",\"total\":" << ns(b.total()) << "}";
}

void put_stats(std::ostream& os, const char* key, const SampleStats& st) {
  os << "\"" << key << "\":{\"n\":" << st.n << ",\"median_ns\":"
     << ns(st.median) << ",\"lo_ns\":" << ns(st.lo)
     << ",\"hi_ns\":" << ns(st.hi) << "}";
}

}  // namespace

void write_json(std::ostream& os, const Report& report) {
  os << "{\"schema\":\"nbctune-report-v2\"";
  os << ",\"scenario_count\":" << report.scenarios.size();
  os << ",\"scenarios\":[";
  for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
    const ScenarioReport& s = report.scenarios[i];
    os << (i == 0 ? "" : ",") << "\n{";
    put_str(os, "label", s.label);
    os << "\"ops_started\":" << s.ops_started
       << ",\"ops_completed\":" << s.ops_completed;
    // Conditional: only fail-stop runs abort executions, so kill-free
    // golden reports stay byte-identical.
    if (s.ops_aborted > 0) os << ",\"ops_aborted\":" << s.ops_aborted;
    os << ",\"mean_op_ns\":" << ns(s.mean_op_elapsed)
       << ",\"post_decision_op_ns\":" << ns(s.post_decision_op_elapsed)
       << ",\"zero_compute\":" << (s.zero_compute ? "true" : "false") << ",";
    put_blame(os, "blame_ns", s.blame);
    os << ",\"stats\":{\"min_reps_met\":"
       << (s.min_reps_met ? "true" : "false") << ",";
    put_stats(os, "op", s.op_stats);
    os << ",\"blame\":{";
    put_stats(os, "compute", s.blame_stats.compute);
    os << ",";
    put_stats(os, "progress", s.blame_stats.progress);
    os << ",";
    put_stats(os, "wire", s.blame_stats.wire);
    os << ",";
    put_stats(os, "late_sender", s.blame_stats.late_sender);
    os << ",";
    put_stats(os, "missing_progress", s.blame_stats.missing_progress);
    os << ",";
    put_stats(os, "other", s.blame_stats.other);
    os << "}}";
    if (s.has_critical) {
      const OpCritical& c = s.worst;
      os << ",\"critical\":{\"corr\":" << c.corr
         << ",\"rank\":" << c.critical_rank << ",\"start_ns\":" << ns(c.start)
         << ",\"elapsed_ns\":" << ns(c.elapsed) << ",";
      put_blame(os, "blame_ns", c.blame);
      os << ",\"hops\":[";
      for (std::size_t h = 0; h < c.hops.size(); ++h) {
        const CriticalHop& hop = c.hops[h];
        os << (h == 0 ? "" : ",") << "{\"rank\":" << hop.rank
           << ",\"from\":" << hop.from_rank << ",\"corr\":" << hop.corr
           << ",\"post_ns\":" << ns(hop.post_ts)
           << ",\"arrival_ns\":" << ns(hop.arrival_ts) << "}";
      }
      os << "]}";
    }
    os << ",\"ranks\":[";
    for (std::size_t r = 0; r < s.ranks.size(); ++r) {
      const RankOverlap& ro = s.ranks[r];
      os << (r == 0 ? "" : ",") << "{\"rank\":" << ro.rank
         << ",\"ops\":" << ro.ops << ",\"op_ns\":" << ns(ro.op_time)
         << ",\"compute_ns\":" << ns(ro.compute_in_op)
         << ",\"wire_ns\":" << ns(ro.wire_in_op)
         << ",\"overlap_bp\":" << bp(ro.overlap_ratio)
         << ",\"slack_ns\":" << ns(ro.slack) << "}";
    }
    os << "]";
    if (s.adcl.present) {
      const AdclAudit& a = s.adcl;
      os << ",\"adcl\":{\"winner\":" << a.winner
         << ",\"decision_iteration\":" << a.decision_iteration
         << ",\"decision_ns\":" << ns(a.decision_ts)
         << ",\"winner_score_ns\":" << ns(a.winner_score)
         << ",\"runner_up_score_ns\":" << ns(a.runner_up_score)
         << ",\"margin_bp\":" << bp(a.margin)
         << ",\"samples_seen\":" << a.samples_seen
         << ",\"samples_filtered\":" << a.samples_filtered << ",\"scores\":[";
      for (std::size_t k = 0; k < a.scores.size(); ++k) {
        const AdclScore& sc = a.scores[k];
        os << (k == 0 ? "" : ",") << "{\"func\":" << sc.func
           << ",\"score_ns\":" << ns(sc.score) << ",\"iter\":" << sc.iteration
           << "}";
      }
      os << "]";
      // Conditional keys: absent for fault-free, non-eliminating runs so
      // pre-existing golden reports stay byte-identical.
      if (a.retunes > 0) os << ",\"retunes\":" << a.retunes;
      if (!a.eliminations.empty()) {
        os << ",\"eliminations\":[";
        for (std::size_t k = 0; k < a.eliminations.size(); ++k) {
          const AdclElimination& el = a.eliminations[k];
          os << (k == 0 ? "" : ",") << "{\"attr\":" << el.attr
             << ",\"value\":" << el.value << ",\"kept\":" << el.kept
             << ",\"iter\":" << el.iteration << ",\"pruned\":[";
          for (std::size_t p = 0; p < el.pruned.size(); ++p) {
            os << (p == 0 ? "" : ",") << el.pruned[p];
          }
          os << "]}";
        }
        os << "]";
      }
      if (!a.prunes.empty()) {
        os << ",\"prunes\":[";
        for (std::size_t k = 0; k < a.prunes.size(); ++k) {
          const AdclPrune& p = a.prunes[k];
          os << (k == 0 ? "" : ",") << "{\"func\":" << p.func
             << ",\"bound_ns\":" << ns(p.bound) << ",\"iter\":" << p.iteration
             << "}";
        }
        os << "]";
      }
      os << "}";
    }
    if (s.faults.any()) {
      os << ",\"faults\":{\"drops\":" << s.faults.drops
         << ",\"dups\":" << s.faults.dups
         << ",\"dup_deliveries\":" << s.faults.dup_deliveries
         << ",\"retransmits\":" << s.faults.retransmits
         << ",\"send_failures\":" << s.faults.send_failures
         << ",\"fallbacks\":" << s.faults.fallbacks
         << ",\"stragglers\":" << s.faults.stragglers << "}";
    }
    if (s.recovery.any()) {
      const RecoverySummary& rec = s.recovery;
      os << ",\"recovery\":{\"deaths\":" << rec.deaths
         << ",\"epochs\":" << rec.epochs
         << ",\"rebuilds\":" << rec.rebuilds
         << ",\"aborted_ops\":" << rec.aborted_ops
         << ",\"detection_ns\":" << ns(rec.detection)
         << ",\"agreement_ns\":" << ns(rec.agreement)
         << ",\"rebuild_ns\":" << ns(rec.rebuild)
         << ",\"time_to_recover_ns\":" << ns(rec.time_to_recover) << "}";
    }
    // Conditional: only capped traces carry the key, so fault-free golden
    // reports stay byte-identical.
    if (s.truncated()) {
      os << ",\"trace\":{\"dropped_events\":" << s.dropped_events
         << ",\"truncated\":true}";
    }
    os << "}";
  }
  os << "\n]";
  if (!report.session_counters.empty()) {
    os << ",\"session_counters\":{";
    bool first = true;
    for (const auto& [k, v] : report.session_counters) {
      if (!first) os << ",";
      first = false;
      os << "\"" << trace::json_escaped(k) << "\":" << v;
    }
    os << "}";
  }
  os << ",\"guidelines\":[";
  for (std::size_t i = 0; i < report.guidelines.size(); ++i) {
    const GuidelineResult& g = report.guidelines[i];
    os << (i == 0 ? "" : ",") << "\n{";
    put_str(os, "id", g.id);
    put_str(os, "description", g.description);
    os << "\"checked\":" << g.checked << ",\"passed\":" << g.passed << ",";
    put_str(os, "status", g.status());
    os << "\"violations\":[";
    for (std::size_t v = 0; v < g.violations.size(); ++v) {
      os << (v == 0 ? "" : ",") << "\"" << trace::json_escaped(g.violations[v])
         << "\"";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

namespace {

std::string us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string pct(double num, double den) {
  if (den <= 0.0) return "-";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * num / den);
  return buf;
}

}  // namespace

void write_table(std::ostream& os, const Report& report) {
  os << "== trace analysis: " << report.scenarios.size()
     << " scenario(s) ==\n";
  for (const ScenarioReport& s : report.scenarios) {
    os << "\n-- " << s.label << " --\n";
    os << "  ops " << s.ops_completed << "/" << s.ops_started
       << " completed";
    if (s.ops_aborted > 0) os << " (" << s.ops_aborted << " aborted)";
    os << ", mean op " << us(s.mean_op_elapsed) << " us";
    if (s.adcl.present) {
      os << ", post-decision " << us(s.post_decision_op_elapsed) << " us";
    }
    os << "\n";
    const double tot = s.blame.total();
    os << "  blame: compute " << pct(s.blame.compute, tot) << ", progress "
       << pct(s.blame.progress, tot) << ", wire " << pct(s.blame.wire, tot)
       << ", late-sender " << pct(s.blame.late_sender, tot)
       << ", missing-progress " << pct(s.blame.missing_progress, tot)
       << ", other " << pct(s.blame.other, tot) << "\n";
    if (s.op_stats.n > 0) {
      os << "  stats: " << s.op_stats.n << " op sample(s), median "
         << us(s.op_stats.median) << " us, ~95% CI [" << us(s.op_stats.lo)
         << ", " << us(s.op_stats.hi) << "] us"
         << (s.min_reps_met ? "" : "  [below min-reps: not a measurement]")
         << "\n";
      os << "  blame medians: compute " << us(s.blame_stats.compute.median)
         << ", progress " << us(s.blame_stats.progress.median) << ", wire "
         << us(s.blame_stats.wire.median) << ", late-sender "
         << us(s.blame_stats.late_sender.median) << ", missing-progress "
         << us(s.blame_stats.missing_progress.median) << ", other "
         << us(s.blame_stats.other.median) << " us\n";
    }
    if (s.has_critical) {
      const OpCritical& c = s.worst;
      os << "  worst op: corr " << c.corr << " on rank " << c.critical_rank
         << ", elapsed " << us(c.elapsed) << " us, " << c.hops.size()
         << " critical hop(s)";
      for (const CriticalHop& h : c.hops) {
        os << "\n    rank " << h.rank << " <- msg " << h.corr << " from rank "
           << h.from_rank << " (posted " << us(h.post_ts) << ", arrived "
           << us(h.arrival_ts) << ")";
      }
      os << "\n";
    }
    for (const RankOverlap& r : s.ranks) {
      os << "  rank " << r.rank << ": " << r.ops << " op(s), op time "
         << us(r.op_time) << " us, compute-in-op " << us(r.compute_in_op)
         << " us, wire-in-op " << us(r.wire_in_op) << " us, overlap "
         << pct(r.overlap_ratio, 1.0) << ", slack " << us(r.slack) << " us\n";
    }
    if (s.adcl.present) {
      const AdclAudit& a = s.adcl;
      os << "  adcl: winner func " << a.winner << " at iteration "
         << a.decision_iteration << ", score " << us(a.winner_score)
         << " us, margin " << pct(a.margin, 1.0);
      if (a.samples_seen > 0) {
        os << ", filtered " << a.samples_filtered << "/" << a.samples_seen
           << " samples";
      }
      os << "\n";
      for (const AdclScore& sc : a.scores) {
        os << "    iter " << sc.iteration << ": func " << sc.func << " -> "
           << us(sc.score) << " us\n";
      }
      if (a.retunes > 0) {
        os << "    drift re-tunes: " << a.retunes << "\n";
      }
      for (const AdclElimination& el : a.eliminations) {
        os << "    iter " << el.iteration << ": fixed attr " << el.attr
           << "=" << el.value << " (kept func " << el.kept << "), pruned";
        for (int p : el.pruned) os << " " << p;
        os << "\n";
      }
      for (const AdclPrune& p : a.prunes) {
        os << "    iter " << p.iteration << ": guideline-pruned func "
           << p.func;
        if (p.bound > 0.0) {
          os << " (mock-up bound " << us(p.bound) << " us)";
        } else {
          os << " (pre-marked dominated)";
        }
        os << "\n";
      }
    }
    if (s.faults.any()) {
      const FaultSummary& f = s.faults;
      os << "  faults: drops " << f.drops << ", dups " << f.dups
         << ", dup-deliveries " << f.dup_deliveries << ", retransmits "
         << f.retransmits << ", send-failures " << f.send_failures
         << ", fallbacks " << f.fallbacks << ", stragglers " << f.stragglers
         << "\n";
    }
    if (s.recovery.any()) {
      const RecoverySummary& rec = s.recovery;
      os << "  recovery: " << rec.deaths << " death(s), " << rec.epochs
         << " shrink epoch(s), " << rec.rebuilds << " handle rebuild(s), "
         << rec.aborted_ops << " aborted op(s)\n";
      os << "    detection " << us(rec.detection) << " us, agreement "
         << us(rec.agreement) << " us, rebuild " << us(rec.rebuild)
         << " us, time-to-recover " << us(rec.time_to_recover) << " us\n";
    }
    if (s.truncated()) {
      os << "  TRUNCATED: " << s.dropped_events
         << " event(s) dropped by the trace buffer cap; all numbers above "
            "are lower bounds\n";
    }
  }
  os << "\n== guidelines ==\n";
  for (const GuidelineResult& g : report.guidelines) {
    os << "  [" << g.status() << "] " << g.id << " " << g.description << ": "
       << g.passed << "/" << g.checked << "\n";
    for (const std::string& v : g.violations) {
      os << "    violation: " << v << "\n";
    }
  }
}

}  // namespace nbctune::analyze
