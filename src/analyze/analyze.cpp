#include "analyze/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "net/platform.hpp"
#include "trace/trace.hpp"

namespace nbctune::analyze {

ScenarioTrace from_finished(const trace::FinishedTrace& t) {
  ScenarioTrace out;
  out.label = t.label;
  out.key = t.key;
  out.events.reserve(t.events.size());
  for (const trace::Event& e : t.events) {
    AEvent a;
    a.ts = e.ts;
    a.dur = e.dur;
    a.track = e.track;
    a.cat = trace::cat_name(e.cat);
    a.name = e.name;
    if (e.akey != nullptr) a.akey = e.akey;
    a.aval = e.aval;
    if (e.bkey != nullptr) a.bkey = e.bkey;
    a.bval = e.bval;
    a.corr = e.corr;
    out.events.push_back(std::move(a));
  }
  for (std::size_t c = 0; c < t.counts.size(); ++c) {
    if (t.counts[c] != 0) {
      out.counters[trace::ctr_name(static_cast<trace::Ctr>(c))] = t.counts[c];
    }
  }
  return out;
}

// ------------------------------------------------------ order statistics

SampleStats order_stats(std::vector<double> samples) {
  SampleStats st;
  st.n = samples.size();
  if (samples.empty()) return st;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  st.median = n % 2 == 1 ? samples[n / 2]
                         : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  // ~95% nonparametric CI on the median: the order-statistic ranks
  // floor(mid - z/2*sqrt(n)) and ceil(mid + z/2*sqrt(n)) with z = 1.96
  // (normal approximation of Binomial(n, 1/2)), clamped to the sample.
  // sqrt/floor/ceil are IEEE-exact, so the chosen ranks — and therefore
  // the emitted bounds — are identical across compilers.
  const double mid = static_cast<double>(n - 1) / 2.0;
  const double delta = 0.98 * std::sqrt(static_cast<double>(n));
  const auto lo_i =
      static_cast<std::size_t>(std::max(0.0, std::floor(mid - delta)));
  const auto hi_i = static_cast<std::size_t>(
      std::min(static_cast<double>(n - 1), std::ceil(mid + delta)));
  st.lo = samples[lo_i];
  st.hi = samples[hi_i];
  return st;
}

// ----------------------------------------------------- scenario indexing

namespace {

/// A half-open interval [a, b) tagged with a blame category priority.
struct Interval {
  double a = 0.0;
  double b = 0.0;
};

/// Clip `iv` to [lo, hi]; returns an empty interval when disjoint.
Interval clip(Interval iv, double lo, double hi) {
  iv.a = std::max(iv.a, lo);
  iv.b = std::min(iv.b, hi);
  if (iv.b < iv.a) iv.b = iv.a;
  return iv;
}

/// Intervals sorted by start once, with the running maximum of their
/// ends, so a window query skips every interval that ends before the
/// window instead of rescanning from the first.
class SortedIntervals {
 public:
  void add(Interval iv) { ivs_.push_back(iv); }
  void add(const std::vector<Interval>& ivs) {
    ivs_.insert(ivs_.end(), ivs.begin(), ivs.end());
  }
  /// Sort by start and build the running-max index (call once, after
  /// the last add).
  void seal() {
    std::sort(ivs_.begin(), ivs_.end(),
              [](const Interval& x, const Interval& y) { return x.a < y.a; });
    max_end_.resize(ivs_.size());
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      m = std::max(m, ivs_[i].b);
      max_end_[i] = m;
    }
  }
  /// Append the members overlapping [lo, hi], clipped to it, in start
  /// order (so the clipped starts are sorted too).
  void collect(double lo, double hi, std::vector<Interval>& out) const {
    auto i = static_cast<std::size_t>(
        std::upper_bound(max_end_.begin(), max_end_.end(), lo) -
        max_end_.begin());
    for (; i < ivs_.size() && ivs_[i].a < hi; ++i) {
      if (ivs_[i].b > lo) out.push_back(clip(ivs_[i], lo, hi));
    }
  }

 private:
  std::vector<Interval> ivs_;
  std::vector<double> max_end_;  ///< max_end_[i] = max end of ivs_[0..i]
};

/// One wire transfer reconstructed from its correlation id.
struct MsgInfo {
  double post_ts = -1.0;
  int post_track = -1;
  double arrival_ts = -1.0;  ///< msg.deliver / msg.complete on the receiver
  int arrival_track = -1;
  std::vector<Interval> wire;  ///< serialization spans on wire lanes
};

/// A message that landed on a rank.
struct Inbound {
  double arrival = 0.0;
  std::uint64_t corr = 0;
};

/// Per-rank sorted event digests used for window queries.
struct RankIndex {
  SortedIntervals compute;              ///< compute spans
  SortedIntervals progress;             ///< progress.call/pass spans
  std::vector<double> activity_starts;  ///< progress starts + round posts
  std::vector<Inbound> inbound;         ///< sorted by (arrival, corr)
};

struct OpSpan {
  int rank = -1;
  double ts = 0.0;
  double dur = 0.0;
};

/// Everything the per-op analyses need, built in one pass over events.
struct Index {
  std::unordered_map<std::uint64_t, MsgInfo> msgs;
  std::map<int, RankIndex> ranks;
  std::map<std::uint64_t, std::vector<OpSpan>> ops;  ///< nbc.op by corr
  std::uint64_t ops_started = 0;
  bool any_compute = false;
};

bool is_post_name(std::string_view n) {
  return n == "msg.eager" || n == "msg.rts" || n == "msg.cts" ||
         n == "msg.bulk_nic";
}

Index build_index(const ScenarioTrace& t) {
  Index ix;
  for (const AEvent& e : t.events) {
    if (e.track < 0) {
      if (e.is_span() && e.corr != 0) {
        ix.msgs[e.corr].wire.push_back({e.ts, e.ts + e.dur});
      }
      continue;
    }
    if (e.cat == "progress") {
      if (e.name == "compute" && e.is_span()) {
        ix.ranks[e.track].compute.add({e.ts, e.ts + e.dur});
        ix.any_compute = true;
      } else if (e.is_span()) {
        ix.ranks[e.track].progress.add({e.ts, e.ts + e.dur});
        ix.ranks[e.track].activity_starts.push_back(e.ts);
      }
    } else if (e.cat == "nbc") {
      if (e.name == "nbc.op" && e.is_span()) {
        ix.ops[e.corr].push_back({e.track, e.ts, e.dur});
      } else if (e.name == "nbc.start") {
        ++ix.ops_started;
      } else if (e.name == "nbc.round") {
        ix.ranks[e.track].activity_starts.push_back(e.ts);
      }
    } else if (e.cat == "msg") {
      if (e.corr == 0) continue;
      MsgInfo& m = ix.msgs[e.corr];
      if (is_post_name(e.name)) {
        m.post_ts = e.ts;
        m.post_track = e.track;
      } else if (e.name == "msg.deliver" || e.name == "msg.complete") {
        // msg.complete (payload landed) supersedes the control-path
        // deliver of the same transfer if both ever appear.
        m.arrival_ts = e.ts;
        m.arrival_track = e.track;
      }
    }
  }
  for (auto& [rank, ri] : ix.ranks) {
    ri.compute.seal();
    ri.progress.seal();
    std::sort(ri.activity_starts.begin(), ri.activity_starts.end());
  }
  // Inbound lists need the msgs map complete first; sort by (arrival,
  // corr) so the order is deterministic regardless of map iteration.
  for (const auto& [corr, m] : ix.msgs) {
    if (m.arrival_track >= 0) {
      ix.ranks[m.arrival_track].inbound.push_back({m.arrival_ts, corr});
    }
  }
  for (auto& [rank, ri] : ix.ranks) {
    std::sort(ri.inbound.begin(), ri.inbound.end(),
              [](const Inbound& x, const Inbound& y) {
                return x.arrival != y.arrival ? x.arrival < y.arrival
                                              : x.corr < y.corr;
              });
  }
  return ix;
}

// ----------------------------------------------------------- interval math

/// Total length of the union of `ivs`, which are sorted by start (as
/// SortedIntervals::collect returns them).
double union_length(const std::vector<Interval>& ivs) {
  double sum = 0.0;
  double cur_a = 0.0, cur_b = -1.0;
  for (const Interval& iv : ivs) {
    if (iv.b <= iv.a) continue;
    if (cur_b < cur_a) {
      cur_a = iv.a;
      cur_b = iv.b;
    } else if (iv.a <= cur_b) {
      cur_b = std::max(cur_b, iv.b);
    } else {
      sum += cur_b - cur_a;
      cur_a = iv.a;
      cur_b = iv.b;
    }
  }
  if (cur_b > cur_a) sum += cur_b - cur_a;
  return sum;
}

// ------------------------------------------------------------ blame sweep

enum BlameCat : int {
  kCompute = 0,
  kProgress,
  kWire,
  kLateSender,
  kMissingProgress,
  kCatCount
};

/// Partition [lo, hi] by priority: each elementary segment goes to the
/// highest-priority (lowest enum) category covering it; uncovered time is
/// "other".  The six sums telescope to hi - lo.
Blame sweep(const std::vector<Interval> (&cats)[kCatCount], double lo,
            double hi) {
  Blame blame;
  std::vector<double> cuts{lo, hi};
  for (const auto& ivs : cats) {
    for (const Interval& iv : ivs) {
      if (iv.b <= iv.a) continue;
      cuts.push_back(std::clamp(iv.a, lo, hi));
      cuts.push_back(std::clamp(iv.b, lo, hi));
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  double* sums[kCatCount] = {&blame.compute, &blame.progress, &blame.wire,
                             &blame.late_sender, &blame.missing_progress};
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i], b = cuts[i + 1];
    const double mid = a + (b - a) / 2.0;
    int winner = -1;
    for (int c = 0; c < kCatCount && winner < 0; ++c) {
      for (const Interval& iv : cats[c]) {
        if (iv.a <= mid && mid < iv.b) {
          winner = c;
          break;
        }
      }
    }
    if (winner >= 0) {
      *sums[winner] += b - a;
    } else {
      blame.other += b - a;
    }
  }
  return blame;
}

/// First progress activity (pass start or round post) on the rank at or
/// after `t`; falls back to `fallback` when the rank never progresses
/// again inside the window.
double next_activity(const RankIndex& ri, double t, double fallback) {
  auto it = std::lower_bound(ri.activity_starts.begin(),
                             ri.activity_starts.end(), t);
  if (it == ri.activity_starts.end()) return fallback;
  return std::min(*it, fallback);
}

/// Blame partition + critical-path walk of one op instance.
OpCritical analyze_op(const Index& ix, std::uint64_t corr,
                      const std::vector<OpSpan>& spans, int max_hops) {
  OpCritical oc;
  oc.corr = corr;
  const OpSpan* crit = &spans.front();
  for (const OpSpan& s : spans) {
    if (s.ts + s.dur > crit->ts + crit->dur) crit = &s;
  }
  oc.critical_rank = crit->rank;
  oc.start = crit->ts;
  oc.elapsed = crit->dur;
  const double lo = crit->ts, hi = crit->ts + crit->dur;

  auto rit = ix.ranks.find(crit->rank);
  static const RankIndex kNone;
  const RankIndex& ri = rit != ix.ranks.end() ? rit->second : kNone;

  std::vector<Interval> cats[kCatCount];
  ri.compute.collect(lo, hi, cats[kCompute]);
  ri.progress.collect(lo, hi, cats[kProgress]);
  // Inbound transfers landing in the window drive the remaining three
  // categories: their wire serialization, the wait before the sender
  // posted, and the post-arrival gap until this rank progressed again.
  const auto arrives_before = [](const Inbound& in, double t) {
    return in.arrival < t;
  };
  for (auto it = std::lower_bound(ri.inbound.begin(), ri.inbound.end(), lo,
                                  arrives_before);
       it != ri.inbound.end() && it->arrival <= hi; ++it) {
    const MsgInfo& m = ix.msgs.at(it->corr);
    for (const Interval& w : m.wire) {
      const Interval c = clip(w, lo, hi);
      if (c.b > c.a) cats[kWire].push_back(c);
    }
    if (m.post_ts > lo) {
      cats[kLateSender].push_back({lo, std::min(m.post_ts, hi)});
    }
    const double seen = next_activity(ri, m.arrival_ts, hi);
    if (seen > m.arrival_ts) {
      cats[kMissingProgress].push_back({m.arrival_ts, seen});
    }
  }
  oc.blame = sweep(cats, lo, hi);

  // Backwards walk: who was everybody waiting for?
  int cur_rank = crit->rank;
  double cur_t = hi;
  for (int hop = 0; hop < max_hops; ++hop) {
    auto rit2 = ix.ranks.find(cur_rank);
    if (rit2 == ix.ranks.end()) break;
    const RankIndex& cri = rit2->second;
    // The newest arrival at or before cur_t, if it is inside the window.
    auto last = std::upper_bound(
        cri.inbound.begin(), cri.inbound.end(), cur_t,
        [](double t, const Inbound& in) { return t < in.arrival; });
    if (last == cri.inbound.begin() || (--last)->arrival < lo) break;
    const MsgInfo* found = &ix.msgs.at(last->corr);
    if (found->post_track < 0) break;
    oc.hops.push_back({cur_rank, found->post_track, last->corr,
                       found->post_ts, found->arrival_ts});
    if (found->post_ts <= lo || found->post_ts >= cur_t) break;
    cur_rank = found->post_track;
    cur_t = found->post_ts;
  }
  return oc;
}

// --------------------------------------------------------------- overlap

std::vector<RankOverlap> analyze_overlap(const Index& ix) {
  // Per-rank op windows, and the wire intervals correlated with each
  // rank's traffic (sent or received), gathered in one pass over the
  // message map and sorted once.
  struct RankWork {
    std::vector<Interval> windows;
    SortedIntervals wire;
  };
  std::map<int, RankWork> work;
  for (const auto& [corr, spans] : ix.ops) {
    for (const OpSpan& s : spans) {
      work[s.rank].windows.push_back({s.ts, s.ts + s.dur});
    }
  }
  for (const auto& [corr, m] : ix.msgs) {
    if (m.wire.empty()) continue;
    const auto add = [&](int rank) {
      auto it = work.find(rank);
      if (it != work.end()) it->second.wire.add(m.wire);
    };
    add(m.post_track);
    if (m.arrival_track != m.post_track) add(m.arrival_track);
  }
  std::vector<RankOverlap> out;
  std::vector<Interval> comp;
  std::vector<Interval> wire;
  for (auto& [rank, rw] : work) {
    std::vector<Interval>& wins = rw.windows;
    std::sort(wins.begin(), wins.end(),
              [](const Interval& x, const Interval& y) { return x.a < y.a; });
    rw.wire.seal();
    RankOverlap ro;
    ro.rank = rank;
    ro.ops = wins.size();
    auto rit = ix.ranks.find(rank);
    static const RankIndex kNone;
    const RankIndex& ri = rit != ix.ranks.end() ? rit->second : kNone;
    double ratio_sum = 0.0;
    std::uint64_t ratio_n = 0;
    for (const Interval& w : wins) {
      const double e = w.b - w.a;
      comp.clear();
      ri.compute.collect(w.a, w.b, comp);
      wire.clear();
      rw.wire.collect(w.a, w.b, wire);
      const double c = union_length(comp);
      const double wi = union_length(wire);
      ro.op_time += e;
      ro.compute_in_op += c;
      ro.wire_in_op += wi;
      ro.slack += std::max(0.0, e - std::max(c, wi));
      const double m = std::min(c, wi);
      if (m > 0.0 && e > 0.0) {
        ratio_sum += std::clamp((c + wi - e) / m, 0.0, 1.0);
        ++ratio_n;
      }
    }
    ro.overlap_ratio = ratio_n > 0 ? ratio_sum / static_cast<double>(ratio_n)
                                   : 0.0;
    out.push_back(ro);
  }
  return out;
}

// ------------------------------------------------------------ adcl audit

AdclAudit analyze_adcl(const ScenarioTrace& t) {
  AdclAudit a;
  // Every rank emits the (identical, rank-agreed) adcl events; audit the
  // lowest participating track only.
  int track = -1;
  for (const AEvent& e : t.events) {
    if (e.cat == "adcl" && e.track >= 0 &&
        (track < 0 || e.track < track)) {
      track = e.track;
    }
  }
  if (track < 0) return a;
  a.present = true;
  for (const AEvent& e : t.events) {
    if (e.cat != "adcl" || e.track != track) continue;
    if (e.name == "adcl.score") {
      AdclScore s;
      s.func = static_cast<int>(e.arg("func"));
      s.score = static_cast<double>(e.arg("score_ns")) * 1e-9;
      s.iteration = static_cast<int>(e.corr);
      a.scores.push_back(s);
    } else if (e.name == "adcl.decision") {
      // Later decisions (drift re-tunes) supersede earlier ones.
      a.winner = static_cast<int>(e.arg("winner"));
      a.decision_iteration = static_cast<int>(e.arg("iter"));
      a.decision_ts = e.ts;
    } else if (e.name == "adcl.retune") {
      ++a.retunes;
    } else if (e.name == "adcl.eliminate") {
      AdclElimination el;
      el.attr = static_cast<int>(e.arg("attr"));
      el.value = static_cast<int>(e.arg("value"));
      el.iteration = static_cast<int>(e.corr);
      a.eliminations.push_back(std::move(el));
    } else if (e.name == "adcl.prune") {
      AdclPrune p;
      p.func = static_cast<int>(e.arg("func"));
      p.bound = static_cast<double>(e.arg("bound_ns")) * 1e-9;
      p.iteration = static_cast<int>(e.corr);
      a.prunes.push_back(p);
    } else if (e.name == "adcl.eliminate.func") {
      // Emitted right after its adcl.eliminate; attach to the newest
      // record (several eliminations may share one iteration when
      // exhausted phases cascade).
      if (!a.eliminations.empty()) {
        a.eliminations.back().pruned.push_back(
            static_cast<int>(e.arg("func")));
        a.eliminations.back().kept = static_cast<int>(e.arg("kept"));
      }
    }
  }
  // Last score per function (later refinements override earlier ones).
  std::map<int, double> best;
  for (const AdclScore& s : a.scores) best[s.func] = s.score;
  if (a.winner >= 0) {
    auto it = best.find(a.winner);
    if (it != best.end()) a.winner_score = it->second;
    double runner = 0.0;
    bool have = false;
    for (const auto& [f, sc] : best) {
      if (f == a.winner) continue;
      if (!have || sc < runner) {
        runner = sc;
        have = true;
      }
    }
    if (have) {
      a.runner_up_score = runner;
      if (a.winner_score > 0.0) {
        a.margin = (runner - a.winner_score) / a.winner_score;
      }
    }
  }
  auto ctr = [&](const char* name) -> std::uint64_t {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0 : it->second;
  };
  a.samples_seen = ctr("adcl.samples_seen");
  a.samples_filtered = ctr("adcl.samples_filtered");
  return a;
}

// ----------------------------------------------------------- fault audit

/// Count injection/recovery events.  Injections (fault.*) are emitted
/// once globally per incident; recovery events (msg.*, nbc.fallback) are
/// per-rank, so the sums count incidents and rank-actions respectively.
FaultSummary analyze_faults(const ScenarioTrace& t) {
  FaultSummary f;
  for (const AEvent& e : t.events) {
    if (e.name == "fault.drop") {
      ++f.drops;
    } else if (e.name == "fault.dup") {
      ++f.dups;
    } else if (e.name == "msg.dup_drop") {
      ++f.dup_deliveries;
    } else if (e.name == "msg.retransmit") {
      ++f.retransmits;
    } else if (e.name == "msg.send_failure") {
      ++f.send_failures;
    } else if (e.name == "nbc.fallback") {
      ++f.fallbacks;
    } else if (e.name == "fault.straggler") {
      ++f.stragglers;
    }
  }
  return f;
}

// -------------------------------------------------------- recovery audit

/// Replay the fail-stop recovery timeline.  Events arrive in simulated
/// time order (one engine per scenario), so a single forward pass pairs
/// each death with its lease-detection, opens a shrink epoch at every
/// agreement that removed ranks (the "failed" argument is cumulative, so
/// growth marks a membership change), and closes it at the epoch's last
/// per-rank handle rebuild.
RecoverySummary analyze_recovery(const ScenarioTrace& t) {
  RecoverySummary r;
  std::map<int, double> death_ts;  // world rank -> death time
  double det_sum = 0.0;
  std::uint64_t det_n = 0;
  struct Epoch {
    double first_death = -1.0;
    double first_detect = -1.0;
    double agree = -1.0;
    double last_rebuild = -1.0;
  };
  std::vector<Epoch> epochs;
  double pend_first_death = -1.0;
  double pend_first_detect = -1.0;
  std::uint64_t prev_failed = 0;
  for (const AEvent& e : t.events) {
    if (e.name == "mpi.rank_death") {
      ++r.deaths;
      death_ts[e.track] = e.ts;
      if (pend_first_death < 0.0) pend_first_death = e.ts;
    } else if (e.name == "mpi.ft.detect") {
      const auto it = death_ts.find(e.track);
      if (it != death_ts.end()) {
        det_sum += e.ts - it->second;
        ++det_n;
      }
      if (pend_first_detect < 0.0) pend_first_detect = e.ts;
    } else if (e.name == "mpi.ft.agree") {
      const std::uint64_t failed = e.arg("failed");
      if (failed > prev_failed) {
        prev_failed = failed;
        epochs.push_back({pend_first_death, pend_first_detect, e.ts, -1.0});
        pend_first_death = pend_first_detect = -1.0;
      }
    } else if (e.name == "nbc.rebuild") {
      ++r.rebuilds;
      if (!epochs.empty()) epochs.back().last_rebuild = e.ts;
    } else if (e.name == "nbc.abort") {
      ++r.aborted_ops;
    }
  }
  r.epochs = epochs.size();
  r.detection = det_n > 0 ? det_sum / static_cast<double>(det_n) : 0.0;
  double agree_sum = 0.0, reb_sum = 0.0, ttr_sum = 0.0;
  std::uint64_t agree_n = 0, reb_n = 0, ttr_n = 0;
  for (const Epoch& ep : epochs) {
    if (ep.first_detect >= 0.0) {
      agree_sum += ep.agree - ep.first_detect;
      ++agree_n;
    }
    if (ep.last_rebuild >= 0.0) {
      reb_sum += ep.last_rebuild - ep.agree;
      ++reb_n;
      if (ep.first_death >= 0.0) {
        ttr_sum += ep.last_rebuild - ep.first_death;
        ++ttr_n;
      }
    }
  }
  r.agreement = agree_n > 0 ? agree_sum / static_cast<double>(agree_n) : 0.0;
  r.rebuild = reb_n > 0 ? reb_sum / static_cast<double>(reb_n) : 0.0;
  r.time_to_recover =
      ttr_n > 0 ? ttr_sum / static_cast<double>(ttr_n) : 0.0;
  return r;
}

// ------------------------------------------------------------ guidelines

void fmt_ns(std::string& s, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(std::llround(seconds * 1e9)));
  s += buf;
  s += "ns";
}

std::vector<GuidelineResult> check_guidelines(
    const std::vector<ScenarioReport>& scenarios, const Options& opts) {
  std::vector<GuidelineResult> out;

  // G1: every started operation completes (conservation; catches lost
  // wakeups and dangling handles).  Universal: applies to every traced
  // scenario of every driver.
  {
    GuidelineResult g;
    g.id = "G1";
    g.description =
        "every started non-blocking operation completes or is aborted by "
        "fail-stop recovery";
    for (const ScenarioReport& s : scenarios) {
      ++g.checked;
      // Conservation under fail-stop: an execution abandoned at a shrink
      // (and the dying rank's own in-flight op) is accounted as aborted;
      // aborted is 0 on kill-free runs, where this degenerates to the
      // classic started == completed.
      if (s.ops_started == s.ops_completed + s.ops_aborted) {
        ++g.passed;
      } else {
        g.violations.push_back(
            s.label + ": started " + std::to_string(s.ops_started) +
            " != completed " + std::to_string(s.ops_completed) +
            " + aborted " + std::to_string(s.ops_aborted));
      }
    }
    out.push_back(std::move(g));
  }

  // Group keyed scenarios for the comparative guidelines.  Each group
  // holds the scenarios whose keys agree on everything but the projected
  // field(s): the member (G2/G3/G7), the message size (G4/G5) or the
  // process count (G6).
  using Cells = std::vector<const ScenarioReport*>;
  std::map<trace::ScenarioKey, Cells> groups;       // G2/G3/G7
  std::map<trace::ScenarioKey, Cells> size_groups;  // G4/G5
  std::map<trace::ScenarioKey, Cells> rank_groups;  // G6
  for (const ScenarioReport& s : scenarios) {
    if (!s.key || s.ops_completed == 0) continue;
    trace::ScenarioKey member = *s.key;
    member.adcl = false;
    member.impl.clear();
    groups[member].push_back(&s);
    trace::ScenarioKey size = *s.key;
    size.bytes = 0;
    size_groups[size].push_back(&s);
    trace::ScenarioKey ranks = *s.key;
    ranks.nprocs = 0;
    rank_groups[ranks].push_back(&s);
  }

  // G2: the tuned winner is no slower than the best fixed candidate
  // (post-decision iterations, tolerance epsilon).
  {
    GuidelineResult g;
    g.id = "G2";
    g.description = "tuned winner <= best fixed candidate (post-decision)";
    for (const auto& [key, cells] : groups) {
      double best_fixed = 0.0;
      std::string best_label;
      for (const ScenarioReport* c : cells) {
        if (c->key->adcl) continue;
        if (best_label.empty() || c->mean_op_elapsed < best_fixed) {
          best_fixed = c->mean_op_elapsed;
          best_label = c->label;
        }
      }
      if (best_label.empty()) continue;
      for (const ScenarioReport* c : cells) {
        if (!c->key->adcl) continue;
        ++g.checked;
        const double tuned = c->post_decision_op_elapsed;
        if (tuned <= best_fixed * (1.0 + opts.epsilon)) {
          ++g.passed;
        } else {
          std::string v = c->label + ": tuned ";
          fmt_ns(v, tuned);
          v += " > best fixed ";
          fmt_ns(v, best_fixed);
          v += " (" + best_label + ")";
          g.violations.push_back(std::move(v));
        }
      }
    }
    out.push_back(std::move(g));
  }

  // G3: at zero compute a non-blocking implementation is no slower than
  // its blocking twin (no overlap to win, none to lose).
  {
    GuidelineResult g;
    g.id = "G3";
    g.description =
        "non-blocking <= blocking twin at zero compute (tolerance epsilon)";
    for (const auto& [key, cells] : groups) {
      for (const ScenarioReport* blocking : cells) {
        constexpr std::string_view kPrefix = "blocking-";
        if (blocking->key->adcl || !blocking->key->impl.starts_with(kPrefix)) {
          continue;
        }
        const std::string_view twin =
            std::string_view(blocking->key->impl).substr(kPrefix.size());
        for (const ScenarioReport* c : cells) {
          if (c->key->adcl || c->key->impl != twin) continue;
          if (!c->zero_compute || !blocking->zero_compute) continue;
          ++g.checked;
          if (c->mean_op_elapsed <=
              blocking->mean_op_elapsed * (1.0 + opts.epsilon)) {
            ++g.passed;
          } else {
            std::string v = c->label + ": non-blocking ";
            fmt_ns(v, c->mean_op_elapsed);
            v += " > blocking ";
            fmt_ns(v, blocking->mean_op_elapsed);
            g.violations.push_back(std::move(v));
          }
        }
      }
    }
    out.push_back(std::move(g));
  }

  // G4: op time is monotone in message size for a fixed implementation
  // (allowing a small dip for protocol switches measured under noise).
  {
    GuidelineResult g;
    g.id = "G4";
    g.description = "op time monotone non-decreasing in message size";
    for (const auto& [key, cells] : size_groups) {
      if (cells.size() < 2) continue;
      Cells sorted = cells;
      std::sort(sorted.begin(), sorted.end(),
                [](const ScenarioReport* x, const ScenarioReport* y) {
                  return x->key->bytes < y->key->bytes;
                });
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        if (sorted[i]->key->bytes == sorted[i + 1]->key->bytes) continue;
        ++g.checked;
        const double small = sorted[i]->mean_op_elapsed;
        const double big = sorted[i + 1]->mean_op_elapsed;
        if (big >= small * (1.0 - opts.monotonicity_tolerance)) {
          ++g.passed;
        } else {
          std::string v = sorted[i + 1]->label + ": ";
          fmt_ns(v, big);
          v += " at " + std::to_string(sorted[i + 1]->key->bytes) +
               "B < " ;
          fmt_ns(v, small);
          v += " at " + std::to_string(sorted[i]->key->bytes) + "B";
          g.violations.push_back(std::move(v));
        }
      }
    }
    out.push_back(std::move(g));
  }

  // G5: pattern-split mock-up (Hunold).  Splitting an operation into two
  // half-size instances is a valid alternative implementation, so the
  // full-size op may not cost more than twice the half-size op (plus
  // epsilon).  Checked for exact size doublings within a size group.
  {
    GuidelineResult g;
    g.id = "G5";
    g.description =
        "doubling the message size at most doubles op time (split mock-up)";
    for (const auto& [key, cells] : size_groups) {
      if (cells.size() < 2) continue;
      Cells sorted = cells;
      std::sort(sorted.begin(), sorted.end(),
                [](const ScenarioReport* x, const ScenarioReport* y) {
                  return x->key->bytes < y->key->bytes;
                });
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        if (sorted[i + 1]->key->bytes != 2 * sorted[i]->key->bytes) continue;
        ++g.checked;
        const double half = sorted[i]->mean_op_elapsed;
        const double full = sorted[i + 1]->mean_op_elapsed;
        if (full <= 2.0 * half * (1.0 + opts.epsilon)) {
          ++g.passed;
        } else {
          std::string v = sorted[i + 1]->label + ": ";
          fmt_ns(v, full);
          v += " > 2x ";
          fmt_ns(v, half);
          v += " at " + std::to_string(sorted[i]->key->bytes) + "B";
          g.violations.push_back(std::move(v));
        }
      }
    }
    out.push_back(std::move(g));
  }

  // G6: op time is monotone non-decreasing in the process count for a
  // fixed implementation and message size (more participants never make
  // a collective faster; a small dip is tolerated for topology effects
  // measured under noise).
  {
    GuidelineResult g;
    g.id = "G6";
    g.description = "op time monotone non-decreasing in process count";
    for (const auto& [key, cells] : rank_groups) {
      if (cells.size() < 2) continue;
      Cells sorted = cells;
      std::sort(sorted.begin(), sorted.end(),
                [](const ScenarioReport* x, const ScenarioReport* y) {
                  return x->key->nprocs < y->key->nprocs;
                });
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        if (sorted[i]->key->nprocs == sorted[i + 1]->key->nprocs) continue;
        ++g.checked;
        const double small = sorted[i]->mean_op_elapsed;
        const double big = sorted[i + 1]->mean_op_elapsed;
        if (big >= small * (1.0 - opts.monotonicity_tolerance)) {
          ++g.passed;
        } else {
          std::string v = sorted[i + 1]->label + ": ";
          fmt_ns(v, big);
          v += " at np" + std::to_string(sorted[i + 1]->key->nprocs) + " < ";
          fmt_ns(v, small);
          v += " at np" + std::to_string(sorted[i]->key->nprocs);
          g.violations.push_back(std::move(v));
        }
      }
    }
    out.push_back(std::move(g));
  }

  // G7: on multi-node runs a hierarchy-aware two-level implementation is
  // no slower than its flat counterpart (tolerance epsilon) — topology
  // awareness must earn back its extra intra-node hop.  Single-node runs
  // are skipped: the two-level shape degenerates to the flat one there.
  {
    GuidelineResult g;
    g.id = "G7";
    g.description =
        "two-level variant <= flat counterpart on multi-node runs";
    for (const auto& [key, cells] : groups) {
      for (const ScenarioReport* two : cells) {
        constexpr std::string_view kPrefix = "2lvl-";
        if (two->key->adcl || !two->key->impl.starts_with(kPrefix)) continue;
        bool multi_node = false;
        try {
          const net::Platform p = net::platform_by_name(two->key->platform);
          multi_node = two->key->nprocs > p.cores_per_node;
        } catch (const std::exception&) {
          continue;  // unknown platform: no node geometry to reason about
        }
        if (!multi_node) continue;
        // Flat twin: same name without the 2lvl- prefix, exactly or as a
        // segmented family ("binomial/seg32k" twins "2lvl-binomial"); the
        // fastest family member is the reference.
        const std::string flat = two->key->impl.substr(kPrefix.size());
        const ScenarioReport* best = nullptr;
        for (const ScenarioReport* c : cells) {
          if (c->key->adcl || (c->key->impl != flat &&
                               !c->key->impl.starts_with(flat + "/"))) {
            continue;
          }
          if (best == nullptr ||
              c->mean_op_elapsed < best->mean_op_elapsed) {
            best = c;
          }
        }
        if (best == nullptr) continue;
        ++g.checked;
        if (two->mean_op_elapsed <=
            best->mean_op_elapsed * (1.0 + opts.epsilon)) {
          ++g.passed;
        } else {
          std::string v = two->label + ": two-level ";
          fmt_ns(v, two->mean_op_elapsed);
          v += " > flat ";
          fmt_ns(v, best->mean_op_elapsed);
          v += " (" + best->label + ")";
          g.violations.push_back(std::move(v));
        }
      }
    }
    out.push_back(std::move(g));
  }

  return out;
}

}  // namespace

// ---------------------------------------------------------------- driver

Report analyze(const std::vector<ScenarioTrace>& traces,
               const Options& opts) {
  Report report;
  report.scenarios.reserve(traces.size());
  for (const ScenarioTrace& t : traces) {
    ScenarioReport sr;
    sr.label = t.label;
    sr.key = t.key;
    const Index ix = build_index(t);
    sr.ops_started = ix.ops_started;
    sr.zero_compute = !ix.any_compute;

    double op_sum = 0.0;
    std::uint64_t op_n = 0;
    for (const auto& [corr, spans] : ix.ops) {
      for (const OpSpan& s : spans) {
        op_sum += s.dur;
        ++op_n;
      }
    }
    sr.ops_completed = op_n;
    sr.mean_op_elapsed = op_n > 0 ? op_sum / static_cast<double>(op_n) : 0.0;

    double worst_elapsed = -1.0;
    // One repetition sample per op instance: the critical rank's elapsed
    // time and blame partition ("MPI Benchmarking Revisited": statistics
    // are computed over repetitions, never pooled measurements).
    std::vector<double> elapsed_samples;
    std::vector<double> blame_samples[6];
    for (const auto& [corr, spans] : ix.ops) {
      OpCritical oc = analyze_op(ix, corr, spans, opts.max_hops);
      sr.blame.compute += oc.blame.compute;
      sr.blame.progress += oc.blame.progress;
      sr.blame.wire += oc.blame.wire;
      sr.blame.late_sender += oc.blame.late_sender;
      sr.blame.missing_progress += oc.blame.missing_progress;
      sr.blame.other += oc.blame.other;
      elapsed_samples.push_back(oc.elapsed);
      blame_samples[0].push_back(oc.blame.compute);
      blame_samples[1].push_back(oc.blame.progress);
      blame_samples[2].push_back(oc.blame.wire);
      blame_samples[3].push_back(oc.blame.late_sender);
      blame_samples[4].push_back(oc.blame.missing_progress);
      blame_samples[5].push_back(oc.blame.other);
      if (oc.elapsed > worst_elapsed) {
        worst_elapsed = oc.elapsed;
        sr.worst = oc;
        sr.has_critical = true;
      }
      sr.op_criticals.push_back(std::move(oc));
    }
    sr.op_stats = order_stats(std::move(elapsed_samples));
    sr.blame_stats.compute = order_stats(std::move(blame_samples[0]));
    sr.blame_stats.progress = order_stats(std::move(blame_samples[1]));
    sr.blame_stats.wire = order_stats(std::move(blame_samples[2]));
    sr.blame_stats.late_sender = order_stats(std::move(blame_samples[3]));
    sr.blame_stats.missing_progress =
        order_stats(std::move(blame_samples[4]));
    sr.blame_stats.other = order_stats(std::move(blame_samples[5]));
    sr.min_reps_met =
        sr.op_stats.n >= static_cast<std::uint64_t>(std::max(opts.min_reps, 0));

    sr.ranks = analyze_overlap(ix);
    sr.adcl = analyze_adcl(t);
    sr.faults = analyze_faults(t);
    sr.recovery = analyze_recovery(t);
    sr.ops_aborted = sr.recovery.aborted_ops;
    {
      auto ctr = [&](const char* name) -> std::uint64_t {
        auto it = t.counters.find(name);
        return it == t.counters.end() ? 0 : it->second;
      };
      sr.fibers_created = ctr("sim.fibers_created");
      sr.peak_arena_bytes = ctr("world.peak_arena_bytes");
      sr.dropped_events = ctr("trace.dropped_events");
    }

    // Post-decision performance: ops starting after the decision event.
    sr.post_decision_op_elapsed = sr.mean_op_elapsed;
    if (sr.adcl.present && sr.adcl.winner >= 0) {
      double sum = 0.0;
      std::uint64_t n = 0;
      for (const auto& [corr, spans] : ix.ops) {
        for (const OpSpan& s : spans) {
          if (s.ts > sr.adcl.decision_ts) {
            sum += s.dur;
            ++n;
          }
        }
      }
      if (n > 0) sr.post_decision_op_elapsed = sum / static_cast<double>(n);
    }
    report.scenarios.push_back(std::move(sr));
  }
  report.guidelines = check_guidelines(report.scenarios, opts);
  return report;
}

}  // namespace nbctune::analyze
