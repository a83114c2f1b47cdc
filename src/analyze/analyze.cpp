#include "analyze/analyze.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "net/platform.hpp"
#include "trace/trace.hpp"

namespace nbctune::analyze {

using trace::Event;
using trace::Kind;

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

std::uint64_t counter(const trace::FinishedTrace& t, trace::Ctr c) {
  return t.counts[static_cast<std::size_t>(c)];
}

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

/// No wire span: the end of a message's chain.
constexpr std::uint32_t kNoWire = UINT32_MAX;

/// One wire transfer reconstructed from its correlation id.
struct MsgInfo {
  std::uint64_t corr = 0;
  double post_ts = -1.0;
  double arrival_ts = -1.0;  ///< msg.deliver / msg.complete on the receiver
  int post_track = -1;
  int arrival_track = -1;
  /// Serialization spans on wire lanes: a chain through Index::wire, in
  /// emission order.
  std::uint32_t first_wire = kNoWire;
  std::uint32_t last_wire = kNoWire;
};

/// One wire span and the next span of its message.
struct WireLink {
  Interval iv;
  std::uint32_t next = kNoWire;
};

/// A message that landed on a rank.
struct Inbound {
  double arrival = 0.0;
  std::uint64_t corr = 0;
  std::uint32_t msg = 0;  ///< index into Index::msgs
};

/// Per-rank sorted event digests used for window queries.
struct RankIndex {
  SortedIntervals compute;              ///< compute spans
  SortedIntervals progress;             ///< progress.call/pass spans
  std::vector<double> activity_starts;  ///< progress starts + round posts
  std::vector<Inbound> inbound;         ///< sorted by (arrival, corr)
};

struct OpSpan {
  std::uint64_t corr = 0;
  int rank = -1;
  double ts = 0.0;
  double dur = 0.0;
};

/// Everything the per-op analyses need, built in one pass over events.
/// Flat: messages, wire spans and nbc.op spans live in one vector each,
/// and ranks in slots.
struct Index {
  std::vector<MsgInfo> msgs;
  std::vector<WireLink> wire;
  /// Rank track -> slot in `ranks` (-1: the rank has no event).  Sized
  /// by the highest rank track, which Chrome's rank tids keep below
  /// kChromeWireTid, so the table stays under 4 MB.
  std::vector<std::int32_t> slot;
  std::vector<RankIndex> ranks;
  /// nbc.op spans by ascending corr, each corr's in emission order.
  std::vector<OpSpan> ops;
  std::uint64_t ops_started = 0;
  bool any_compute = false;

  /// The slot of rank `r`, which has an event in the scenario: every
  /// rank an nbc.op span or a message endpoint names does.
  [[nodiscard]] std::size_t slot_of(int r) const {
    return static_cast<std::size_t>(slot[static_cast<std::size_t>(r)]);
  }
  [[nodiscard]] const RankIndex& rank(int r) const {
    return ranks[slot_of(r)];
  }

  /// Call f(interval) for every wire span of `m`, in emission order.
  template <class F>
  void for_each_wire(const MsgInfo& m, F&& f) const {
    for (std::uint32_t w = m.first_wire; w != kNoWire; w = wire[w].next) {
      f(wire[w].iv);
    }
  }

  /// Call f(corr, spans) for every op, by ascending corr.
  template <class F>
  void for_each_op(F&& f) const {
    for (std::size_t i = 0; i < ops.size();) {
      std::size_t j = i + 1;
      while (j < ops.size() && ops[j].corr == ops[i].corr) ++j;
      f(ops[i].corr, std::span<const OpSpan>(ops).subspan(i, j - i));
      i = j;
    }
  }
};

Index build_index(const trace::FinishedTrace& t) {
  Index ix;
  std::unordered_map<std::uint64_t, std::uint32_t> msg_of;  // corr -> msgs
  const auto msg = [&](std::uint64_t corr) -> MsgInfo& {
    const auto [it, fresh] =
        msg_of.try_emplace(corr, static_cast<std::uint32_t>(ix.msgs.size()));
    if (fresh) ix.msgs.push_back({.corr = corr});
    return ix.msgs[it->second];
  };
  const auto rank = [&](std::int32_t track) -> RankIndex& {
    if (track >= trace::kChromeWireTid) {
      throw std::runtime_error(
          "analyze: scenario '" + t.label + "': rank track " +
          std::to_string(track) + " is outside Chrome's rank tids [0, " +
          std::to_string(trace::kChromeWireTid) + ")");
    }
    const auto r = static_cast<std::size_t>(track);
    if (r >= ix.slot.size()) ix.slot.resize(r + 1, -1);
    if (ix.slot[r] < 0) {
      ix.slot[r] = static_cast<std::int32_t>(ix.ranks.size());
      ix.ranks.emplace_back();
    }
    return ix.ranks[static_cast<std::size_t>(ix.slot[r])];
  };
  for (const Event& e : t.events) {
    if (e.track < 0) {
      if (e.is_span() && e.corr != 0) {
        MsgInfo& m = msg(e.corr);
        const auto w = static_cast<std::uint32_t>(ix.wire.size());
        ix.wire.push_back({{e.ts, e.ts + e.dur}, kNoWire});
        if (m.last_wire == kNoWire) {
          m.first_wire = w;
        } else {
          ix.wire[m.last_wire].next = w;
        }
        m.last_wire = w;
      }
      continue;
    }
    RankIndex& ri = rank(e.track);
    switch (e.kind) {
      case Kind::Compute:
        if (e.is_span()) {
          ri.compute.add({e.ts, e.ts + e.dur});
          ix.any_compute = true;
        }
        break;
      case Kind::ProgressCall:
      case Kind::ProgressPass:
        if (e.is_span()) {
          ri.progress.add({e.ts, e.ts + e.dur});
          ri.activity_starts.push_back(e.ts);
        }
        break;
      case Kind::NbcOp:
        if (e.is_span()) ix.ops.push_back({e.corr, e.track, e.ts, e.dur});
        break;
      case Kind::NbcStart:
        ++ix.ops_started;
        break;
      case Kind::NbcRound:
        ri.activity_starts.push_back(e.ts);
        break;
      case Kind::MsgEager:
      case Kind::MsgRts:
      case Kind::MsgCts:
      case Kind::MsgBulkNic:
        if (e.corr != 0) {
          MsgInfo& m = msg(e.corr);
          m.post_ts = e.ts;
          m.post_track = e.track;
        }
        break;
      case Kind::MsgDeliver:
      case Kind::MsgComplete:
        // msg.complete (payload landed) supersedes the control-path
        // deliver of the same transfer if both ever appear.
        if (e.corr != 0) {
          MsgInfo& m = msg(e.corr);
          m.arrival_ts = e.ts;
          m.arrival_track = e.track;
        }
        break;
      default:
        break;
    }
  }
  std::ranges::stable_sort(ix.ops, {}, &OpSpan::corr);
  for (RankIndex& ri : ix.ranks) {
    ri.compute.seal();
    ri.progress.seal();
    std::sort(ri.activity_starts.begin(), ri.activity_starts.end());
  }
  // Inbound lists need every message complete first; sort by (arrival,
  // corr) so the order does not depend on the message order.
  for (std::size_t i = 0; i < ix.msgs.size(); ++i) {
    const MsgInfo& m = ix.msgs[i];
    if (m.arrival_track >= 0) {
      ix.ranks[ix.slot_of(m.arrival_track)].inbound.push_back(
          {m.arrival_ts, m.corr, static_cast<std::uint32_t>(i)});
    }
  }
  for (RankIndex& ri : ix.ranks) {
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
                      std::span<const OpSpan> spans, int max_hops) {
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

  const RankIndex& ri = ix.rank(crit->rank);

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
    const MsgInfo& m = ix.msgs[it->msg];
    ix.for_each_wire(m, [&](const Interval& w) {
      const Interval c = clip(w, lo, hi);
      if (c.b > c.a) cats[kWire].push_back(c);
    });
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
    const RankIndex& cri = ix.rank(cur_rank);
    // The newest arrival at or before cur_t, if it is inside the window.
    auto last = std::upper_bound(
        cri.inbound.begin(), cri.inbound.end(), cur_t,
        [](double t, const Inbound& in) { return t < in.arrival; });
    if (last == cri.inbound.begin() || (--last)->arrival < lo) break;
    const MsgInfo* found = &ix.msgs[last->msg];
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
  // messages and sorted once.  Indexed by the ranks' slots.
  struct RankWork {
    std::vector<Interval> windows;
    SortedIntervals wire;
  };
  std::vector<RankWork> work(ix.ranks.size());
  for (const OpSpan& s : ix.ops) {
    work[ix.slot_of(s.rank)].windows.push_back({s.ts, s.ts + s.dur});
  }
  for (const MsgInfo& m : ix.msgs) {
    if (m.first_wire == kNoWire) continue;
    const auto add = [&](int rank) {
      if (rank < 0) return;
      RankWork& rw = work[ix.slot_of(rank)];
      if (rw.windows.empty()) return;
      ix.for_each_wire(m, [&](const Interval& w) { rw.wire.add(w); });
    };
    add(m.post_track);
    if (m.arrival_track != m.post_track) add(m.arrival_track);
  }
  std::vector<RankOverlap> out;
  std::vector<Interval> comp;
  std::vector<Interval> wire;
  for (std::size_t rank = 0; rank < ix.slot.size(); ++rank) {
    if (ix.slot[rank] < 0) continue;
    const auto slot = static_cast<std::size_t>(ix.slot[rank]);
    RankWork& rw = work[slot];
    if (rw.windows.empty()) continue;
    std::vector<Interval>& wins = rw.windows;
    std::sort(wins.begin(), wins.end(),
              [](const Interval& x, const Interval& y) { return x.a < y.a; });
    rw.wire.seal();
    RankOverlap ro;
    ro.rank = static_cast<int>(rank);
    ro.ops = wins.size();
    const RankIndex& ri = ix.ranks[slot];
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

AdclAudit analyze_adcl(const trace::FinishedTrace& t) {
  AdclAudit a;
  // Every rank emits the (identical, rank-agreed) adcl events; audit the
  // lowest participating track only.
  int track = -1;
  for (const Event& e : t.events) {
    if (trace::row(e.kind).cat == trace::Cat::Adcl && e.track >= 0 &&
        (track < 0 || e.track < track)) {
      track = e.track;
    }
  }
  if (track < 0) return a;
  a.present = true;
  for (const Event& e : t.events) {
    if (e.track != track) continue;
    switch (e.kind) {
      case Kind::AdclScore:  // func, score_ns
        a.scores.push_back({static_cast<int>(e.aval),
                            static_cast<double>(e.bval) * 1e-9,
                            static_cast<int>(e.corr)});
        break;
      case Kind::AdclDecision:  // winner, iter
        // Later decisions (drift re-tunes) supersede earlier ones.
        a.winner = static_cast<int>(e.aval);
        a.decision_iteration = static_cast<int>(e.bval);
        a.decision_ts = e.ts;
        break;
      case Kind::AdclRetuneDrift:
      case Kind::AdclRetuneShrink:
        ++a.retunes;
        break;
      case Kind::AdclEliminate: {  // attr, value
        AdclElimination el;
        el.attr = static_cast<int>(e.aval);
        el.value = static_cast<int>(e.bval);
        el.iteration = static_cast<int>(e.corr);
        a.eliminations.push_back(std::move(el));
        break;
      }
      case Kind::AdclPrune:  // func, bound_ns
        a.prunes.push_back({static_cast<int>(e.aval),
                            static_cast<double>(e.bval) * 1e-9,
                            static_cast<int>(e.corr)});
        break;
      case Kind::AdclEliminateFunc:  // func, kept
        // Emitted right after its adcl.eliminate; attach to the newest
        // record (several eliminations may share one iteration when
        // exhausted phases cascade).
        if (!a.eliminations.empty()) {
          a.eliminations.back().pruned.push_back(static_cast<int>(e.aval));
          a.eliminations.back().kept = static_cast<int>(e.bval);
        }
        break;
      default:
        break;
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
  a.samples_seen = counter(t, trace::Ctr::AdclSamplesSeen);
  a.samples_filtered = counter(t, trace::Ctr::AdclSamplesFiltered);
  return a;
}

// ----------------------------------------------------------- fault audit

/// Count injection/recovery events.  Injections (fault.*) are emitted
/// once globally per incident; recovery events (msg.*, nbc.fallback) are
/// per-rank, so the sums count incidents and rank-actions respectively.
FaultSummary analyze_faults(const trace::FinishedTrace& t) {
  std::array<std::uint64_t, std::size(trace::kKindRows)> n{};
  for (const Event& e : t.events) ++n[static_cast<std::size_t>(e.kind)];
  const auto count = [&](Kind k) { return n[static_cast<std::size_t>(k)]; };
  return {.drops = count(Kind::FaultDrop),
          .dups = count(Kind::FaultDup),
          .dup_deliveries = count(Kind::MsgDupDrop),
          .retransmits = count(Kind::MsgRetransmit),
          .send_failures = count(Kind::MsgSendFailure),
          .fallbacks = count(Kind::NbcFallback),
          .stragglers = count(Kind::FaultStraggler)};
}

// -------------------------------------------------------- recovery audit

/// Replay the fail-stop recovery timeline.  Events arrive in simulated
/// time order (one engine per scenario), so a single forward pass pairs
/// each death with its lease-detection, opens a shrink epoch at every
/// agreement that removed ranks (the "failed" argument is cumulative, so
/// growth marks a membership change), and closes it at the epoch's last
/// per-rank handle rebuild.
RecoverySummary analyze_recovery(const trace::FinishedTrace& t) {
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
  for (const Event& e : t.events) {
    switch (e.kind) {
      case Kind::MpiRankDeath:
        ++r.deaths;
        death_ts[e.track] = e.ts;
        if (pend_first_death < 0.0) pend_first_death = e.ts;
        break;
      case Kind::MpiFtDetect: {
        const auto it = death_ts.find(e.track);
        if (it != death_ts.end()) {
          det_sum += e.ts - it->second;
          ++det_n;
        }
        if (pend_first_detect < 0.0) pend_first_detect = e.ts;
        break;
      }
      case Kind::MpiFtAgree:  // epoch, failed
        if (e.bval > prev_failed) {
          prev_failed = e.bval;
          epochs.push_back({pend_first_death, pend_first_detect, e.ts, -1.0});
          pend_first_death = pend_first_detect = -1.0;
        }
        break;
      case Kind::NbcRebuild:
        ++r.rebuilds;
        if (!epochs.empty()) epochs.back().last_rebuild = e.ts;
        break;
      case Kind::NbcAbort:
        ++r.aborted_ops;
        break;
      default:
        break;
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

/// Keyed scenarios that agree on everything but a projected key field.
using Cells = std::vector<const ScenarioReport*>;
using Groups = std::map<trace::ScenarioKey, Cells>;

/// Order every group's cells by the key field `field` projects.
template <class Field>
void sort_groups(Groups& groups, Field field) {
  for (auto& [key, cells] : groups) {
    std::sort(cells.begin(), cells.end(),
              [&](const ScenarioReport* x, const ScenarioReport* y) {
                return field(*x->key) < field(*y->key);
              });
  }
}

/// The relative dip G4 and G6 forgive: protocol switches and topology
/// effects measured under noise.
constexpr double kMonotonicityTolerance = 0.05;

/// G4 and G6: op time is monotone non-decreasing in the key field
/// `field` projects, across each group sorted by it (sort_groups);
/// `at(key)` prints where a cell sits in that field.
template <class Field, class At>
GuidelineResult check_monotone(const char* id, const char* description,
                               const Groups& groups, Field field, At at) {
  GuidelineResult g;
  g.id = id;
  g.description = description;
  for (const auto& [key, cells] : groups) {
    for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
      const ScenarioReport& lo = *cells[i];
      const ScenarioReport& hi = *cells[i + 1];
      if (field(*lo.key) == field(*hi.key)) continue;
      ++g.checked;
      if (hi.mean_op_elapsed >=
          lo.mean_op_elapsed * (1.0 - kMonotonicityTolerance)) {
        ++g.passed;
      } else {
        std::string v = hi.label + ": ";
        fmt_ns(v, hi.mean_op_elapsed);
        v += at(*hi.key) + " < ";
        fmt_ns(v, lo.mean_op_elapsed);
        v += at(*lo.key);
        g.violations.push_back(std::move(v));
      }
    }
  }
  return g;
}

}  // namespace

std::vector<GuidelineResult> check_guidelines(
    std::span<const ScenarioReport> scenarios, const Options& opts) {
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
  // field(s): the member (G2/G3/G7), the message size (G4/G5, sorted by
  // size) or the process count (G6, sorted by count).
  Groups groups;       // G2/G3/G7
  Groups size_groups;  // G4/G5
  Groups rank_groups;  // G6
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
  const auto bytes = [](const trace::ScenarioKey& k) { return k.bytes; };
  const auto nprocs = [](const trace::ScenarioKey& k) { return k.nprocs; };
  sort_groups(size_groups, bytes);
  sort_groups(rank_groups, nprocs);

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
  out.push_back(check_monotone(
      "G4", "op time monotone non-decreasing in message size", size_groups,
      bytes, [](const trace::ScenarioKey& k) {
        return " at " + std::to_string(k.bytes) + "B";
      }));

  // G5: pattern-split mock-up (Hunold).  Splitting an operation into two
  // half-size instances is a valid alternative implementation, so the
  // full-size op may not cost more than twice the half-size op (plus
  // epsilon).  Checked for exact size doublings within a size group.
  {
    GuidelineResult g;
    g.id = "G5";
    g.description =
        "doubling the message size at most doubles op time (split mock-up)";
    for (const auto& [key, sorted] : size_groups) {
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
  out.push_back(check_monotone(
      "G6", "op time monotone non-decreasing in process count", rank_groups,
      nprocs, [](const trace::ScenarioKey& k) {
        return " at np" + std::to_string(k.nprocs);
      }));

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

// ---------------------------------------------------------------- driver

ScenarioReport analyze_scenario(const trace::FinishedTrace& t,
                                const Options& opts) {
  ScenarioReport sr;
  sr.label = t.label;
  sr.key = t.key;
  const Index ix = build_index(t);
  sr.ops_started = ix.ops_started;
  sr.zero_compute = !ix.any_compute;

  double op_sum = 0.0;
  std::uint64_t op_n = 0;
  for (const OpSpan& s : ix.ops) {
    op_sum += s.dur;
    ++op_n;
  }
  sr.ops_completed = op_n;
  sr.mean_op_elapsed = op_n > 0 ? op_sum / static_cast<double>(op_n) : 0.0;

  double worst_elapsed = -1.0;
  // One repetition sample per op instance: the critical rank's elapsed
  // time and blame partition ("MPI Benchmarking Revisited": statistics
  // are computed over repetitions, never pooled measurements).
  std::vector<double> elapsed_samples;
  std::vector<double> blame_samples[6];
  ix.for_each_op([&](std::uint64_t corr, std::span<const OpSpan> spans) {
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
  });
  sr.op_stats = order_stats(std::move(elapsed_samples));
  sr.blame_stats.compute = order_stats(std::move(blame_samples[0]));
  sr.blame_stats.progress = order_stats(std::move(blame_samples[1]));
  sr.blame_stats.wire = order_stats(std::move(blame_samples[2]));
  sr.blame_stats.late_sender = order_stats(std::move(blame_samples[3]));
  sr.blame_stats.missing_progress = order_stats(std::move(blame_samples[4]));
  sr.blame_stats.other = order_stats(std::move(blame_samples[5]));
  sr.min_reps_met =
      sr.op_stats.n >= static_cast<std::uint64_t>(std::max(opts.min_reps, 0));

  sr.ranks = analyze_overlap(ix);
  sr.adcl = analyze_adcl(t);
  sr.faults = analyze_faults(t);
  sr.recovery = analyze_recovery(t);
  sr.ops_aborted = sr.recovery.aborted_ops;
  sr.dropped_events = counter(t, trace::Ctr::TraceDroppedEvents);

  // Post-decision performance: ops starting after the decision event.
  sr.post_decision_op_elapsed = sr.mean_op_elapsed;
  if (sr.adcl.present && sr.adcl.winner >= 0) {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const OpSpan& s : ix.ops) {
      if (s.ts > sr.adcl.decision_ts) {
        sum += s.dur;
        ++n;
      }
    }
    if (n > 0) sr.post_decision_op_elapsed = sum / static_cast<double>(n);
  }
  return sr;
}

Report analyze(std::span<const trace::FinishedTrace> traces,
               const Options& opts) {
  Report report;
  report.scenarios.reserve(traces.size());
  for (const trace::FinishedTrace& t : traces) {
    if (const ScenarioReport* r = attached_report(t, opts)) {
      report.scenarios.push_back(*r);
    } else {
      report.scenarios.push_back(analyze_scenario(t, opts));
    }
  }
  report.guidelines = check_guidelines(report.scenarios, opts);
  return report;
}

// ------------------------------------------------------- attached report

namespace {

/// The 64 x 64 -> 128-bit product folded to 64 bits (high ^ low): the
/// mixing step of wyhash.
std::uint64_t mum(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// wyhash's secret constants.
constexpr std::uint64_t kSecret[4] = {
    0xa0761d6478bd642fULL, 0xe7037ed1a0b428dbULL, 0x8ebc6af09c88c6e3ULL,
    0x589965cc75374cc3ULL};

/// Three lanes, each folding one pair of words per step as
/// `lane = mum(a ^ secret[i], b ^ lane)`.  An event is three pairs, one
/// per lane, so its three multiplies do not wait on each other.
class Digest {
 public:
  void pair(int i, std::uint64_t a, std::uint64_t b) {
    lane_[i] = mum(a ^ kSecret[i], b ^ lane_[i]);
  }
  void word(std::uint64_t w) { pair(0, w, 0); }
  /// Length, then the bytes as little-endian words, zero-padded.
  void bytes(std::string_view s) {
    word(s.size());
    for (std::size_t at = 0; at < s.size(); at += 8) {
      std::uint64_t w = 0;
      for (std::size_t j = 0; j < 8 && at + j < s.size(); ++j) {
        w |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[at + j]))
             << (8 * j);
      }
      word(w);
    }
  }
  void event(const Event& e) {
    pair(0, std::bit_cast<std::uint64_t>(e.ts),
         std::bit_cast<std::uint64_t>(e.dur));
    pair(1,
         static_cast<std::uint32_t>(e.track) |
             static_cast<std::uint64_t>(e.kind) << 32,
         e.aval);
    pair(2, e.bval, e.corr);
  }
  [[nodiscard]] std::uint64_t value() const {
    return mum(lane_[0] ^ kSecret[3], lane_[1] ^ kSecret[0]) ^ lane_[2];
  }

 private:
  std::uint64_t lane_[3] = {kSecret[0], kSecret[1], kSecret[2]};
};

}  // namespace

std::uint64_t scenario_digest(const trace::FinishedTrace& t) {
  Digest d;
  d.bytes(t.label);
  d.word(t.key.has_value());
  if (t.key) {
    trace::ScenarioKey::for_each_field(
        *t.key, [&](const char*, const auto& field) {
          if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                       std::string>) {
            d.bytes(field);
          } else {
            d.word(static_cast<std::uint64_t>(field));
          }
        });
  }
  for (const std::uint64_t c : t.counts) d.word(c);
  d.word(t.events.size());
  for (const Event& e : t.events) d.event(e);
  return d.value();
}

/// A ScenarioReport riding on the trace it was computed from, with what
/// decides whether it still holds.  Only this file sees its members.
struct AttachedReport {
  Options opts;              ///< the options it was computed with
  std::uint64_t digest = 0;  ///< scenario_digest of the trace it came from
  ScenarioReport report;
};

std::shared_ptr<const ScenarioReport> attach_report(
    const trace::FinishedTrace& t, const Options& opts) {
  auto a = std::make_shared<const AttachedReport>(AttachedReport{
      opts, scenario_digest(t), analyze_scenario(t, opts)});
  t.attach(a);
  return {a, &a->report};  // shares ownership of the whole record
}

const ScenarioReport* attached_report(const trace::FinishedTrace& t,
                                      const Options& opts) {
  const AttachedReport* a = t.attached();
  if (a == nullptr || a->opts != opts || a->digest != scenario_digest(t)) {
    return nullptr;
  }
  return &a->report;
}

}  // namespace nbctune::analyze
