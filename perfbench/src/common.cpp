// Span recorder, counter aggregation and statistics helpers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"

namespace perfbench {

using nbctune::trace::Ctr;
using nbctune::trace::Hist;

// ------------------------------------------------------------------ spans

namespace {
thread_local int t_open_span = -1;
}

int Spans::current() { return t_open_span; }

int Spans::open(const char* name, int run, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = now_s();
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.run = run >= 0 || parent < 0 ? run : spans_[parent].run;
  spans_.push_back(s);
  return s.id;
}

void Spans::close(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = t;
}

std::vector<Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Spans::write(const std::string& path) const {
  const std::vector<Span> all = snapshot();
  // Self time: duration minus the union of direct children's intervals
  // (children of one span run on its thread, so they do not overlap,
  // except pool tasks, which the union handles).
  std::vector<std::vector<int>> kids(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) kids[s.parent].push_back(s.id);
  }
  std::map<std::string, std::pair<double, double>> by_name;  // total, self
  std::ofstream out(path);
  for (const Span& s : all) {
    std::vector<std::pair<double, double>> iv;
    for (int k : kids[s.id]) iv.emplace_back(all[k].start, all[k].end);
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double dur = s.end - s.start;
    const double self = std::max(0.0, dur - covered);
    by_name[s.name].first += dur;
    by_name[s.name].second += self;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\": \"%s\", \"id\": %d, \"parent\": %d, \"run\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}\n",
                  s.name, s.id, s.parent, s.run, s.start - all[0].start,
                  s.end - all[0].start, self);
    out << buf;
  }
  for (const auto& [name, ts] : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"summary\": \"%s\", \"total_s\": %.9f, \"self_s\": %.9f}\n",
                  name.c_str(), ts.first, ts.second);
    out << buf;
  }
}

SpanScope::SpanScope(Spans* s, const char* name, int run, int parent)
    : spans_(s) {
  if (spans_ == nullptr) return;
  prev_ = Spans::current();
  id_ = spans_->open(name, run, parent >= 0 ? parent : prev_);
  t_open_span = id_;
}

SpanScope::~SpanScope() {
  if (spans_ == nullptr) return;
  spans_->close(id_);
  t_open_span = prev_;
}

// ---------------------------------------------------------------- results

void Pass::fail(const std::string& what, std::size_t run) {
  bad.insert(run);
  if (failures.size() < 10) failures.push_back(what);
}

void CounterTotals::add(const nbctune::trace::FinishedTrace& t) {
  for (std::size_t i = 0; i < t.counts.size(); ++i) ctr[i] += t.counts[i];
  wire_transfers += t.hists[static_cast<std::size_t>(Hist::WireBytes)].count;
  events += t.events.size();
}

void layer_from_counters(const CounterTotals& c, Pass& p) {
  auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double msgs = static_cast<double>(c[Ctr::MsgsEager] + c[Ctr::MsgsRts] +
                                          c[Ctr::MsgsCts]);
  auto& l = p.layer;
  l["sim.events_fired"] = static_cast<double>(c[Ctr::EngineEventsFired]);
  l["sim.fiber_switches"] = static_cast<double>(c[Ctr::FiberSwitches]);
  l["sim.events_per_msg"] = share(c[Ctr::EngineEventsFired], msgs);
  l["sim.switches_per_msg"] = share(c[Ctr::FiberSwitches], msgs);
  l["sim.now_fifo_share"] =
      share(c[Ctr::EngineNowFifoHits], c[Ctr::EngineEventsScheduled]);
  l["sim.cancelled_share"] =
      share(c[Ctr::EngineEventsCancelled], c[Ctr::EngineEventsScheduled]);
  l["sim.fibers_created"] = static_cast<double>(c[Ctr::SimFibersCreated]);
  l["mpi.msgs"] = msgs;
  l["mpi.bulk_chunks"] = static_cast<double>(c[Ctr::MsgsBulkChunks]);
  l["mpi.nic_bulks"] = static_cast<double>(c[Ctr::MsgsNicBulks]);
  l["mpi.progress_passes"] = static_cast<double>(c[Ctr::ProgressPasses]);
  l["mpi.acks"] = static_cast<double>(c[Ctr::MsgsAcks]);
  l["mpi.retransmit_share"] = share(c[Ctr::MsgsRetransmits], msgs);
  l["mpi.dup_deliveries"] = static_cast<double>(c[Ctr::MsgsDupDeliveries]);
  l["mpi.send_failures"] = static_cast<double>(c[Ctr::MsgsSendFailures]);
  l["mpi.rank_deaths"] = static_cast<double>(c[Ctr::MpiRankDeaths]);
  l["mpi.shrinks"] = static_cast<double>(c[Ctr::MpiShrinks]);
  l["fault.drops"] = static_cast<double>(c[Ctr::FaultDrops]);
  l["fault.degraded_msgs"] = static_cast<double>(c[Ctr::FaultDegradedMsgs]);
  l["nbc.ops_started"] = static_cast<double>(c[Ctr::NbcOpsStarted]);
  l["nbc.ops_completed"] = static_cast<double>(c[Ctr::NbcOpsCompleted]);
  l["nbc.ops_aborted"] = static_cast<double>(c[Ctr::NbcOpsAborted]);
  l["nbc.rounds_per_op"] =
      share(c[Ctr::NbcRoundsPosted], c[Ctr::NbcOpsStarted]);
  l["nbc.fallbacks"] = static_cast<double>(c[Ctr::NbcFallbacks]);
  l["nbc.rebuilds"] = static_cast<double>(c[Ctr::NbcRebuilds]);
  l["coll.schedules_built"] = static_cast<double>(c[Ctr::CollSchedulesBuilt]);
  l["adcl.decisions"] = static_cast<double>(c[Ctr::AdclDecisions]);
  l["adcl.batches_scored"] = static_cast<double>(c[Ctr::AdclBatchesScored]);
  l["adcl.filtered_share"] =
      share(c[Ctr::AdclSamplesFiltered], c[Ctr::AdclSamplesSeen]);
  l["adcl.retunes"] = static_cast<double>(c[Ctr::AdclRetunes]);
  l["net.wire_bytes"] = static_cast<double>(c[Ctr::BytesOnWire]);
  l["net.wire_transfers"] = static_cast<double>(c.wire_transfers);
  l["trace.events"] =
      static_cast<double>(c.events + c[Ctr::TraceDroppedEvents]);
  l["trace.dropped_events"] = static_cast<double>(c[Ctr::TraceDroppedEvents]);
}

// ------------------------------------------------------------------ stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[i];
}

double tail(const std::vector<double>& v, double& pct) {
  pct = 0;
  double best = 0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      pct = p;
      best = percentile(v, p);
    }
  }
  return best;
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
