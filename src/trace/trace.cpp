#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <ostream>
#include <string_view>
#include <type_traits>

namespace nbctune::trace {

std::string ScenarioKey::label() const {
  std::string out = op + " " + platform + " np" + std::to_string(nprocs) +
                    " " + std::to_string(bytes) + "B " +
                    (adcl ? "adcl:" : "fixed:") + impl;
  if (!plan.empty()) out += "+plan=" + plan;
  if (!topo.empty()) out += "+topo=" + topo;
  return out;
}

const char* cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::Msg:
      return "msg";
    case Cat::Wire:
      return "wire";
    case Cat::Nbc:
      return "nbc";
    case Cat::Coll:
      return "coll";
    case Cat::Progress:
      return "progress";
    case Cat::Adcl:
      return "adcl";
  }
  return "?";
}

namespace {

constexpr std::string_view name_of(Kind k) noexcept { return row(k).name; }

/// Every kind, sorted by Chrome name; kinds sharing a name stay in
/// schema order.
constexpr auto kKindsByName = [] {
  std::array<Kind, std::size(kKindRows)> kinds{};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    kinds[i] = static_cast<Kind>(i);
  }
  std::ranges::sort(kinds, [](Kind a, Kind b) {
    return name_of(a) != name_of(b) ? name_of(a) < name_of(b) : a < b;
  });
  return kinds;
}();

}  // namespace

std::span<const Kind> kinds_named(std::string_view name) noexcept {
  const auto lo = std::ranges::lower_bound(kKindsByName, name, {}, name_of);
  auto hi = lo;
  while (hi != kKindsByName.end() && name_of(*hi) == name) ++hi;
  return {lo, hi};
}

void instant(double ts, std::int32_t track, Cat /*cat*/, const char* name,
             const char* akey, std::uint64_t aval, const char* /*bkey*/,
             std::uint64_t bval, std::uint64_t corr) {
  Tracer* t = current();
  if (t == nullptr) return;
  const std::span<const Kind> kinds = kinds_named(name);
  if (kinds.empty()) {
    t->count(Ctr::TraceDroppedEvents);
    return;
  }
  const auto keyed = std::ranges::find_if(kinds, [&](Kind k) {
    return akey != nullptr && row(k).akey != nullptr &&
           std::strcmp(row(k).akey, akey) == 0;
  });
  t->emit(Event{ts, -1.0, track, keyed != kinds.end() ? *keyed : kinds[0],
                aval, bval, corr});
}

const char* ctr_name(Ctr c) noexcept {
  switch (c) {
    case Ctr::EngineEventsScheduled:
      return "engine.events_scheduled";
    case Ctr::EngineEventsFired:
      return "engine.events_fired";
    case Ctr::EngineEventsCancelled:
      return "engine.events_cancelled";
    case Ctr::EngineNowFifoHits:
      return "engine.now_fifo_hits";
    case Ctr::FiberSwitches:
      return "fiber.switches";
    case Ctr::MsgsEager:
      return "msg.eager";
    case Ctr::MsgsRts:
      return "msg.rts";
    case Ctr::MsgsCts:
      return "msg.cts";
    case Ctr::MsgsBulkChunks:
      return "msg.bulk_chunks";
    case Ctr::MsgsNicBulks:
      return "msg.nic_bulks";
    case Ctr::BytesOnWire:
      return "wire.bytes";
    case Ctr::NbcRoundsPosted:
      return "nbc.rounds_posted";
    case Ctr::NbcOpsStarted:
      return "nbc.ops_started";
    case Ctr::NbcOpsCompleted:
      return "nbc.ops_completed";
    case Ctr::CollSchedulesBuilt:
      return "coll.schedules_built";
    case Ctr::ProgressPasses:
      return "progress.passes";
    case Ctr::ProgressCallsExplicit:
      return "progress.explicit_calls";
    case Ctr::AdclBatchesScored:
      return "adcl.batches_scored";
    case Ctr::AdclDecisions:
      return "adcl.decisions";
    case Ctr::AdclSamplesSeen:
      return "adcl.samples_seen";
    case Ctr::AdclSamplesFiltered:
      return "adcl.samples_filtered";
    case Ctr::AdclEliminations:
      return "adcl.eliminations";
    case Ctr::AdclRetunes:
      return "adcl.retunes";
    case Ctr::AdclGuidelinePrunes:
      return "adcl.guideline_prunes";
    case Ctr::FaultDrops:
      return "fault.drops";
    case Ctr::FaultDups:
      return "fault.dups";
    case Ctr::FaultDegradedMsgs:
      return "fault.degraded_msgs";
    case Ctr::FaultNicStalls:
      return "fault.nic_stalls";
    case Ctr::FaultStragglerBursts:
      return "fault.straggler_bursts";
    case Ctr::FaultStarvedPasses:
      return "fault.starved_passes";
    case Ctr::MsgsAcks:
      return "msg.acks";
    case Ctr::MsgsRetransmits:
      return "msg.retransmits";
    case Ctr::MsgsDupDeliveries:
      return "msg.dup_deliveries";
    case Ctr::MsgsSendFailures:
      return "msg.send_failures";
    case Ctr::NbcFallbacks:
      return "nbc.fallbacks";
    case Ctr::SimFibersCreated:
      return "sim.fibers_created";
    case Ctr::WorldPeakArenaBytes:
      return "world.peak_arena_bytes";
    case Ctr::RailPinnedMsgs:
      return "net.rail_pinned_msgs";
    case Ctr::RailAutoMsgs:
      return "net.rail_auto_msgs";
    case Ctr::TraceDroppedEvents:
      return "trace.dropped_events";
    case Ctr::MpiRankDeaths:
      return "mpi.rank_deaths";
    case Ctr::MpiShrinks:
      return "mpi.shrinks";
    case Ctr::NbcRebuilds:
      return "nbc.rebuilds";
    case Ctr::NbcOpsAborted:
      return "nbc.ops_aborted";
    case Ctr::kCount:
      break;
  }
  return "?";
}

const char* hist_name(Hist h) noexcept {
  switch (h) {
    case Hist::WireBytes:
      return "wire.bytes_per_transfer";
    case Hist::RoundsPerOp:
      return "nbc.rounds_per_op";
    case Hist::ScheduleRounds:
      return "coll.rounds_per_schedule";
    case Hist::ProgressPerOp:
      return "adcl.progress_calls_per_iteration";
    case Hist::SocketBytes:
      return "net.socket_bytes";
    case Hist::NodeBytes:
      return "net.node_bytes";
    case Hist::RackBytes:
      return "net.rack_bytes";
    case Hist::SystemBytes:
      return "net.system_bytes";
    case Hist::kCount:
      break;
  }
  return "?";
}

std::size_t Tracer::default_max_events() noexcept {
  // Read per construction (one getenv per scenario, noise at sweep
  // granularity) so tests and long-running drivers can adjust the cap
  // without re-launching.
  if (const char* env = std::getenv("NBCTUNE_TRACE_MAX_EVENTS")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 0;
}

void Tracer::record(Hist h, std::uint64_t v) noexcept {
  HistData& d = hists_[static_cast<std::size_t>(h)];
  // bucket 0: v == 0; bucket i >= 1: v in [2^(i-1), 2^i).
  std::size_t b = 0;
  for (std::uint64_t x = v; x != 0; x >>= 1) ++b;
  ++d.buckets[b];
  ++d.count;
  d.sum += v;
}

namespace {

thread_local std::vector<FinishedTrace>* tl_staging = nullptr;

std::atomic<bool> g_enabled{false};
std::atomic<Session::Listener*> g_listener{nullptr};

}  // namespace

// --------------------------------------------------------------- session

struct Session::Impl {
  mutable std::mutex mu;
  std::vector<FinishedTrace> traces;
};

Session::Impl& Session::impl() const {
  static Impl i;
  return i;
}

void Session::set_listener(Listener* l) noexcept {
  g_listener.store(l, std::memory_order_release);
}

Session::Listener* Session::listener() noexcept {
  return g_listener.load(std::memory_order_acquire);
}

bool Session::enabled() noexcept {
  return g_enabled.load(std::memory_order_acquire);
}

void Session::enable() { g_enabled.store(true, std::memory_order_release); }

Session& Session::instance() {
  static Session s;
  return s;
}

void Session::adopt(FinishedTrace t) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.mu);
  i.traces.push_back(std::move(t));
}

std::vector<FinishedTrace>* Session::set_staging(
    std::vector<FinishedTrace>* s) noexcept {
  std::vector<FinishedTrace>* prev = tl_staging;
  tl_staging = s;
  return prev;
}

void Session::finish(FinishedTrace t) {
  if (tl_staging != nullptr) {
    tl_staging->push_back(std::move(t));
    return;
  }
  if (enabled()) instance().adopt(std::move(t));
}

std::size_t Session::size() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.mu);
  return i.traces.size();
}

std::vector<FinishedTrace> Session::drain() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.mu);
  std::vector<FinishedTrace> out;
  out.swap(i.traces);
  return out;
}

std::uint64_t Session::total_events() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lk(i.mu);
  std::uint64_t n = 0;
  for (const auto& t : i.traces) n += t.events.size();
  return n;
}

std::string json_escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_fixed3(std::string& out, double v) {
  // Widest result: sign, the 309 integer digits of DBL_MAX, point and
  // three decimals.  On a shorter buffer to_chars fails with
  // value_too_large for large values and leaves the buffer unwritten.
  char buf[1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 3];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 3);
  out.append(buf, r.ptr);
}

namespace {

/// Chrome tid for a track id (tids should be non-negative integers).
int chrome_tid(std::int32_t track) {
  return track >= 0 ? track : 1000000 + (-1 - track);
}

/// The Chrome export formats into one byte buffer and hands it to the
/// stream in blocks of about this size.
constexpr std::size_t kChromeFlushBytes = std::size_t{1} << 20;

/// `v` in decimal; 20 bytes fit every 64-bit value, sign included.
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `,"<field>":<value>` for every key field: strings escaped, the rest
/// as integers (a bool as 0 / 1).
void append_key_args(std::string& out, const ScenarioKey& k) {
  ScenarioKey::for_each_field(k, [&](const char* name, const auto& v) {
    out += ",\"";
    out += name;
    out += "\":";
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
      out += '"';
      out += json_escaped(v);
      out += '"';
    } else {
      append_int(out, static_cast<std::int64_t>(v));
    }
  });
}

/// Simulated seconds as fixed-point microseconds (nanosecond resolution;
/// enough for LogGP-scale costs).
void append_us(std::string& out, double seconds) {
  append_fixed3(out, seconds * 1e6);
}

}  // namespace

void Session::write_chrome(std::ostream& os) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::string out;
  out.reserve(kChromeFlushBytes + 4096);
  const auto flush = [&] {
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (out.size() >= kChromeFlushBytes) flush();
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  std::vector<std::int32_t> tracks;
  for (std::size_t pid = 0; pid < im.traces.size(); ++pid) {
    const FinishedTrace& t = im.traces[pid];
    sep();
    out += "{\"ph\":\"M\",\"pid\":";
    append_int(out, pid);
    out += ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    out += json_escaped(t.label);
    out += '"';
    if (t.key) append_key_args(out, *t.key);
    out += "}}";
    sep();
    out += "{\"ph\":\"M\",\"pid\":";
    append_int(out, pid);
    out += ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":";
    append_int(out, pid);
    out += "}}";
    // Name every track that appears (ranks and per-node wire lanes).
    tracks.clear();
    for (const Event& e : t.events) tracks.push_back(e.track);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
    for (const std::int32_t tr : tracks) {
      sep();
      out += "{\"ph\":\"M\",\"pid\":";
      append_int(out, pid);
      out += ",\"tid\":";
      append_int(out, static_cast<std::uint64_t>(chrome_tid(tr)));
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      if (tr >= 0) {
        out += "rank ";
        append_int(out, static_cast<std::uint64_t>(tr));
      } else {
        out += "node ";
        append_int(out, static_cast<std::uint64_t>(-1 - tr));
        out += " wire";
      }
      out += "\"}}";
    }
    for (const Event& e : t.events) {
      sep();
      out += "{\"pid\":";
      append_int(out, pid);
      out += ",\"tid\":";
      append_int(out, static_cast<std::uint64_t>(chrome_tid(e.track)));
      const KindRow& r = row(e.kind);
      out += ",\"cat\":\"";
      out += cat_name(r.cat);
      out += "\",\"name\":\"";
      out += r.name;
      out += "\",\"ts\":";
      append_us(out, e.ts);
      if (e.is_span()) {
        out += ",\"ph\":\"X\",\"dur\":";
        append_us(out, e.dur);
      } else {
        out += ",\"ph\":\"i\",\"s\":\"t\"";
      }
      // Each argument the row has a key for, then a non-zero corr.
      bool any = false;
      const auto arg = [&](const char* key, std::uint64_t v) {
        out += any ? ",\"" : ",\"args\":{\"";
        any = true;
        out += key;
        out += "\":";
        append_int(out, v);
      };
      if (r.akey != nullptr) arg(r.akey, e.aval);
      if (r.bkey != nullptr) arg(r.bkey, e.bval);
      if (e.corr != 0) arg("corr", e.corr);
      if (any) out += '}';
      out += '}';
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  flush();
}

void Session::write_counters(std::ostream& os) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  os << "# nbctune trace counter dump\n";
  os << "scenarios " << im.traces.size() << "\n";
  std::uint64_t events = 0;
  for (const auto& t : im.traces) events += t.events.size();
  os << "trace_events " << events << "\n";
  // Lines are sorted by metric *name*, not enum declaration order, so
  // committed goldens survive enum reorders and insertions (see
  // docs/ARCHITECTURE.md for the format).
  std::vector<std::size_t> ctr_order(static_cast<std::size_t>(Ctr::kCount));
  for (std::size_t c = 0; c < ctr_order.size(); ++c) ctr_order[c] = c;
  std::sort(ctr_order.begin(), ctr_order.end(), [](std::size_t a, std::size_t b) {
    return std::string_view(ctr_name(static_cast<Ctr>(a))) <
           std::string_view(ctr_name(static_cast<Ctr>(b)));
  });
  for (std::size_t c : ctr_order) {
    std::uint64_t total = 0;
    for (const auto& t : im.traces) total += t.counts[c];
    os << "counter " << ctr_name(static_cast<Ctr>(c)) << " " << total << "\n";
  }
  std::vector<std::size_t> hist_order(static_cast<std::size_t>(Hist::kCount));
  for (std::size_t h = 0; h < hist_order.size(); ++h) hist_order[h] = h;
  std::sort(hist_order.begin(), hist_order.end(),
            [](std::size_t a, std::size_t b) {
              return std::string_view(hist_name(static_cast<Hist>(a))) <
                     std::string_view(hist_name(static_cast<Hist>(b)));
            });
  for (std::size_t h : hist_order) {
    HistData agg;
    for (const auto& t : im.traces) {
      const HistData& d = t.hists[h];
      agg.count += d.count;
      agg.sum += d.sum;
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        agg.buckets[b] += d.buckets[b];
      }
    }
    os << "hist " << hist_name(static_cast<Hist>(h)) << " count " << agg.count
       << " sum " << agg.sum << "\n";
    for (std::size_t b = 0; b < agg.buckets.size(); ++b) {
      if (agg.buckets[b] == 0) continue;
      os << "hist " << hist_name(static_cast<Hist>(h)) << " bucket " << b
         << " " << agg.buckets[b] << "\n";
    }
  }
}

// ----------------------------------------------------------------- scope

Scope::Scope(std::string label) {
  if (!Session::enabled()) return;
  tracer_ = std::make_unique<Tracer>(std::move(label));
  prev_ = set_current(tracer_.get());
  if (Session::Listener* l = Session::listener()) {
    l->on_scope_start(tracer_->label());
  }
}

Scope::Scope(ScenarioKey key) : Scope(key.label()) {
  if (tracer_) tracer_->key_ = std::move(key);
}

Scope::~Scope() {
  if (!tracer_) return;
  set_current(prev_);
  FinishedTrace f;
  f.label = std::move(tracer_->label_);
  f.key = std::move(tracer_->key_);
  f.events = std::move(tracer_->events_);
  f.counts = tracer_->counts_;
  f.hists = tracer_->hists_;
  // The listener sees the finished trace in completion order, before the
  // submission-order staging/adoption path takes ownership — this is the
  // live-streaming seam (src/obs).
  if (Session::Listener* l = Session::listener()) {
    l->on_scope_finish(f);
  }
  Session::finish(std::move(f));
}

}  // namespace nbctune::trace
