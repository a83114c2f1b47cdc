#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <ostream>
#include <ranges>
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

/// Every enumerator of a schema with N rows, sorted by `name`; rows
/// sharing a name stay in schema order.
template <class E, std::size_t N>
constexpr std::array<E, N> by_name(std::string_view (*name)(E) noexcept) {
  std::array<E, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<E>(i);
  std::ranges::sort(out, [&](E a, E b) {
    return name(a) != name(b) ? name(a) < name(b) : a < b;
  });
  return out;
}

constexpr auto kKindsByName = by_name<Kind, std::size(kKindRows)>(name_of);
/// The counter dump's line order, so committed goldens survive schema
/// reorders and insertions.
constexpr auto kCtrsByName =
    by_name<Ctr, static_cast<std::size_t>(Ctr::kCount)>(ctr_name);
constexpr auto kHistsByName =
    by_name<Hist, static_cast<std::size_t>(Hist::kCount)>(hist_name);

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

std::size_t Tracer::default_max_events() noexcept {
  // Read per construction (one getenv per scenario, noise at sweep
  // granularity) so tests and long-running drivers can adjust the cap
  // without re-launching.
  // Only a whole unsigned decimal counts: a sign, a space, an exponent,
  // an overflow or trailing text means no cap.
  if (const char* env = std::getenv("NBCTUNE_TRACE_MAX_EVENTS")) {
    const std::string_view s(env);
    std::size_t n = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
    if (ec == std::errc{} && end == s.data() + s.size()) return n;
  }
  return 0;
}

void Tracer::record(Hist h, std::uint64_t v) noexcept {
  HistData& d = trace_.hists[static_cast<std::size_t>(h)];
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

namespace {

/// Bit pattern of the first double past append_fixed3's integer path.
/// Non-negative doubles order like their bit patterns, so `bits < this`
/// selects exactly +0 <= v < 9e12: -0, negatives and NaN have larger
/// patterns.
constexpr std::uint64_t kFixed3FastEnd = std::bit_cast<std::uint64_t>(9e12);

/// round-half-even(1000 * v), computed from the exact binary value of
/// the double v with pattern `bits < kFixed3FastEnd`.  v = m * 2^-s with
/// an integer mantissa m < 2^53, so 1000 * m < 2^63 is exact and the
/// decimal rounding is a shift with its remainder: the rule printf
/// applies to the exact value.  9e12 < 2^44, so s >= 9; the path needs
/// only s >= 1 (v < 2^52).
std::uint64_t thousandths(std::uint64_t bits) {
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  const auto biased = static_cast<int>(bits >> 52);
  const std::uint64_t m =
      biased == 0 ? bits : (bits & kFraction) | (kFraction + 1);
  const int s = biased == 0 ? 1074 : 1075 - biased;
  // v < 2^53 * 2^-64, so 1000 * v < 2^10 * 2^-11 rounds to 0.
  if (s >= 64) return 0;
  const std::uint64_t x = m * 1000;
  const std::uint64_t q = x >> s;
  const std::uint64_t rem = x & ((std::uint64_t{1} << s) - 1);
  const std::uint64_t half = std::uint64_t{1} << (s - 1);
  return q + (rem > half || (rem == half && (q & 1) != 0) ? 1 : 0);
}

}  // namespace

void append_fixed3(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  if (bits < kFixed3FastEnd) {
    const std::uint64_t n = thousandths(bits);
    char buf[24];
    char* p = std::to_chars(buf, buf + 20, n / 1000).ptr;
    const auto frac = static_cast<unsigned>(n % 1000);
    p[0] = '.';
    p[1] = static_cast<char>('0' + frac / 100);
    p[2] = static_cast<char>('0' + frac / 10 % 10);
    p[3] = static_cast<char>('0' + frac % 10);
    out.append(buf, p + 4);
    return;
  }
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
  return track >= 0 ? track : kChromeWireTid + (-1 - track);
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

// The event writer opens "args" with the first argument key and only
// continues it with the second.
static_assert(std::ranges::none_of(kKindRows, [](const KindRow& r) {
  return r.akey == nullptr && r.bkey != nullptr;
}));

/// A kind's export text, rendered once from its row: everything an
/// event writes between its tid and its ts value, and the openers of
/// its arguments (empty when the row has no such key).
struct KindText {
  std::string head;  ///< ,"cat":"<cat>","name":"<name>","ts":
  std::string akey;  ///< ,"args":{"<akey>":
  std::string bkey;  ///< ,"<bkey>":
};

const std::array<KindText, std::size(kKindRows)>& kind_texts() {
  static const auto texts = [] {
    std::array<KindText, std::size(kKindRows)> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const KindRow& r = kKindRows[i];
      out[i].head = std::string(",\"cat\":\"") + cat_name(r.cat) +
                    "\",\"name\":\"" + std::string(r.name) + "\",\"ts\":";
      if (r.akey != nullptr) {
        out[i].akey = std::string(",\"args\":{\"") + r.akey + "\":";
      }
      if (r.bkey != nullptr) out[i].bkey = std::string(",\"") + r.bkey + "\":";
    }
    return out;
  }();
  return texts;
}

/// One scenario's tracks in ascending order, each with its event
/// prefix `{"pid":P,"tid":T`.
class TrackTable {
 public:
  /// Collect the tracks of `events` in one pass over a seen-table
  /// spanning [min, max] track, read in ascending order.  In-process
  /// the span is ranks plus nodes.
  void build(std::span<const Event> events, std::size_t pid) {
    tracks_.clear();
    slot_.clear();
    text_.clear();
    starts_.clear();
    if (events.empty()) return;
    const auto [lo, hi] = std::ranges::minmax(
        events | std::views::transform(&Event::track));
    lo_ = lo;
    const auto span = static_cast<std::uint64_t>(std::int64_t{hi} - lo) + 1;
    slot_.assign(span, -1);
    for (const Event& e : events) slot_[e.track - lo] = 0;
    for (std::uint64_t i = 0; i < span; ++i) {
      if (slot_[i] < 0) continue;
      slot_[i] = static_cast<std::int32_t>(tracks_.size());
      tracks_.push_back(
          static_cast<std::int32_t>(lo + static_cast<std::int64_t>(i)));
    }
    for (const std::int32_t tr : tracks_) {
      starts_.push_back(text_.size());
      text_ += "{\"pid\":";
      append_int(text_, pid);
      text_ += ",\"tid\":";
      append_int(text_, static_cast<std::uint64_t>(chrome_tid(tr)));
    }
    starts_.push_back(text_.size());
  }

  [[nodiscard]] std::span<const std::int32_t> tracks() const {
    return tracks_;
  }

  /// The event prefix of `track`, one of the tracks built from.
  [[nodiscard]] std::string_view prefix(std::int32_t track) const {
    const auto i = static_cast<std::size_t>(slot_[track - lo_]);
    return std::string_view(text_).substr(starts_[i],
                                          starts_[i + 1] - starts_[i]);
  }

 private:
  std::int32_t lo_ = 0;
  std::vector<std::int32_t> tracks_;  ///< ascending
  std::vector<std::int32_t> slot_;  ///< track - lo_ -> tracks_ index, or -1
  std::string text_;  ///< every prefix, back to back
  /// Prefix i is text_ from starts_[i] to starts_[i + 1].
  std::vector<std::size_t> starts_;
};

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
  const auto& kinds = kind_texts();
  TrackTable tracks;
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
    tracks.build(t.events, pid);
    for (const std::int32_t tr : tracks.tracks()) {
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
      const KindText& k = kinds[static_cast<std::size_t>(e.kind)];
      out += tracks.prefix(e.track);
      out += k.head;
      append_us(out, e.ts);
      if (e.is_span()) {
        out += ",\"ph\":\"X\",\"dur\":";
        append_us(out, e.dur);
      } else {
        out += ",\"ph\":\"i\",\"s\":\"t\"";
      }
      // Each argument the row has a key for, then a non-zero corr.
      const bool keyed = !k.akey.empty();
      if (keyed) {
        out += k.akey;
        append_int(out, e.aval);
        if (!k.bkey.empty()) {
          out += k.bkey;
          append_int(out, e.bval);
        }
      }
      if (e.corr != 0) {
        out += keyed ? ",\"corr\":" : ",\"args\":{\"corr\":";
        append_int(out, e.corr);
      }
      out += keyed || e.corr != 0 ? "}}" : "}";
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
  // Host counters stay out; lines go in name order (see
  // docs/ARCHITECTURE.md for the format).
  for (const Ctr c : kCtrsByName) {
    if (row(c).cls == CtrClass::Host) continue;
    std::uint64_t total = 0;
    for (const auto& t : im.traces) {
      total += t.counts[static_cast<std::size_t>(c)];
    }
    os << "counter " << ctr_name(c) << " " << total << "\n";
  }
  for (const Hist h : kHistsByName) {
    HistData agg;
    for (const auto& t : im.traces) {
      const HistData& d = t.hists[static_cast<std::size_t>(h)];
      agg.count += d.count;
      agg.sum += d.sum;
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        agg.buckets[b] += d.buckets[b];
      }
    }
    os << "hist " << hist_name(h) << " count " << agg.count << " sum "
       << agg.sum << "\n";
    for (std::size_t b = 0; b < agg.buckets.size(); ++b) {
      if (agg.buckets[b] == 0) continue;
      os << "hist " << hist_name(h) << " bucket " << b << " "
         << agg.buckets[b] << "\n";
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
  if (tracer_) tracer_->trace_.key = std::move(key);
}

Scope::~Scope() {
  if (!tracer_) return;
  set_current(prev_);
  FinishedTrace f = std::move(tracer_->trace_);
  // The listener sees the finished trace in completion order, before the
  // submission-order staging/adoption path takes ownership — this is the
  // live-streaming seam (src/obs).
  if (Session::Listener* l = Session::listener()) {
    l->on_scope_finish(f);
  }
  Session::finish(std::move(f));
}

}  // namespace nbctune::trace
