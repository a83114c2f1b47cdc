#include "analyze/chrome_reader.hpp"

#include "analyze/json_min.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <istream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nbctune::analyze {

namespace {

using jsonmin::Value;

/// Invert trace.cpp's chrome_tid mapping.
std::int32_t track_of_tid(std::int32_t tid) {
  return tid >= trace::kChromeWireTid ? -1 - (tid - trace::kChromeWireTid)
                                      : tid;
}

/// `v` as a T; a number outside T's range, or no number at all, is an
/// error naming event `index` and `field`.
template <std::integral T>
T checked(const Value& v, std::size_t index, const char* field) {
  if (const std::optional<T> n = v.as_int<T>()) return *n;
  throw std::runtime_error("chrome trace: event " + std::to_string(index) +
                           ": " + field + " is not an integer in range");
}

/// `v` as a finite double (0 when it is not a number); infinity, which
/// an out-of-range literal such as 1e999 parses to, is an error naming
/// event `index` and `field`.
double finite(const Value& v, std::size_t index, const char* field) {
  const double d = v.as_num(0);
  if (std::isfinite(d)) return d;
  throw std::runtime_error("chrome trace: event " + std::to_string(index) +
                           ": " + field + " is not a finite number");
}

/// Argument `key` of event `index` (0 when absent).
std::uint64_t arg(const Value* args, const char* key, std::size_t index) {
  const Value* v = args != nullptr ? args->get(key) : nullptr;
  return v != nullptr ? checked<std::uint64_t>(*v, index, key) : 0;
}

/// The ScenarioKey a process_name record's args carry, or nullopt when
/// any field is missing or out of range (an unkeyed scope or a pre-key
/// export).
std::optional<trace::ScenarioKey> key_of(const Value& args) {
  trace::ScenarioKey k;
  bool complete = true;
  trace::ScenarioKey::for_each_field(k, [&](const char* name, auto& field) {
    using T = std::decay_t<decltype(field)>;
    const Value* v = args.get(name);
    if constexpr (std::is_same_v<T, std::string>) {
      if (v == nullptr || v->kind != Value::Kind::Str) {
        complete = false;
      } else {
        field = v->str;
      }
    } else if (const std::optional<T> n =
                   v != nullptr ? v->as_int<T>() : std::nullopt) {
      field = *n;
    } else {
      complete = false;
    }
  });
  if (!complete) return std::nullopt;
  return k;
}

}  // namespace

std::vector<trace::FinishedTrace> read_chrome(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  const Value root = jsonmin::parse(text);
  const Value* events = root.get("traceEvents");
  if (events == nullptr || events->kind != Value::Kind::Arr) {
    throw std::runtime_error("chrome trace: no traceEvents array");
  }
  std::map<long long, trace::FinishedTrace> by_pid;  // ordered = export order
  for (std::size_t i = 0; i < events->arr->size(); ++i) {
    const Value& ev = (*events->arr)[i];
    if (ev.kind != Value::Kind::Obj) continue;
    const Value* pid = ev.get("pid");
    if (pid == nullptr) continue;
    trace::FinishedTrace& t = by_pid[checked<long long>(*pid, i, "pid")];
    const Value* ph = ev.get("ph");
    const std::string_view phase =
        ph != nullptr && ph->kind == Value::Kind::Str
            ? std::string_view(ph->str)
            : std::string_view();
    const Value* name = ev.get("name");
    const std::string_view ename =
        name != nullptr && name->kind == Value::Kind::Str
            ? std::string_view(name->str)
            : std::string_view();
    const Value* args = ev.get("args");
    if (phase == "M") {
      if (ename == "process_name" && args != nullptr) {
        if (const Value* n = args->get("name");
            n != nullptr && n->kind == Value::Kind::Str) {
          t.label = n->str;
        }
        t.key = key_of(*args);
      }
      continue;
    }
    const std::span<const trace::Kind> kinds = trace::kinds_named(ename);
    if (kinds.empty()) {
      // Outside the schema: not stored, but counted, so the report
      // flags the scenario as truncated.
      ++t.counts[static_cast<std::size_t>(trace::Ctr::TraceDroppedEvents)];
      continue;
    }
    trace::Event e;
    // A name two kinds share (adcl.retune) resolves to the kind whose
    // first argument the event carries.
    e.kind = kinds.front();
    for (const trace::Kind k : kinds) {
      const char* akey = trace::row(k).akey;
      if (akey != nullptr && args != nullptr && args->get(akey) != nullptr) {
        e.kind = k;
        break;
      }
    }
    if (const Value* tid = ev.get("tid"); tid != nullptr) {
      e.track = track_of_tid(checked<std::int32_t>(*tid, i, "tid"));
    }
    if (const Value* ts = ev.get("ts"); ts != nullptr) {
      e.ts = finite(*ts, i, "ts") * 1e-6;  // exported in microseconds
    }
    if (phase == "X") {
      const Value* dur = ev.get("dur");
      e.dur = dur != nullptr ? finite(*dur, i, "dur") * 1e-6 : 0.0;
    }
    const trace::KindRow& r = trace::row(e.kind);
    if (r.akey != nullptr) e.aval = arg(args, r.akey, i);
    if (r.bkey != nullptr) e.bval = arg(args, r.bkey, i);
    e.corr = arg(args, "corr", i);
    t.events.push_back(e);
  }
  std::vector<trace::FinishedTrace> out;
  out.reserve(by_pid.size());
  for (auto& [p, t] : by_pid) out.push_back(std::move(t));
  return out;
}

std::map<std::string, std::uint64_t> read_counters(std::istream& is) {
  std::map<std::string, std::uint64_t> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string w; ls >> w;) tok.push_back(std::move(w));
    if (tok.empty()) continue;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("counters: line " + std::to_string(line_no) +
                               ": " + what);
    };
    // Token i, which must be a whole unsigned 64-bit decimal number.
    const auto value = [&](std::size_t i) {
      if (i >= tok.size()) fail(tok[0] + " line has no value");
      std::uint64_t v = 0;
      const std::string& w = tok[i];
      const auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), v);
      if (ec != std::errc() || end != w.data() + w.size()) {
        fail("'" + w + "' is not an unsigned 64-bit integer");
      }
      return v;
    };
    // The line has exactly n tokens.
    const auto ends_at = [&](std::size_t n) {
      if (tok.size() > n) fail("unexpected '" + tok[n] + "'");
    };
    const std::string& kind = tok[0];
    if (kind == "counter") {
      if (tok.size() < 2) fail("counter line has no name");
      out[tok[1]] = value(2);
      ends_at(3);
    } else if (kind == "hist" && tok.size() >= 3 && tok[2] == "count") {
      // "hist <name> count <c> sum <s>" header lines only; per-bucket
      // lines ("hist <name> bucket <i> <n>") are skipped.
      if (tok.size() < 5 || tok[4] != "sum") fail("hist line has no sum");
      out[tok[1] + ".count"] = value(3);
      out[tok[1] + ".sum"] = value(5);
      ends_at(6);
    } else if (kind == "scenarios" || kind == "trace_events") {
      out[kind] = value(1);
      ends_at(2);
    }
  }
  return out;
}

}  // namespace nbctune::analyze
