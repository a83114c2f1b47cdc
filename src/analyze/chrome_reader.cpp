#include "analyze/chrome_reader.hpp"

#include "analyze/json_min.hpp"

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
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "counter") {
      std::string name;
      std::uint64_t v = 0;
      if (ls >> name >> v) out[name] = v;
    } else if (kind == "hist") {
      // "hist <name> count <c> sum <s>" header lines only; per-bucket
      // lines ("hist <name> bucket <i> <n>") are skipped.
      std::string name, f1, f2;
      std::uint64_t v1 = 0, v2 = 0;
      if (ls >> name >> f1 >> v1 >> f2 >> v2 && f1 == "count" &&
          f2 == "sum") {
        out[name + ".count"] = v1;
        out[name + ".sum"] = v2;
      }
    } else if (kind == "scenarios" || kind == "trace_events") {
      std::uint64_t v = 0;
      if (ls >> v) out[kind] = v;
    }
  }
  return out;
}

}  // namespace nbctune::analyze
