#include "analyze/chrome_reader.hpp"

#include "analyze/json_min.hpp"

#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace nbctune::analyze {

namespace {

using jsonmin::Value;

/// Invert trace.cpp's chrome_tid mapping.
std::int32_t track_of_tid(long long tid) {
  return tid >= 1000000 ? static_cast<std::int32_t>(-1 - (tid - 1000000))
                        : static_cast<std::int32_t>(tid);
}

/// True when `d` converts to the integer type T without overflow.
template <class T>
bool fits(double d) {
  return d >= static_cast<double>(std::numeric_limits<T>::min()) &&
         d < static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
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
    } else if (v == nullptr || v->kind != Value::Kind::Num ||
               !fits<T>(v->num)) {
      complete = false;
    } else {
      field = static_cast<T>(v->num);
    }
  });
  if (!complete) return std::nullopt;
  return k;
}

/// A view of `s` that outlives the parse tree: its copy in `store`.
std::string_view intern(NameStore& store, std::string_view s) {
  auto it = store.find(s);
  if (it == store.end()) it = store.emplace(s).first;
  return *it;
}

}  // namespace

std::vector<ScenarioTrace> read_chrome(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  const Value root = jsonmin::parse(text);
  const Value* events = root.get("traceEvents");
  if (events == nullptr || events->kind != Value::Kind::Arr) {
    throw std::runtime_error("chrome trace: no traceEvents array");
  }
  auto names = std::make_shared<NameStore>();
  std::map<long long, ScenarioTrace> by_pid;  // ordered = export order
  for (const Value& ev : *events->arr) {
    if (ev.kind != Value::Kind::Obj) continue;
    const Value* pid = ev.get("pid");
    if (pid == nullptr) continue;
    const long long p = static_cast<long long>(pid->as_num(-1));
    ScenarioTrace& t = by_pid[p];
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
    AEvent a;
    a.name = intern(*names, ename);
    if (const Value* cat = ev.get("cat");
        cat != nullptr && cat->kind == Value::Kind::Str) {
      a.cat = intern(*names, cat->str);
    }
    if (const Value* tid = ev.get("tid"); tid != nullptr) {
      a.track = track_of_tid(static_cast<long long>(tid->as_num(0)));
    }
    if (const Value* ts = ev.get("ts"); ts != nullptr) {
      a.ts = ts->as_num(0) * 1e-6;  // exported in microseconds
    }
    if (phase == "X") {
      if (const Value* dur = ev.get("dur"); dur != nullptr) {
        a.dur = dur->as_num(0) * 1e-6;
      } else {
        a.dur = 0.0;
      }
    }
    if (args != nullptr && args->kind == Value::Kind::Obj) {
      for (const auto& [k, v] : *args->obj) {
        const std::uint64_t u = static_cast<std::uint64_t>(v.as_num(0));
        if (k == "corr") {
          a.corr = u;
        } else if (a.akey.empty()) {
          a.akey = intern(*names, k);
          a.aval = u;
        } else if (a.bkey.empty()) {
          a.bkey = intern(*names, k);
          a.bval = u;
        }
      }
    }
    t.events.push_back(std::move(a));
  }
  std::vector<ScenarioTrace> out;
  out.reserve(by_pid.size());
  for (auto& [p, t] : by_pid) {
    t.names = names;
    out.push_back(std::move(t));
  }
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
