#include "obs/top.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "analyze/json_min.hpp"

namespace nbctune::obs {

namespace {

using analyze::jsonmin::Value;

/// True when every number in `v` lies in long long's range.  The live
/// stream writes only such integers, so a record failing this is skipped
/// as malformed, and the reads below never cast out of range.
bool integers_fit(const Value& v) {
  switch (v.kind) {
    case Value::Kind::Num:
      return v.as_int<long long>().has_value();
    case Value::Kind::Arr:
      return std::all_of(v.arr->begin(), v.arr->end(), integers_fit);
    case Value::Kind::Obj:
      return std::all_of(v.obj->begin(), v.obj->end(), [](const auto& kv) {
        return integers_fit(kv.second);
      });
    default:
      return true;
  }
}

long long num_i64(const Value* v) {
  return v == nullptr ? 0 : v->as_int<long long>().value_or(0);
}

std::uint64_t num_u64(const Value* v) {
  const long long n = num_i64(v);
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

std::string str_or(const Value* v, const char* fallback) {
  return v != nullptr && v->kind == Value::Kind::Str ? v->str : fallback;
}

std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f GiB", static_cast<double>(b) / (1024.0 * 1024 * 1024));
  } else if (b >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", static_cast<double>(b) / (1024.0 * 1024));
  } else if (b >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

std::string human_ms(long long ms) {
  char buf[32];
  if (ms >= 60000) {
    std::snprintf(buf, sizeof(buf), "%lldm%02llds", ms / 60000,
                  (ms % 60000) / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fs", static_cast<double>(ms) / 1e3);
  }
  return buf;
}

std::string human_us(long long ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f us", static_cast<double>(ns) / 1e3);
  return buf;
}

constexpr const char* kBlameNames[6] = {"compute",     "progress",
                                        "wire",        "late_sender",
                                        "missing_progress", "other"};

}  // namespace

bool TopState::feed_line(const std::string& line) {
  std::size_t a = 0;
  std::size_t b = line.size();
  while (a < b && (line[a] == ' ' || line[a] == '\t')) ++a;
  while (b > a && (line[b - 1] == ' ' || line[b - 1] == '\t' ||
                   line[b - 1] == '\r' || line[b - 1] == '\n')) {
    --b;
  }
  if (a >= b || line[a] != '{') return false;
  Value v;
  try {
    v = analyze::jsonmin::parse(line.substr(a, b - a));
  } catch (const std::exception&) {
    return false;  // foreign line (e.g. a bench table on shared stdout)
  }
  const Value* type = v.get("type");
  if (type == nullptr || type->kind != Value::Kind::Str ||
      !integers_fit(v)) {
    return false;
  }

  const long long seq = num_i64(v.get("seq"));
  if (seq <= last_seq_ && last_seq_ >= 0) ++seq_errors_;
  if (seq > last_seq_) last_seq_ = seq;
  const long long t_ms = num_i64(v.get("t_ms"));
  if (t_ms > last_t_ms_) last_t_ms_ = t_ms;

  if (type->str == "hello") {
    bench_ = str_or(v.get("bench"), "");
    threads_ = static_cast<int>(num_i64(v.get("threads")));
  } else if (type->str == "batch") {
    submitted_ += num_u64(v.get("tasks"));
  } else if (type->str == "scenario") {
    const std::string phase = str_or(v.get("phase"), "");
    if (phase == "started") {
      ++started_;
    } else if (phase == "failed") {
      ++failed_;
      if (failures_.size() < 4) {
        failures_.push_back("task " +
                            std::to_string(num_i64(v.get("index"))) + ": " +
                            str_or(v.get("error"), "?"));
      }
    } else if (phase == "finished") {
      ++finished_;
      recent_.push_back(str_or(v.get("label"), "?"));
      if (recent_.size() > 4) recent_.erase(recent_.begin());
      // Aggregate by the keyed scenario's op; "?" for unkeyed scenarios.
      OpAgg& agg = ops_[str_or(v.get("op"), "?")];
      ++agg.scenarios;
      agg.ops += num_u64(v.get("ops"));
      agg.median_sum_ns += num_i64(v.get("median_op_ns"));
      if (const Value* blame = v.get("blame_bp")) {
        for (int p = 0; p < 6; ++p) {
          agg.blame_bp_sum[p] += num_i64(blame->get(kBlameNames[p]));
        }
      }
      dropped_events_ += num_u64(v.get("dropped_events"));
      if (const Value* rec = v.get("recovery")) {
        ++recovery_.scenarios;
        recovery_.deaths += num_u64(rec->get("deaths"));
        recovery_.epochs += num_u64(rec->get("epochs"));
        recovery_.rebuilds += num_u64(rec->get("rebuilds"));
        recovery_.aborted_ops += num_u64(rec->get("aborted_ops"));
        recovery_.detection_sum_ns += num_i64(rec->get("detection_ns"));
        recovery_.ttr_sum_ns += num_i64(rec->get("time_to_recover_ns"));
      }
      if (const Value* g = v.get("guidelines")) {
        if (const Value* ids = g->get("ids");
            ids != nullptr && ids->kind == Value::Kind::Arr) {
          for (const Value& id : *ids->arr) {
            if (id.kind != Value::Kind::Str) continue;
            const std::size_t eq = id.str.find('=');
            if (eq == std::string::npos) continue;
            const std::string gid = id.str.substr(0, eq);
            const std::string st = id.str.substr(eq + 1);
            std::string& merged = guidelines_[gid];
            // FAIL is sticky; pass beats n/a; n/a only fills blanks.
            if (merged == "FAIL") continue;
            if (st == "FAIL" || st == "pass" || merged.empty()) merged = st;
          }
        }
      }
    }
  } else if (type->str == "sample") {
    gauges_.seen = true;
    if (const Value* p = v.get("pool")) {
      gauges_.pool_submitted = num_u64(p->get("submitted"));
      gauges_.pool_completed = num_u64(p->get("completed"));
      gauges_.pool_steals = num_u64(p->get("steals"));
      gauges_.pool_queued = num_u64(p->get("queued"));
      gauges_.pool_inflight = num_u64(p->get("inflight"));
    }
    if (const Value* t = v.get("trace")) {
      gauges_.trace_events = num_u64(t->get("events"));
      gauges_.trace_dropped = num_u64(t->get("dropped"));
    }
    if (const Value* e = v.get("exec")) {
      gauges_.fibers = num_u64(e->get("fibers"));
      gauges_.peak_arena_bytes = num_u64(e->get("peak_arena_bytes"));
    }
    gauges_.rss_bytes = num_u64(v.get("rss_bytes"));
  } else if (type->str == "summary") {
    status_ = str_or(v.get("status"), "ok");
  }
  return true;
}

long long TopState::eta_ms() const noexcept {
  if (done() || finished_ == 0 || submitted_ <= finished_) return -1;
  const double per = static_cast<double>(last_t_ms_) /
                     static_cast<double>(finished_);
  return static_cast<long long>(per *
                                static_cast<double>(submitted_ - finished_));
}

void TopState::render(std::ostream& os, bool ansi) const {
  const char* bold = ansi ? "\x1b[1m" : "";
  const char* dim = ansi ? "\x1b[2m" : "";
  const char* reset = ansi ? "\x1b[0m" : "";

  os << bold << "nbctune-top" << reset << " — "
     << (bench_.empty() ? "(waiting for stream)" : bench_);
  if (threads_ > 0) os << "  " << dim << threads_ << " thread(s)" << reset;
  if (done()) {
    if (ansi) os << (status_ == "ok" ? "  \x1b[32m" : "  \x1b[31m");
    os << (ansi ? "" : "  ") << "[" << status_ << "]" << reset;
  }
  os << "\n\n";

  // Progress bar over submitted scenarios.
  const std::uint64_t total = submitted_;
  const std::uint64_t fin = finished_;
  constexpr int kBarWidth = 32;
  int filled = 0;
  if (total > 0) {
    filled = static_cast<int>(fin * kBarWidth / total);
    if (filled > kBarWidth) filled = kBarWidth;
  }
  os << "  progress [";
  if (ansi) os << "\x1b[32m";
  for (int i = 0; i < filled; ++i) os << '#';
  if (ansi) os << reset;
  for (int i = filled; i < kBarWidth; ++i) os << '.';
  os << "] " << fin << "/" << total;
  const std::uint64_t running = started_ > fin ? started_ - fin : 0;
  if (running > 0) os << "  (" << running << " running)";
  os << "  elapsed " << human_ms(last_t_ms_);
  const long long eta = eta_ms();
  if (eta >= 0) os << "  eta ~" << human_ms(eta);
  os << "\n";

  if (gauges_.seen) {
    os << "  pool     submitted " << gauges_.pool_submitted << "  completed "
       << gauges_.pool_completed << "  inflight " << gauges_.pool_inflight
       << "  queued " << gauges_.pool_queued << "  steals "
       << gauges_.pool_steals << "\n";
    os << "  trace    events " << gauges_.trace_events << "  dropped "
       << gauges_.trace_dropped << "  fibers " << gauges_.fibers
       << "  peak arena " << human_bytes(gauges_.peak_arena_bytes)
       << "  rss " << human_bytes(gauges_.rss_bytes) << "\n";
  }
  if (dropped_events_ > 0) {
    if (ansi) os << "\x1b[31m";
    os << "  WARNING  " << dropped_events_
       << " trace event(s) dropped by the buffer cap — stats are lower "
          "bounds" << reset << "\n";
  }
  if (failed_ > 0) {
    if (ansi) os << "\x1b[31m";
    os << "  CRASHED  " << failed_
       << " scenario(s) threw — sweep continued, driver will exit nonzero"
       << reset << "\n";
    for (const std::string& f : failures_) {
      os << "    " << dim << f << reset << "\n";
    }
  }
  if (recovery_.scenarios > 0) {
    const long long n = static_cast<long long>(recovery_.scenarios);
    os << "\n  " << bold << "recovery" << reset << "  deaths "
       << recovery_.deaths << "  epochs " << recovery_.epochs
       << "  rebuilds " << recovery_.rebuilds << "  aborted ops "
       << recovery_.aborted_ops << "\n"
       << "           mean detect " << human_us(recovery_.detection_sum_ns / n)
       << "  mean time-to-recover " << human_us(recovery_.ttr_sum_ns / n)
       << "\n";
  }

  if (!ops_.empty()) {
    os << "\n  " << bold << "per-op" << reset << "\n";
    for (const auto& [op, agg] : ops_) {
      os << "    " << op << "  n=" << agg.scenarios << "  median "
         << human_us(agg.scenarios > 0
                         ? agg.median_sum_ns /
                               static_cast<long long>(agg.scenarios)
                         : 0);
      os << "  blame";
      for (int p = 0; p < 6; ++p) {
        const long long mean_bp =
            agg.scenarios > 0
                ? agg.blame_bp_sum[p] / static_cast<long long>(agg.scenarios)
                : 0;
        if (mean_bp <= 0) continue;
        char buf[48];
        std::snprintf(buf, sizeof(buf), " %s %.1f%%", kBlameNames[p],
                      static_cast<double>(mean_bp) / 100.0);
        os << buf;
      }
      os << "\n";
    }
  }

  if (!guidelines_.empty()) {
    os << "\n  " << bold << "guidelines" << reset << "  ";
    for (const auto& [id, st] : guidelines_) {
      if (ansi) {
        if (st == "FAIL") {
          os << "\x1b[41;97m " << id << " \x1b[0m ";
        } else if (st == "pass") {
          os << "\x1b[42;30m " << id << " \x1b[0m ";
        } else {
          os << "\x1b[100m " << id << " \x1b[0m ";
        }
      } else {
        os << "[" << id << ":" << st << "] ";
      }
    }
    os << "\n";
  }

  if (!recent_.empty() && !done()) {
    os << "\n  " << dim << "recent" << reset << "\n";
    for (const std::string& r : recent_) {
      os << "    " << dim << r << reset << "\n";
    }
  }
  if (seq_errors_ > 0) {
    os << "\n  " << dim << "(" << seq_errors_
       << " out-of-order seq field(s) — merged streams?)" << reset << "\n";
  }
}

}  // namespace nbctune::obs
