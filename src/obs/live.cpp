#include "obs/live.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "analyze/analyze.hpp"

namespace nbctune::obs {

namespace {

std::atomic<LiveSink*> g_signal_target{nullptr};

long long ns(double seconds) {
  return static_cast<long long>(std::llround(seconds * 1e9));
}

/// Share of `part` in `total` as basis points (0 when total is empty).
long long share_bp(double part, double total) {
  if (total <= 0.0) return 0;
  return static_cast<long long>(std::llround(part / total * 1e4));
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  s += buf;
}

void append_i64(std::string& s, long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  s += buf;
}

}  // namespace

std::uint64_t LiveSink::rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

LiveSink::LiveSink(const std::string& path, std::string bench, int threads)
    : bench_(std::move(bench)), t0_(std::chrono::steady_clock::now()) {
  if (path == "-") {
    fd_ = 1;  // stdout; nbctune-top skips interleaved non-JSON lines
    owns_fd_ = false;
  } else {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    owns_fd_ = fd_ >= 0;
  }
  if (fd_ < 0) return;
  std::string body = "{\"type\":\"hello\",\"schema\":\"nbctune-live-v1\"";
  body += ",\"bench\":\"" + trace::json_escaped(bench_) + "\"";
  body += ",\"threads\":";
  append_i64(body, threads);
  body += "}";
  write_line(std::move(body));
}

LiveSink::~LiveSink() {
  if (g_signal_target.load(std::memory_order_acquire) == this) {
    g_signal_target.store(nullptr, std::memory_order_release);
  }
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

long long LiveSink::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void LiveSink::write_line(std::string body) {
  if (fd_ < 0 || finalized_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (finalized_.load(std::memory_order_acquire)) return;
  // seq is assigned under the lock, immediately before the write, so the
  // numeric order equals the byte order of the stream.
  std::string line;
  line.reserve(body.size() + 32);
  const char* brace = body.c_str();
  // body starts with '{'; splice seq/t_ms right after it.
  line += '{';
  line += "\"seq\":";
  append_u64(line, seq_.fetch_add(1, std::memory_order_relaxed));
  line += ",\"t_ms\":";
  append_i64(line, now_ms());
  line += ',';
  line.append(brace + 1);
  line += '\n';
  // One write per line: concurrent writers to the same pipe never
  // interleave mid-record (and the SIGINT path reuses the same fd).
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t w = ::write(fd_, p, left);
    if (w <= 0) break;
    p += w;
    left -= static_cast<std::size_t>(w);
  }
}

void LiveSink::on_scope_start(const std::string& label) {
  started_.fetch_add(1, std::memory_order_relaxed);
  std::string body = "{\"type\":\"scenario\",\"phase\":\"started\"";
  body += ",\"label\":\"" + trace::json_escaped(label) + "\"}";
  write_line(std::move(body));
}

void LiveSink::on_scope_finish(const trace::FinishedTrace& t) {
  finished_.fetch_add(1, std::memory_order_relaxed);
  events_.fetch_add(t.events.size(), std::memory_order_relaxed);
  const auto ctr = [&](trace::Ctr c) {
    return t.counts[static_cast<std::size_t>(c)];
  };
  fibers_.fetch_add(ctr(trace::Ctr::SimFibersCreated),
                    std::memory_order_relaxed);
  dropped_.fetch_add(ctr(trace::Ctr::TraceDroppedEvents),
                     std::memory_order_relaxed);
  const std::uint64_t arena = ctr(trace::Ctr::WorldPeakArenaBytes);
  std::uint64_t prev = peak_arena_.load(std::memory_order_relaxed);
  while (arena > prev &&
         !peak_arena_.compare_exchange_weak(prev, arena,
                                            std::memory_order_relaxed)) {
  }

  // This worker analyzes the scenario once: the report rides the trace
  // (analyze::attach_report), so the terminal report reuses it, and the
  // record reads it plus the guideline pass over this one scenario.
  const std::shared_ptr<const analyze::ScenarioReport> report =
      analyze::attach_report(t);
  const analyze::ScenarioReport& s = *report;
  const std::vector<analyze::GuidelineResult> guidelines =
      analyze::check_guidelines(std::span(&s, 1));

  std::string body = "{\"type\":\"scenario\",\"phase\":\"finished\"";
  body += ",\"label\":\"" + trace::json_escaped(s.label) + "\"";
  if (s.key) body += ",\"op\":\"" + trace::json_escaped(s.key->op) + "\"";
  body += ",\"ops\":";
  append_u64(body, s.ops_completed);
  body += ",\"ops_started\":";
  append_u64(body, s.ops_started);
  body += ",\"mean_op_ns\":";
  append_i64(body, ns(s.mean_op_elapsed));
  body += ",\"median_op_ns\":";
  append_i64(body, ns(s.op_stats.median));
  body += ",\"op_ci_lo_ns\":";
  append_i64(body, ns(s.op_stats.lo));
  body += ",\"op_ci_hi_ns\":";
  append_i64(body, ns(s.op_stats.hi));
  body += std::string(",\"min_reps_met\":") +
          (s.min_reps_met ? "true" : "false");
  const double tot = s.blame.total();
  body += ",\"blame_bp\":{\"compute\":";
  append_i64(body, share_bp(s.blame.compute, tot));
  body += ",\"progress\":";
  append_i64(body, share_bp(s.blame.progress, tot));
  body += ",\"wire\":";
  append_i64(body, share_bp(s.blame.wire, tot));
  body += ",\"late_sender\":";
  append_i64(body, share_bp(s.blame.late_sender, tot));
  body += ",\"missing_progress\":";
  append_i64(body, share_bp(s.blame.missing_progress, tot));
  body += ",\"other\":";
  append_i64(body, share_bp(s.blame.other, tot));
  body += "}";
  if (s.adcl.present) {
    body += ",\"winner\":";
    append_i64(body, s.adcl.winner);
  }
  if (s.recovery.any()) {
    const analyze::RecoverySummary& rec = s.recovery;
    body += ",\"recovery\":{\"deaths\":";
    append_u64(body, rec.deaths);
    body += ",\"epochs\":";
    append_u64(body, rec.epochs);
    body += ",\"rebuilds\":";
    append_u64(body, rec.rebuilds);
    body += ",\"aborted_ops\":";
    append_u64(body, rec.aborted_ops);
    body += ",\"detection_ns\":";
    append_i64(body, ns(rec.detection));
    body += ",\"time_to_recover_ns\":";
    append_i64(body, ns(rec.time_to_recover));
    body += "}";
  }
  if (s.dropped_events > 0) {
    body += ",\"dropped_events\":";
    append_u64(body, s.dropped_events);
  }
  int checked = 0;
  int passed = 0;
  std::string ids = "[";
  for (std::size_t g = 0; g < guidelines.size(); ++g) {
    const analyze::GuidelineResult& gr = guidelines[g];
    checked += gr.checked;
    passed += gr.passed;
    if (g > 0) ids += ",";
    ids += "\"" + gr.id + "=" + gr.status() + "\"";
  }
  ids += "]";
  body += ",\"guidelines\":{\"checked\":";
  append_i64(body, checked);
  body += ",\"passed\":";
  append_i64(body, passed);
  body += ",\"status\":\"";
  body += checked == 0 ? "n/a" : (passed == checked ? "pass" : "FAIL");
  body += "\",\"ids\":" + ids + "}}";
  write_line(std::move(body));
}

void LiveSink::on_batch_begin(std::size_t tasks) {
  const std::uint64_t total =
      submitted_.fetch_add(tasks, std::memory_order_relaxed) + tasks;
  std::string body = "{\"type\":\"batch\",\"tasks\":";
  append_u64(body, tasks);
  body += ",\"total_submitted\":";
  append_u64(body, total);
  body += "}";
  write_line(std::move(body));
}

void LiveSink::on_task_failed(std::size_t index, const char* what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::string body = "{\"type\":\"scenario\",\"phase\":\"failed\"";
  body += ",\"index\":";
  append_u64(body, index);
  body += ",\"error\":\"" + trace::json_escaped(what) + "\"}";
  write_line(std::move(body));
}

void LiveSink::sample(const harness::PoolStats& pool) {
  std::string body = "{\"type\":\"sample\",\"pool\":{\"submitted\":";
  append_u64(body, pool.tasks_submitted);
  body += ",\"completed\":";
  append_u64(body, pool.tasks_completed);
  body += ",\"steals\":";
  append_u64(body, pool.steals);
  body += ",\"queued\":";
  append_u64(body, pool.queued);
  body += ",\"inflight\":";
  append_u64(body, pool.inflight);
  body += "},\"scenarios\":{\"started\":";
  append_u64(body, started_.load(std::memory_order_relaxed));
  body += ",\"finished\":";
  append_u64(body, finished_.load(std::memory_order_relaxed));
  body += ",\"failed\":";
  append_u64(body, failed_.load(std::memory_order_relaxed));
  body += "},\"trace\":{\"events\":";
  append_u64(body, events_.load(std::memory_order_relaxed));
  body += ",\"dropped\":";
  append_u64(body, dropped_.load(std::memory_order_relaxed));
  body += "},\"exec\":{\"fibers\":";
  append_u64(body, fibers_.load(std::memory_order_relaxed));
  body += ",\"peak_arena_bytes\":";
  append_u64(body, peak_arena_.load(std::memory_order_relaxed));
  body += "},\"rss_bytes\":";
  append_u64(body, rss_bytes());
  body += "}";
  write_line(std::move(body));
}

void LiveSink::write_summary(const analyze::Report& report,
                             const std::string& report_json) {
  std::string body = "{\"type\":\"summary\",\"status\":\"ok\"";
  body += ",\"scenarios\":";
  append_u64(body, report.scenarios.size());
  int checked = 0;
  int passed = 0;
  for (const analyze::GuidelineResult& g : report.guidelines) {
    checked += g.checked;
    passed += g.passed;
  }
  body += ",\"guidelines_checked\":";
  append_i64(body, checked);
  body += ",\"guidelines_passed\":";
  append_i64(body, passed);
  body += ",\"report\":\"" + trace::json_escaped(report_json) + "\"}";
  write_line(std::move(body));
  finalized_.store(true, std::memory_order_release);
}

LiveSink::Totals LiveSink::totals() const {
  Totals t;
  t.started = started_.load(std::memory_order_relaxed);
  t.finished = finished_.load(std::memory_order_relaxed);
  t.failed = failed_.load(std::memory_order_relaxed);
  t.submitted = submitted_.load(std::memory_order_relaxed);
  t.events = events_.load(std::memory_order_relaxed);
  t.fibers = fibers_.load(std::memory_order_relaxed);
  t.dropped = dropped_.load(std::memory_order_relaxed);
  t.peak_arena = peak_arena_.load(std::memory_order_relaxed);
  return t;
}

void LiveSink::install_signal_target(LiveSink* s) noexcept {
  g_signal_target.store(s, std::memory_order_release);
}

namespace {

/// Async-signal-safe unsigned decimal into buf; returns chars written.
std::size_t sig_format_u64(char* buf, std::uint64_t v) noexcept {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t sig_append(char* buf, std::size_t at, const char* lit) noexcept {
  std::size_t i = 0;
  while (lit[i] != '\0') buf[at + i] = lit[i], ++i;
  return at + i;
}

}  // namespace

void LiveSink::abort_from_signal() noexcept {
  LiveSink* s = g_signal_target.load(std::memory_order_acquire);
  if (s == nullptr || s->fd_ < 0) return;
  if (s->finalized_.exchange(true, std::memory_order_acq_rel)) return;
  // Everything below is async-signal-safe: atomics, a stack buffer, one
  // ::write.  No locks — a writer holding mu_ mid-record can at worst
  // leave one torn line *before* this record; the abort summary itself
  // is a single write.
  char buf[192];
  std::size_t at = sig_append(buf, 0, "{\"seq\":");
  at += sig_format_u64(buf + at,
                       s->seq_.fetch_add(1, std::memory_order_relaxed));
  at = sig_append(buf, at,
                  ",\"type\":\"summary\",\"status\":\"aborted\""
                  ",\"scenarios_finished\":");
  at += sig_format_u64(buf + at,
                       s->finished_.load(std::memory_order_relaxed));
  at = sig_append(buf, at, ",\"scenarios_submitted\":");
  at += sig_format_u64(buf + at,
                       s->submitted_.load(std::memory_order_relaxed));
  at = sig_append(buf, at, "}\n");
  const ssize_t ignored = ::write(s->fd_, buf, at);
  (void)ignored;
}

}  // namespace nbctune::obs
