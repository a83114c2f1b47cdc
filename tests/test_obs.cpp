// Live telemetry subsystem (src/obs): JSONL stream schema and seq
// monotonicity, terminal-summary byte-identity across pool thread
// counts, sampler/pool gauge arithmetic, the collapsed-stack exporter
// on the 2-rank ibcast fixture, the trace event cap, the
// async-signal-safe abort record, and the strict numeric flags of the
// bench drivers and tools.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/json_min.hpp"
#include "coll/ibcast.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/platform.hpp"
#include "../bench/bench_util.hpp"
#include "obs/flags.hpp"
#include "obs/live.hpp"
#include "obs/profile.hpp"
#include "obs/sampler.hpp"
#include "obs/top.hpp"
#include "testing_util.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
namespace t = nbctune::testing;
namespace jm = nbctune::analyze::jsonmin;

namespace {

/// Run an np-rank binomial ibcast `ops` times under the current tracer.
void run_ibcast(int nprocs, std::size_t bytes, int ops = 1,
                std::uint64_t seed = 1) {
  std::vector<std::byte> buf(bytes);
  t::run_world(net::whale(), nprocs, [&](mpi::Ctx& ctx) {
    nbc::Schedule s = coll::build_ibcast(ctx.world_rank(), nprocs,
                                        buf.data(), bytes, /*root=*/0,
                                        coll::kFanoutBinomial,
                                        /*seg_bytes=*/0);
    nbc::Handle h(ctx, ctx.world().comm_world(), &s, 1 << 20);
    for (int i = 0; i < ops; ++i) {
      h.start();
      h.wait();
    }
  }, /*noise_scale=*/0.0, seed);
}

struct Case {
  std::string label;
  int nprocs;
  std::size_t bytes;
  int ops;
};

std::vector<Case> sweep_cases() {
  return {{"ibcast whale np2 1024B fixed:binomial", 2, 1024, 3},
          {"ibcast whale np4 1024B fixed:binomial", 4, 1024, 3},
          {"ibcast whale np4 4096B fixed:binomial", 4, 4096, 3},
          {"ibcast whale np8 1024B fixed:binomial", 8, 1024, 2}};
}

/// Run the fixture sweep on a fresh pool, optionally streaming through
/// `sink`, and return the report JSON of the drained session (the bytes
/// --report=json would print).
std::string run_sweep(int threads, obs::LiveSink* sink) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  if (sink != nullptr) trace::Session::set_listener(sink);
  analyze::Report report;
  {
    harness::ScenarioPool pool(threads);
    if (sink != nullptr) pool.set_observer(sink);
    const std::vector<Case> cs = sweep_cases();
    pool.run_indexed(cs.size(), [&](std::size_t i) {
      trace::Scope scope(cs[i].label);
      run_ibcast(cs[i].nprocs, cs[i].bytes, cs[i].ops, /*seed=*/i + 1);
    });
  }
  trace::Session::set_listener(nullptr);
  report = analyze::analyze(trace::Session::instance().drain());
  std::ostringstream json;
  analyze::write_json(json, report);
  if (sink != nullptr) sink->write_summary(report, json.str());
  return json.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::vector<std::string> lines;
  std::string l;
  while (std::getline(is, l)) lines.push_back(l);
  return lines;
}

/// One analyzed 2-rank ibcast fixture trace (the test_analyze golden
/// scenario), for the profile exporters.
analyze::Report fixture_report(int ops = 4) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("ibcast whale np2 1024B fixed:binomial");
    run_ibcast(2, 1024, ops);
  }
  return analyze::analyze(trace::Session::instance().drain());
}

}  // namespace

// ------------------------------------------------------- stream schema

TEST(ObsLive, JsonlSchemaAndSeqMonotonicity) {
  const std::string path = ::testing::TempDir() + "obs_stream.jsonl";
  {
    obs::LiveSink sink(path, "test-sweep", 2);
    ASSERT_TRUE(sink.ok());
    run_sweep(2, &sink);
  }
  const std::vector<std::string> lines = read_lines(path);
  // hello + batch + 4 started + 4 finished + summary.
  ASSERT_EQ(lines.size(), 11u);
  long long prev_seq = -1;
  std::size_t scenarios_finished = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    jm::Value v;
    ASSERT_NO_THROW(v = jm::parse(lines[i])) << "line " << i;
    const jm::Value* seq = v.get("seq");
    ASSERT_NE(seq, nullptr);
    const long long s = static_cast<long long>(seq->as_num());
    EXPECT_GT(s, prev_seq) << "line " << i;
    prev_seq = s;
    const jm::Value* type = v.get("type");
    ASSERT_NE(type, nullptr);
    if (i == 0) {
      EXPECT_EQ(type->str, "hello");
      ASSERT_NE(v.get("schema"), nullptr);
      EXPECT_EQ(v.get("schema")->str, "nbctune-live-v1");
    }
    if (type->str == "scenario" && v.get("phase")->str == "finished") {
      ++scenarios_finished;
      for (const char* key : {"label", "ops", "mean_op_ns", "median_op_ns",
                              "blame_bp", "guidelines"}) {
        EXPECT_NE(v.get(key), nullptr) << key;
      }
      // Blame shares are basis points of a full partition.
      const jm::Value* blame = v.get("blame_bp");
      long long sum = 0;
      for (const char* k : {"compute", "progress", "wire", "late_sender",
                            "missing_progress", "other"}) {
        ASSERT_NE(blame->get(k), nullptr) << k;
        sum += static_cast<long long>(blame->get(k)->as_num());
      }
      EXPECT_NEAR(static_cast<double>(sum), 1e4, 3.0);
    }
    if (i + 1 == lines.size()) {
      EXPECT_EQ(type->str, "summary");
      EXPECT_EQ(v.get("status")->str, "ok");
      ASSERT_NE(v.get("report"), nullptr);
    }
  }
  EXPECT_EQ(scenarios_finished, sweep_cases().size());
}

TEST(ObsLive, SummaryByteIdenticalAcrossThreadCounts) {
  const std::string p1 = ::testing::TempDir() + "obs_t1.jsonl";
  const std::string p4 = ::testing::TempDir() + "obs_t4.jsonl";
  std::string direct1;
  std::string direct4;
  std::string embedded1;
  std::string embedded4;
  {
    obs::LiveSink sink(p1, "test-sweep", 1);
    direct1 = run_sweep(1, &sink);
  }
  {
    obs::LiveSink sink(p4, "test-sweep", 4);
    direct4 = run_sweep(4, &sink);
  }
  EXPECT_EQ(direct1, direct4);  // the analysis itself is order-stable
  const auto extract = [](const std::string& path) {
    std::string report;
    for (const std::string& line : read_lines(path)) {
      const jm::Value v = jm::parse(line);
      if (v.get("type")->str != "summary") continue;
      report = v.get("report")->str;  // jsonmin unescapes the embedding
    }
    return report;
  };
  embedded1 = extract(p1);
  embedded4 = extract(p4);
  // The embedded summary round-trips to the exact --report=json bytes.
  EXPECT_EQ(embedded1, direct1);
  EXPECT_EQ(embedded4, direct4);
  EXPECT_EQ(embedded1, embedded4);
}

TEST(ObsLive, FailedScenarioRecordKeepsSweepStreaming) {
  // Crash containment end to end: a throwing scenario body produces a
  // phase=failed record with the task index and error string, the rest
  // of the batch still streams its finished records, and only after the
  // drain does the pool rethrow to the driver.
  const std::string path = ::testing::TempDir() + "obs_failed.jsonl";
  {
    obs::LiveSink sink(path, "test-sweep", 2);
    ASSERT_TRUE(sink.ok());
    trace::Session::enable();
    (void)trace::Session::instance().drain();
    trace::Session::set_listener(&sink);
    harness::ScenarioPool pool(2);
    pool.set_observer(&sink);
    const std::vector<Case> cs = sweep_cases();
    EXPECT_THROW(
        pool.run_indexed(cs.size(),
                         [&](std::size_t i) {
                           if (i == 2) {
                             throw std::runtime_error("injected scenario bug");
                           }
                           trace::Scope scope(cs[i].label);
                           run_ibcast(cs[i].nprocs, cs[i].bytes, cs[i].ops,
                                      /*seed=*/i + 1);
                         }),
        std::runtime_error);
    trace::Session::set_listener(nullptr);
    (void)trace::Session::instance().drain();
    EXPECT_EQ(sink.totals().failed, 1u);
    EXPECT_EQ(sink.totals().finished, cs.size() - 1);
  }
  std::size_t failed_records = 0;
  std::size_t finished_records = 0;
  for (const std::string& line : read_lines(path)) {
    const jm::Value v = jm::parse(line);
    if (v.get("type")->str != "scenario") continue;
    const std::string phase = v.get("phase")->str;
    if (phase == "failed") {
      ++failed_records;
      ASSERT_NE(v.get("index"), nullptr);
      EXPECT_EQ(static_cast<long long>(v.get("index")->as_num()), 2);
      ASSERT_NE(v.get("error"), nullptr);
      EXPECT_EQ(v.get("error")->str, "injected scenario bug");
    } else if (phase == "finished") {
      ++finished_records;
    }
  }
  EXPECT_EQ(failed_records, 1u);
  EXPECT_EQ(finished_records, sweep_cases().size() - 1);
}

TEST(ObsLive, FinishedRecordCarriesRecoveryBlockUnderAKillPlan) {
  // A kill-plan scenario's finished record surfaces the RecoverySummary
  // so a watcher sees deaths and time-to-recover while the sweep runs.
  const std::string path = ::testing::TempDir() + "obs_recovery.jsonl";
  {
    obs::LiveSink sink(path, "test-sweep", 1);
    ASSERT_TRUE(sink.ok());
    trace::Session::enable();
    (void)trace::Session::instance().drain();
    trace::Session::set_listener(&sink);
    harness::MicroScenario s;
    s.platform = net::whale();
    s.nprocs = 16;
    s.op = harness::OpKind::Ialltoall;
    s.bytes = 64 * 1024;
    s.compute_per_iter = 2e-3;
    s.progress_calls = 3;
    s.iterations = 40;
    s.noise_scale = 0.0;
    s.seed = 42;
    s.fault_plan = "seed=31;kill=5@0.004;lease=2e-3";
    s.fault_plan_name = "kill1";
    adcl::TuningOptions opts;
    opts.policy = adcl::PolicyKind::BruteForce;
    opts.tests_per_function = 2;
    (void)harness::run_adcl(s, opts);
    trace::Session::set_listener(nullptr);
    (void)trace::Session::instance().drain();
  }
  bool saw_recovery = false;
  for (const std::string& line : read_lines(path)) {
    const jm::Value v = jm::parse(line);
    if (v.get("type")->str != "scenario" ||
        v.get("phase")->str != "finished") {
      continue;
    }
    const jm::Value* rec = v.get("recovery");
    ASSERT_NE(rec, nullptr);
    saw_recovery = true;
    EXPECT_EQ(static_cast<long long>(rec->get("deaths")->as_num()), 1);
    EXPECT_EQ(static_cast<long long>(rec->get("epochs")->as_num()), 1);
    EXPECT_GT(rec->get("rebuilds")->as_num(), 0.0);
    EXPECT_GT(rec->get("aborted_ops")->as_num(), 0.0);
    // Detection latency is the lease (2 ms) by construction.
    EXPECT_EQ(static_cast<long long>(rec->get("detection_ns")->as_num()),
              2000000);
    EXPECT_GT(rec->get("time_to_recover_ns")->as_num(), 2e6);
  }
  EXPECT_TRUE(saw_recovery);
}

namespace {

/// A keyed verification sweep (every fixed 4-rank Ialltoall member and
/// both ADCL policies, at two message sizes) on a `threads`-worker pool
/// streaming into `sink`; returns the session's traces.
std::vector<trace::FinishedTrace> keyed_live_sweep(int threads,
                                                   obs::LiveSink& sink) {
  harness::MicroScenario s;
  s.platform = net::whale();
  s.nprocs = 4;
  s.op = harness::OpKind::Ialltoall;
  s.compute_per_iter = 1e-4;
  s.iterations = 8;
  s.progress_calls = 2;
  s.noise_scale = 0.0;
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  trace::Session::set_listener(&sink);
  {
    harness::ScenarioPool pool(threads);
    pool.set_observer(&sink);
    for (const std::size_t bytes : {1024, 2048}) {
      s.bytes = bytes;
      (void)harness::run_verification(s, /*tests_per_function=*/1, &pool);
    }
  }
  trace::Session::set_listener(nullptr);
  return trace::Session::instance().drain();
}

std::string report_json(std::span<const trace::FinishedTrace> traces) {
  std::ostringstream os;
  analyze::write_json(os, analyze::analyze(traces));
  return os.str();
}

}  // namespace

TEST(ObsLive, KeyedSweepReportEqualsAFreshAnalysis) {
  // The live sink analyzes each scenario in its worker and attaches the
  // report; the terminal analysis reuses it.  Its bytes equal analyzing
  // copies that carry no report, at one worker and at four.
  std::string json[2];
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    obs::LiveSink sink(::testing::TempDir() + "obs_keyed.jsonl", "keyed",
                       threads);
    ASSERT_TRUE(sink.ok());
    const std::vector<trace::FinishedTrace> traces =
        keyed_live_sweep(threads, sink);
    ASSERT_GE(traces.size(), 8u);
    std::vector<trace::FinishedTrace> fresh;
    for (const trace::FinishedTrace& t : traces) {
      ASSERT_TRUE(t.key.has_value()) << t.label;
      EXPECT_NE(analyze::attached_report(t), nullptr) << t.label;
      trace::FinishedTrace c;
      c.label = t.label;
      c.key = t.key;
      c.events = t.events;
      c.counts = t.counts;
      c.hists = t.hists;
      EXPECT_EQ(c.attached(), nullptr);
      fresh.push_back(std::move(c));
    }
    json[threads == 1 ? 0 : 1] = report_json(traces);
    EXPECT_EQ(report_json(traces), report_json(fresh));
    // The comparative guidelines ran over the keyed groups.
    const analyze::Report r = analyze::analyze(traces);
    ASSERT_EQ(r.guidelines[1].id, "G2");
    EXPECT_EQ(r.guidelines[1].checked, 4);
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(ObsLive, FinishedRecordsAgreeWithTheReport) {
  const std::string path = ::testing::TempDir() + "obs_agree.jsonl";
  analyze::Report report;
  {
    obs::LiveSink sink(path, "agree", 4);
    ASSERT_TRUE(sink.ok());
    report = analyze::analyze(keyed_live_sweep(4, sink));
  }
  std::map<std::string, const analyze::ScenarioReport*> by_label;
  for (const analyze::ScenarioReport& s : report.scenarios) {
    ASSERT_TRUE(by_label.emplace(s.label, &s).second) << s.label;
  }
  const auto ns = [](double seconds) {
    return static_cast<long long>(std::llround(seconds * 1e9));
  };
  std::size_t finished = 0;
  std::size_t tuned = 0;
  for (const std::string& line : read_lines(path)) {
    const jm::Value v = jm::parse(line);
    if (v.get("type")->str != "scenario" ||
        v.get("phase")->str != "finished") {
      continue;
    }
    ++finished;
    const std::string label = v.get("label")->str;
    SCOPED_TRACE(label);
    ASSERT_EQ(by_label.count(label), 1u);
    const analyze::ScenarioReport& s = *by_label.at(label);
    EXPECT_EQ(v.get("op")->str, s.key->op);
    EXPECT_EQ(v.get("ops")->as_int<std::uint64_t>(), s.ops_completed);
    EXPECT_EQ(v.get("ops_started")->as_int<std::uint64_t>(), s.ops_started);
    EXPECT_EQ(v.get("mean_op_ns")->as_int<long long>(),
              ns(s.mean_op_elapsed));
    EXPECT_EQ(v.get("median_op_ns")->as_int<long long>(),
              ns(s.op_stats.median));
    EXPECT_EQ(v.get("min_reps_met")->b, s.min_reps_met);
    if (s.adcl.present) {
      ++tuned;
      ASSERT_NE(v.get("winner"), nullptr);
      EXPECT_EQ(v.get("winner")->as_int<int>(), s.adcl.winner);
    } else {
      EXPECT_EQ(v.get("winner"), nullptr);
    }
    // The one-scenario guideline pass: G1 is the ledger of this report.
    const bool ledger = s.ops_started == s.ops_completed + s.ops_aborted;
    EXPECT_EQ(v.get("guidelines")->get("status")->str,
              ledger ? "pass" : "FAIL");
  }
  EXPECT_EQ(finished, report.scenarios.size());
  EXPECT_EQ(tuned, 4u);
}

TEST(ObsLive, EscapeRoundTripsThroughJsonMin) {
  const std::string nasty =
      "line1\nline2\t\"quoted\\path\"\r{json:1}\x01\x1f";
  const std::string wrapped =
      "{\"s\":\"" + trace::json_escaped(nasty) + "\"}";
  const jm::Value v = jm::parse(wrapped);
  ASSERT_NE(v.get("s"), nullptr);
  EXPECT_EQ(v.get("s")->str, nasty);
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(jm::parse("\"\\u0041\\u00e9\\u20AC\"").str,
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_THROW(jm::parse("\"\\u00g1\""), std::runtime_error);
}

// ---------------------------------------------------- gauge arithmetic

TEST(ObsSampler, PoolAndSinkGaugeArithmetic) {
  const std::string path = ::testing::TempDir() + "obs_gauges.jsonl";
  obs::LiveSink sink(path, "test-sweep", 2);
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  trace::Session::set_listener(&sink);
  harness::ScenarioPool pool(2);
  pool.set_observer(&sink);
  const std::vector<Case> cs = sweep_cases();
  pool.run_indexed(cs.size(), [&](std::size_t i) {
    trace::Scope scope(cs[i].label);
    run_ibcast(cs[i].nprocs, cs[i].bytes, cs[i].ops, /*seed=*/i + 1);
  });
  trace::Session::set_listener(nullptr);

  const harness::PoolStats st = pool.stats();
  EXPECT_EQ(st.tasks_submitted, cs.size());
  EXPECT_EQ(st.tasks_completed, cs.size());
  EXPECT_EQ(st.inflight, 0u);
  EXPECT_EQ(st.queued, 0u);

  const obs::LiveSink::Totals tot = sink.totals();
  EXPECT_EQ(tot.submitted, cs.size());
  EXPECT_EQ(tot.started, cs.size());
  EXPECT_EQ(tot.finished, cs.size());
  EXPECT_EQ(tot.dropped, 0u);
  // Cross-check event/fiber totals against the drained traces.
  std::uint64_t events = 0;
  std::uint64_t fibers = 0;
  std::uint64_t arena_max = 0;
  for (const trace::FinishedTrace& f : trace::Session::instance().drain()) {
    events += f.events.size();
    fibers +=
        f.counts[static_cast<std::size_t>(trace::Ctr::SimFibersCreated)];
    arena_max = std::max(
        arena_max,
        f.counts[static_cast<std::size_t>(trace::Ctr::WorldPeakArenaBytes)]);
  }
  EXPECT_EQ(tot.events, events);
  EXPECT_EQ(tot.fibers, fibers);
  EXPECT_EQ(tot.peak_arena, arena_max);
  EXPECT_GT(tot.events, 0u);
  EXPECT_GT(tot.fibers, 0u);

  // A sample record carries the same numbers.
  sink.sample(st);
  const std::vector<std::string> lines = read_lines(path);
  const jm::Value v = jm::parse(lines.back());
  ASSERT_EQ(v.get("type")->str, "sample");
  EXPECT_EQ(v.get("pool")->get("submitted")->as_num(),
            static_cast<double>(cs.size()));
  EXPECT_EQ(v.get("trace")->get("events")->as_num(),
            static_cast<double>(events));
  EXPECT_EQ(v.get("exec")->get("fibers")->as_num(),
            static_cast<double>(fibers));
  EXPECT_GT(v.get("rss_bytes")->as_num(), 0.0);
}

TEST(ObsSampler, TicksPeriodicallyAndOnceOnStop) {
  std::atomic<int> ticks{0};
  {
    obs::Sampler s([&] { ticks.fetch_add(1); }, 5);
    ASSERT_TRUE(s.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    s.stop();
    const int after_stop = ticks.load();
    EXPECT_GE(after_stop, 2);  // several periods plus the final tick
    s.stop();  // idempotent: no second final tick
    EXPECT_EQ(ticks.load(), after_stop);
  }
  const int final_count = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), final_count);  // thread really stopped
}

TEST(ObsSampler, ZeroPeriodStartsNothing) {
  std::atomic<int> ticks{0};
  obs::Sampler s([&] { ticks.fetch_add(1); }, 0);
  EXPECT_FALSE(s.running());
  s.stop();
  EXPECT_EQ(ticks.load(), 0);
}

// --------------------------------------------------- profile exporters

TEST(ObsProfile, CollapsedStacksMatchBlamePartition) {
  const analyze::Report report = fixture_report();
  ASSERT_EQ(report.scenarios.size(), 1u);
  const analyze::ScenarioReport& s = report.scenarios.front();
  ASSERT_FALSE(s.op_criticals.empty());

  std::ostringstream os;
  obs::write_collapsed(os, report);
  std::istringstream is(os.str());
  std::string line;
  long long folded_total = 0;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    // `frame;frame;frame;phase weight` — the weight is the last token,
    // frames are space-free.
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string stack = line.substr(0, sp);
    EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    // rank;op;phase under the scenario frame.
    EXPECT_NE(stack.find(";rank:"), std::string::npos) << line;
    EXPECT_NE(stack.find(";op:"), std::string::npos) << line;
    const long long w = std::atoll(line.c_str() + sp + 1);
    EXPECT_GT(w, 0) << line;
    folded_total += w;
  }
  EXPECT_GT(lines, 0u);
  // Total folded weight == the llround'ed blame partition sum.
  long long expect_total = 0;
  for (const analyze::OpCritical& oc : s.op_criticals) {
    for (double c : {oc.blame.compute, oc.blame.progress, oc.blame.wire,
                     oc.blame.late_sender, oc.blame.missing_progress,
                     oc.blame.other}) {
      const long long w = static_cast<long long>(std::llround(c * 1e9));
      if (w > 0) expect_total += w;
    }
  }
  EXPECT_EQ(folded_total, expect_total);
  EXPECT_EQ(obs::profile_total_weight_ns(report), expect_total);
}

// -------------------------------------------------------- event bounds

TEST(ObsTrace, EventCapDropsAndCounts) {
  // Only a whole unsigned decimal caps; anything else (atoll would read
  // 1e6 as 1) means no cap.
  for (const char* bad : {"1e6", "-5", "+5", " 5", "5 ", "5k",
                          "99999999999999999999999", ""}) {
    SCOPED_TRACE(bad);
    ::setenv("NBCTUNE_TRACE_MAX_EVENTS", bad, 1);
    EXPECT_EQ(trace::Tracer::default_max_events(), 0u);
  }
  ::setenv("NBCTUNE_TRACE_MAX_EVENTS", "50", 1);
  EXPECT_EQ(trace::Tracer::default_max_events(), 50u);
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("ibcast whale np4 4096B fixed:binomial");
    run_ibcast(4, 4096, 4);
  }
  ::unsetenv("NBCTUNE_TRACE_MAX_EVENTS");
  auto finished = trace::Session::instance().drain();
  ASSERT_EQ(finished.size(), 1u);
  const trace::FinishedTrace& f = finished.front();
  EXPECT_EQ(f.events.size(), 50u);
  const std::uint64_t dropped =
      f.counts[static_cast<std::size_t>(trace::Ctr::TraceDroppedEvents)];
  EXPECT_GT(dropped, 0u);

  // The analyzer reports the truncation.
  const analyze::Report report = analyze::analyze(finished);
  EXPECT_EQ(report.scenarios.front().dropped_events, dropped);
  EXPECT_TRUE(report.scenarios.front().truncated());
  std::ostringstream json;
  analyze::write_json(json, report);
  EXPECT_NE(json.str().find("\"trace\":{\"dropped_events\":"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"truncated\":true"), std::string::npos);
  std::ostringstream table;
  analyze::write_table(table, report);
  EXPECT_NE(table.str().find("TRUNCATED"), std::string::npos);
}

TEST(ObsTrace, UncappedTraceStaysUnflagged) {
  const analyze::Report report = fixture_report(1);
  EXPECT_FALSE(report.scenarios.front().truncated());
  std::ostringstream json;
  analyze::write_json(json, report);
  EXPECT_EQ(json.str().find("dropped_events"), std::string::npos);
}

// ------------------------------------------------------------ abort

TEST(ObsLive, AbortFromSignalFinalizesStream) {
  const std::string path = ::testing::TempDir() + "obs_abort.jsonl";
  obs::LiveSink sink(path, "test-sweep", 1);
  ASSERT_TRUE(sink.ok());
  sink.on_scope_start("ibcast whale np2 1024B fixed:binomial");
  obs::LiveSink::install_signal_target(&sink);
  obs::LiveSink::abort_from_signal();   // what the SIGINT handler runs
  obs::LiveSink::abort_from_signal();   // second delivery: no-op
  sink.on_scope_start("ignored");       // post-finalize writes dropped
  obs::LiveSink::install_signal_target(nullptr);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // hello, started, aborted summary
  const jm::Value v = jm::parse(lines.back());
  EXPECT_EQ(v.get("type")->str, "summary");
  EXPECT_EQ(v.get("status")->str, "aborted");
  ASSERT_NE(v.get("scenarios_finished"), nullptr);
}

// ----------------------------------------------------------- nbctune-top

TEST(ObsTop, FeedsStreamAndSkipsForeignLines) {
  obs::TopState top;
  EXPECT_FALSE(top.feed_line(""));
  EXPECT_FALSE(top.feed_line("== some bench table =="));
  EXPECT_FALSE(top.feed_line("{not json at all"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":0,"t_ms":0,"type":"hello","schema":"nbctune-live-v1","bench":"fig3","threads":2})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":1,"t_ms":1,"type":"batch","tasks":4,"total_submitted":4})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":2,"t_ms":2,"type":"scenario","phase":"started","label":"ibcast whale np2 1024B fixed:binomial"})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":3,"t_ms":500,"type":"scenario","phase":"finished","label":"ibcast whale np2 1024B fixed:binomial","op":"ibcast","ops":3,"ops_started":3,"mean_op_ns":1000,"median_op_ns":900,"op_ci_lo_ns":800,"op_ci_hi_ns":1100,"min_reps_met":false,"blame_bp":{"compute":5000,"progress":1000,"wire":2000,"late_sender":1500,"missing_progress":0,"other":500},"guidelines":{"checked":1,"passed":1,"status":"pass","ids":["G1=pass","G2=n/a"]}})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":4,"t_ms":600,"type":"sample","pool":{"submitted":4,"completed":1,"steals":0,"queued":2,"inflight":1},"scenarios":{"started":2,"finished":1},"trace":{"events":100,"dropped":0},"exec":{"fibers":4,"peak_arena_bytes":4096},"rss_bytes":1048576})"));

  EXPECT_EQ(top.bench(), "fig3");
  EXPECT_EQ(top.submitted(), 4u);
  EXPECT_EQ(top.started(), 1u);
  EXPECT_EQ(top.finished(), 1u);
  EXPECT_FALSE(top.done());
  EXPECT_EQ(top.eta_ms(), 1800);  // 600 ms elapsed / 1 finished * 3 left
  ASSERT_EQ(top.ops().count("ibcast"), 1u);
  EXPECT_EQ(top.ops().at("ibcast").scenarios, 1u);
  EXPECT_EQ(top.ops().at("ibcast").median_sum_ns, 900);
  EXPECT_EQ(top.guidelines().at("G1"), "pass");
  EXPECT_EQ(top.guidelines().at("G2"), "n/a");
  EXPECT_EQ(top.gauges().pool_queued, 2u);
  EXPECT_EQ(top.gauges().rss_bytes, 1048576u);

  // FAIL is sticky over a later pass.
  EXPECT_TRUE(top.feed_line(
      R"({"seq":5,"t_ms":700,"type":"scenario","phase":"finished","label":"ibcast whale np4 1024B fixed:binomial","ops":1,"median_op_ns":1,"blame_bp":{"compute":10000,"progress":0,"wire":0,"late_sender":0,"missing_progress":0,"other":0},"guidelines":{"checked":1,"passed":0,"status":"FAIL","ids":["G1=FAIL"]}})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":6,"t_ms":800,"type":"scenario","phase":"finished","label":"ibcast whale np8 1024B fixed:binomial","ops":1,"median_op_ns":1,"blame_bp":{"compute":10000,"progress":0,"wire":0,"late_sender":0,"missing_progress":0,"other":0},"guidelines":{"checked":1,"passed":1,"status":"pass","ids":["G1=pass"]}})"));
  EXPECT_EQ(top.guidelines().at("G1"), "FAIL");

  EXPECT_TRUE(top.feed_line(
      R"({"seq":7,"t_ms":900,"type":"summary","status":"ok","scenarios":4,"report":"{}"})"));
  EXPECT_TRUE(top.done());
  EXPECT_EQ(top.status(), "ok");
  EXPECT_EQ(top.eta_ms(), -1);

  std::ostringstream plain;
  top.render(plain, /*ansi=*/false);
  EXPECT_NE(plain.str().find("nbctune-top"), std::string::npos);
  EXPECT_NE(plain.str().find("fig3"), std::string::npos);
  EXPECT_NE(plain.str().find("[G1:FAIL]"), std::string::npos);
  EXPECT_EQ(plain.str().find("\x1b["), std::string::npos);
  std::ostringstream ansi;
  top.render(ansi, /*ansi=*/true);
  EXPECT_NE(ansi.str().find("\x1b["), std::string::npos);
}

namespace {

/// Feeds live records to `top`, numbering their seq fields.
class StreamFeeder {
 public:
  explicit StreamFeeder(obs::TopState& top) : top_(top) {}
  void operator()(long long t_ms, const std::string& body) {
    const std::string line = "{\"seq\":" + std::to_string(seq_++) +
                             ",\"t_ms\":" + std::to_string(t_ms) + "," +
                             body + "}";
    EXPECT_TRUE(top_.feed_line(line)) << line;
  }
  /// `n` scenario scopes that start and finish at `t_ms`.
  void scenarios(int n, long long t_ms) {
    for (int i = 0; i < n; ++i) {
      (*this)(t_ms, R"("type":"scenario","phase":"started","label":"s")");
      (*this)(t_ms, R"("type":"scenario","phase":"finished","label":"s")");
    }
  }

 private:
  obs::TopState& top_;
  long long seq_ = 0;
};

}  // namespace

TEST(ObsTop, ProgressCountsPoolTasksNotScenarioRecords) {
  // The fault sweep's shape: two batches of 6 pool tasks, whose scopes
  // finish 17 scenarios.  The bar and the ETA follow the sampled task
  // count; the scenario records are counted apart.
  obs::TopState top;
  StreamFeeder feed(top);
  feed(0, R"("type":"hello","schema":"nbctune-live-v1","bench":"fault_sweep","threads":4)");
  feed(0, R"("type":"batch","tasks":6,"total_submitted":6)");
  feed.scenarios(9, 300);
  feed(400, R"("type":"sample","pool":{"submitted":6,"completed":4,"steals":0,"queued":0,"inflight":2})");
  EXPECT_EQ(top.eta_ms(), 200);  // 100 ms per task, 2 to go
  feed(500, R"("type":"batch","tasks":6,"total_submitted":12)");
  feed.scenarios(8, 800);
  feed(900, R"("type":"sample","pool":{"submitted":12,"completed":10,"steals":0,"queued":0,"inflight":2})");
  EXPECT_EQ(top.submitted(), 12u);
  EXPECT_EQ(top.finished(), 17u);
  EXPECT_EQ(top.eta_ms(), 180);  // 90 ms per task, 2 to go

  std::ostringstream frame;
  top.render(frame, /*ansi=*/false);
  const std::string f = frame.str();
  EXPECT_NE(f.find("] 10/12 tasks"), std::string::npos) << f;
  EXPECT_NE(f.find("scenarios 17 finished"), std::string::npos) << f;
  EXPECT_NE(f.find("eta ~0.2s"), std::string::npos) << f;
  EXPECT_EQ(f.find("17/12"), std::string::npos) << f;
}

TEST(ObsTop, NoSampleShowsNoTaskFraction) {
  // With --live-sample-ms 0 the stream carries no pool sample: no task
  // count is known, so neither a bar nor an ETA is drawn.
  obs::TopState top;
  StreamFeeder feed(top);
  feed(0, R"("type":"hello","schema":"nbctune-live-v1","bench":"fault_sweep","threads":4)");
  feed(0, R"("type":"batch","tasks":6,"total_submitted":6)");
  feed.scenarios(9, 300);
  feed(310, R"("type":"scenario","phase":"started","label":"s")");
  EXPECT_EQ(top.eta_ms(), -1);

  std::ostringstream frame;
  top.render(frame, /*ansi=*/false);
  const std::string f = frame.str();
  EXPECT_EQ(f.find("progress ["), std::string::npos) << f;
  EXPECT_EQ(f.find("/6"), std::string::npos) << f;
  EXPECT_NE(f.find("scenarios 9 finished, 1 running"), std::string::npos)
      << f;
}

TEST(ObsTop, AggregatesFailuresAndRecovery) {
  obs::TopState top;
  EXPECT_TRUE(top.feed_line(
      R"({"seq":0,"t_ms":0,"type":"hello","schema":"nbctune-live-v1","bench":"failure_sweep","threads":2})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":1,"t_ms":1,"type":"scenario","phase":"failed","index":3,"error":"scenario 3 blew up"})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":2,"t_ms":2,"type":"scenario","phase":"finished","label":"ialltoall whale np16 65536B adcl:brute-force+plan=kill1","ops":600,"median_op_ns":1000,"blame_bp":{"compute":10000,"progress":0,"wire":0,"late_sender":0,"missing_progress":0,"other":0},"recovery":{"deaths":1,"epochs":1,"rebuilds":15,"aborted_ops":16,"detection_ns":2000000,"time_to_recover_ns":2676572}})"));
  EXPECT_TRUE(top.feed_line(
      R"({"seq":3,"t_ms":3,"type":"scenario","phase":"finished","label":"ialltoall whale np16 65536B adcl:brute-force+plan=cascade","ops":576,"median_op_ns":1000,"blame_bp":{"compute":10000,"progress":0,"wire":0,"late_sender":0,"missing_progress":0,"other":0},"recovery":{"deaths":2,"epochs":2,"rebuilds":30,"aborted_ops":17,"detection_ns":2000000,"time_to_recover_ns":2355454}})"));

  EXPECT_EQ(top.failed(), 1u);
  ASSERT_EQ(top.failures().size(), 1u);
  EXPECT_EQ(top.failures()[0], "task 3: scenario 3 blew up");
  EXPECT_EQ(top.recovery().scenarios, 2u);
  EXPECT_EQ(top.recovery().deaths, 3u);
  EXPECT_EQ(top.recovery().epochs, 3u);
  EXPECT_EQ(top.recovery().rebuilds, 45u);
  EXPECT_EQ(top.recovery().aborted_ops, 33u);
  EXPECT_EQ(top.recovery().detection_sum_ns, 4000000);
  EXPECT_EQ(top.recovery().ttr_sum_ns, 5032026);

  std::ostringstream plain;
  top.render(plain, /*ansi=*/false);
  EXPECT_NE(plain.str().find("CRASHED"), std::string::npos);
  EXPECT_NE(plain.str().find("task 3: scenario 3 blew up"), std::string::npos);
  EXPECT_NE(plain.str().find("recovery"), std::string::npos);
  EXPECT_NE(plain.str().find("deaths 3"), std::string::npos);
}

TEST(ObsTop, CountsOutOfOrderSeq) {
  obs::TopState top;
  EXPECT_TRUE(top.feed_line(R"({"seq":5,"t_ms":0,"type":"hello"})"));
  EXPECT_TRUE(top.feed_line(R"({"seq":3,"t_ms":0,"type":"batch","tasks":1})"));
  EXPECT_EQ(top.seq_errors(), 1u);
}

// ------------------------------------------------------------- flags

TEST(ObsFlags, ParseFlagTakesOnlyAWholeNumberInRange) {
  EXPECT_EQ(obs::parse_flag("--threads", "4", 0), 4);
  EXPECT_EQ(obs::parse_flag("--min-reps", "0", 0), 0);
  EXPECT_EQ(obs::parse_flag<std::size_t>("--fiber-stack", "16384", 1),
            16384u);
  EXPECT_DOUBLE_EQ(obs::parse_flag("--epsilon", "0.25", 0.0), 0.25);
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT((void)obs::parse_flag("--epsilon", "abc", 0.0), exits_2,
              "^--epsilon: expected a number >= 0, got 'abc'\n$");
  EXPECT_EXIT((void)obs::parse_flag("--min-reps", "-3", 0), exits_2,
              "^--min-reps: expected an integer >= 0, got '-3'\n$");
  for (const char* bad : {"", "4x", " 4", "+4", "1e3", "99999999999"}) {
    EXPECT_EXIT((void)obs::parse_flag("--threads", bad, 0), exits_2,
                "^--threads: ")
        << bad;
  }
  for (const char* bad : {"inf", "nan", "-0.5", "0.25x"}) {
    EXPECT_EXIT((void)obs::parse_flag("--epsilon", bad, 0.0), exits_2,
                "^--epsilon: ")
        << bad;
  }
  for (const char* bad : {"0", "-1"}) {
    EXPECT_EXIT((void)obs::parse_flag<std::size_t>("--fiber-stack", bad, 1),
                exits_2, "^--fiber-stack: ")
        << bad;
  }
}

TEST(ObsFlags, BenchDriverFlagsNameTheFlag) {
  const auto parse = [](std::vector<std::string> args) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return bench::Scale::from_args(static_cast<int>(argv.size()),
                                   argv.data());
  };
  const bench::Scale ok = parse({"--threads", "3", "--live-sample-ms", "0",
                                 "--fiber-stack", "16384"});
  EXPECT_EQ(ok.threads, 3);
  EXPECT_EQ(ok.live_sample_ms, 0);
  EXPECT_EQ(ok.fiber_stack, 16384u);
  for (const std::string flag :
       {"--threads", "--live-sample-ms", "--fiber-stack"}) {
    for (const char* bad : {"-3", "abc"}) {
      EXPECT_EXIT((void)parse({flag, bad}), ::testing::ExitedWithCode(2),
                  "^" + flag + ": ")
          << bad;
    }
  }
}
