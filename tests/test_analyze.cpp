// Post-hoc analysis layer (src/analyze): scenario-key labels, a
// hand-computed golden on the 2-rank ibcast trace, the
// blame-sums-to-elapsed property, the Chrome trace round-trip (keys and
// every event kind included, foreign names dropped and counted), the
// ADCL decision audit, the guideline checks on synthetic keyed
// scenarios, the regression gate, the JSON parser's limits (depth,
// malformed and out-of-range numbers), and byte-identical report JSON
// at any pool thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "adcl/functionsets.hpp"
#include "adcl/selection.hpp"
#include "analyze/analyze.hpp"
#include "analyze/chrome_reader.hpp"
#include "analyze/json_min.hpp"
#include "analyze/regress.hpp"
#include "coll/ialltoall.hpp"
#include "coll/ibcast.hpp"
#include "harness/microbench.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/platform.hpp"
#include "obs/live.hpp"
#include "obs/top.hpp"
#include "testing_util.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

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

/// One traced scenario, drained out of the session.
trace::FinishedTrace traced(const std::string& label,
                            const std::function<void()>& body) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope(label);
    body();
  }
  auto traces = trace::Session::instance().drain();
  EXPECT_EQ(traces.size(), 1u);
  return traces.at(0);
}

/// analyze() over a braced list of traces.
analyze::Report analyze_all(const std::vector<trace::FinishedTrace>& traces,
                            const analyze::Options& opts = {}) {
  return analyze::analyze(traces, opts);
}

/// Expected aggregate blame: per op instance, the duration of the
/// last-finishing nbc.op span — recomputed here independently of the
/// analyzer's grouping code.
double expected_blame_total(const trace::FinishedTrace& t) {
  std::map<std::uint64_t, std::pair<double, double>> by_corr;  // end, dur
  for (const trace::Event& e : t.events) {
    if (e.kind != trace::Kind::NbcOp || !e.is_span()) continue;
    const double end = e.ts + e.dur;
    auto [it, fresh] = by_corr.try_emplace(e.corr, end, e.dur);
    if (!fresh && end > it->second.first) {
      it->second = {end, e.dur};
    }
  }
  double sum = 0.0;
  for (const auto& [corr, v] : by_corr) sum += v.second;
  return sum;
}

}  // namespace

// ---------------------------------------------------------- scenario key

TEST(ScenarioKeyLabel, RendersFixedAndAdcl) {
  harness::MicroScenario s;
  s.platform = net::whale();
  s.nprocs = 32;
  s.op = harness::OpKind::Ibcast;
  s.bytes = 4096;
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/false, "binomial/seg32k")
                .label(),
            "ibcast whale np32 4096B fixed:binomial/seg32k");
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/true, "brute-force").label(),
            "ibcast whale np32 4096B adcl:brute-force");
}

TEST(ScenarioKeyLabel, RendersPlanSuffix) {
  harness::MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 8;
  s.op = harness::OpKind::Ialltoall;
  s.bytes = 1024;
  s.fault_plan = "drop=0.01";
  s.fault_plan_name = "lossy";
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/false, "linear").label(),
            "ialltoall crill np8 1024B fixed:linear+plan=lossy");
  // A plan without a name renders as "spec".
  s.fault_plan_name.clear();
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/true, "brute-force").label(),
            "ialltoall crill np8 1024B adcl:brute-force+plan=spec");
}

TEST(ScenarioKeyLabel, RendersPlanThenTopo) {
  harness::MicroScenario s;
  s.platform = net::crill();
  s.nprocs = 96;
  s.op = harness::OpKind::Iscatter;
  s.bytes = 65536;
  s.topo_tag = "rails2";
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/false, "striped").label(),
            "iscatter crill np96 65536B fixed:striped+topo=rails2");
  s.fault_plan = "drop=0.01";
  s.fault_plan_name = "lossy";
  EXPECT_EQ(harness::scenario_key(s, /*tuned=*/false, "striped").label(),
            "iscatter crill np96 65536B fixed:striped+plan=lossy+topo=rails2");
}

// ------------------------------------------------- golden 2-rank ibcast

TEST(AnalyzeGolden, TwoRankIbcastCriticalPath) {
  const trace::FinishedTrace tr =
      traced("golden", [] { run_ibcast(2, 4096); });
  const analyze::Report r = analyze_all({tr});
  ASSERT_EQ(r.scenarios.size(), 1u);
  const analyze::ScenarioReport& s = r.scenarios[0];

  // One op on each rank, all completing (G1 material).
  EXPECT_EQ(s.ops_started, 2u);
  EXPECT_EQ(s.ops_completed, 2u);
  EXPECT_TRUE(s.zero_compute);

  // Both ranks allocate op correlation id 1 for their first operation,
  // so the analyzer sees exactly one op instance...
  ASSERT_TRUE(s.has_critical);
  EXPECT_EQ(s.worst.corr, 1u);
  // ...whose critical rank is the receiver: rank 1 cannot finish before
  // the 4 KB eager payload serialized over the wire and arrived.
  EXPECT_EQ(s.worst.critical_rank, 1);
  EXPECT_GT(s.worst.elapsed, 0.0);

  // The blame partition is exact: components sum to the elapsed time.
  EXPECT_NEAR(s.worst.blame.total(), s.worst.elapsed,
              1e-9 * std::max(1.0, s.worst.elapsed));
  // No compute anywhere in this program.
  EXPECT_EQ(s.worst.blame.compute, 0.0);
  // The receiver's window must contain the wire serialization of the
  // payload it waited for.
  EXPECT_GT(s.worst.blame.wire, 0.0);

  // The critical path walks back to the sender through the eager
  // message: exactly one inbound transfer on rank 1.
  ASSERT_GE(s.worst.hops.size(), 1u);
  EXPECT_EQ(s.worst.hops[0].rank, 1);
  EXPECT_EQ(s.worst.hops[0].from_rank, 0);
  EXPECT_GE(s.worst.hops[0].arrival_ts, s.worst.start);
  EXPECT_LE(s.worst.hops[0].post_ts, s.worst.hops[0].arrival_ts);

  // Overlap accounting: both ranks ran exactly one handle; with no
  // compute the overlap ratio is 0 by definition.
  ASSERT_EQ(s.ranks.size(), 2u);
  EXPECT_EQ(s.ranks[0].rank, 0);
  EXPECT_EQ(s.ranks[0].ops, 1u);
  EXPECT_EQ(s.ranks[1].ops, 1u);
  EXPECT_EQ(s.ranks[0].overlap_ratio, 0.0);
  EXPECT_EQ(s.ranks[0].compute_in_op, 0.0);
  // The receiver's slack is bounded by its op elapsed.
  EXPECT_LE(s.ranks[1].slack, s.ranks[1].op_time + 1e-12);

  // G1 evaluated and passing; the scope is unkeyed, so the comparative
  // guidelines stay n/a.
  ASSERT_EQ(r.guidelines.size(), 7u);
  EXPECT_EQ(r.guidelines[0].id, "G1");
  EXPECT_EQ(r.guidelines[0].checked, 1);
  EXPECT_EQ(r.guidelines[0].passed, 1);
  EXPECT_STREQ(r.guidelines[0].status(), "pass");
}

// ------------------------------------------------------ blame property

TEST(AnalyzeProperty, BlameComponentsSumToOpElapsed) {
  // Several shapes: eager and rendezvous payloads, growing rank counts,
  // repeated ops per handle.  For every scenario the aggregated blame
  // must equal the sum over op instances of the critical rank's elapsed
  // time, and the worst instance must partition exactly.
  struct Case {
    int nprocs;
    std::size_t bytes;
    int ops;
  };
  const Case cases[] = {
      {2, 64, 3}, {4, 4096, 2}, {8, 65536, 1}, {4, 1 << 20, 2}};
  for (const Case& c : cases) {
    const trace::FinishedTrace tr =
        traced("prop", [&] { run_ibcast(c.nprocs, c.bytes, c.ops); });
    const analyze::Report r = analyze_all({tr});
    ASSERT_EQ(r.scenarios.size(), 1u);
    const analyze::ScenarioReport& s = r.scenarios[0];
    SCOPED_TRACE("np" + std::to_string(c.nprocs) + " " +
                 std::to_string(c.bytes) + "B x" + std::to_string(c.ops));
    EXPECT_EQ(s.ops_started, s.ops_completed);
    const double expected = expected_blame_total(tr);
    EXPECT_GT(expected, 0.0);
    EXPECT_NEAR(s.blame.total(), expected, 1e-9 * std::max(1.0, expected));
    ASSERT_TRUE(s.has_critical);
    EXPECT_NEAR(s.worst.blame.total(), s.worst.elapsed,
                1e-9 * std::max(1.0, s.worst.elapsed));
  }
}

// -------------------------------------------------- chrome round-trip

TEST(AnalyzeChrome, RoundTripMatchesInProcessAnalysis) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope a("rt one");
    run_ibcast(2, 4096);
  }
  {
    trace::Scope b("rt two");
    run_ibcast(4, 65536, 2, /*seed=*/7);
  }
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  const std::vector<trace::FinishedTrace> direct =
      trace::Session::instance().drain();

  std::istringstream is(chrome.str());
  const std::vector<trace::FinishedTrace> parsed = analyze::read_chrome(is);
  ASSERT_EQ(parsed.size(), direct.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].label, direct[i].label);
    EXPECT_EQ(parsed[i].events.size(), direct[i].events.size());
  }

  // The analyses agree: same structure, op times within the 1 ns export
  // quantization of the Chrome format.
  const analyze::Report ra = analyze::analyze(direct);
  const analyze::Report rb = analyze::analyze(parsed);
  ASSERT_EQ(ra.scenarios.size(), rb.scenarios.size());
  for (std::size_t i = 0; i < ra.scenarios.size(); ++i) {
    const auto& a = ra.scenarios[i];
    const auto& b = rb.scenarios[i];
    EXPECT_EQ(a.ops_completed, b.ops_completed);
    EXPECT_NEAR(a.mean_op_elapsed, b.mean_op_elapsed, 2e-9);
    EXPECT_EQ(a.worst.critical_rank, b.worst.critical_rank);
    EXPECT_EQ(a.worst.hops.size(), b.worst.hops.size());
    EXPECT_NEAR(a.blame.total(), b.blame.total(),
                2e-9 * std::max(1.0, a.ops_completed * 1.0));
  }
}

TEST(AnalyzeChrome, ControlCharactersInLabelsRoundTrip) {
  const std::string label =
      "ibcast \"quoted\" back\\slash\nnewline\ttab\x01" "end";
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope(label);
    run_ibcast(2, 4096);
  }
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  const std::vector<trace::FinishedTrace> finished =
      trace::Session::instance().drain();
  ASSERT_EQ(finished.size(), 1u);
  std::ostringstream json;
  analyze::write_json(json, analyze::analyze(finished));
  // Valid JSON carries no raw control character inside a string; the
  // only one either writer emits is the newline between records.
  for (const std::string& out : {chrome.str(), json.str()}) {
    EXPECT_EQ(std::count_if(out.begin(), out.end(),
                            [](char c) {
                              return static_cast<unsigned char>(c) < 0x20 &&
                                     c != '\n';
                            }),
              0);
  }

  std::istringstream is(chrome.str());
  const std::vector<trace::FinishedTrace> parsed = analyze::read_chrome(is);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].label, label);

  const analyze::jsonmin::Value report = analyze::jsonmin::parse(json.str());
  const analyze::jsonmin::Value* scenarios = report.get("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->arr->size(), 1u);
  EXPECT_EQ(scenarios->arr->front().get("label")->str, label);
}

TEST(AnalyzeChrome, EveryKindRoundTripsAsAnEqualEvent) {
  // One event of every kind, cycling through instants and spans on rank
  // and wire tracks, with distinct arguments and correlation ids.  Times
  // are whole microseconds and values stay below 2^53, so the export's
  // microsecond decimals and the reader's doubles carry them exactly.
  trace::FinishedTrace sent;
  sent.label = "every kind";
  for (std::size_t i = 0; i < std::size(trace::kKindRows); ++i) {
    const auto kind = static_cast<trace::Kind>(i);
    trace::Event e;
    e.kind = kind;
    e.ts = static_cast<double>(1000 + 7 * i) * 1e-6;
    if (i % 4 == 1 || i % 4 == 2) e.dur = static_cast<double>(30 + i) * 1e-6;
    e.track = i % 4 < 2 ? static_cast<std::int32_t>(i)
                        : trace::wire_track(static_cast<int>(i % 3));
    if (trace::row(kind).akey != nullptr) e.aval = (1ull << 40) + i;
    if (trace::row(kind).bkey != nullptr) e.bval = 200 + i;
    e.corr = 300 + i;
    sent.events.push_back(e);
  }
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  trace::Session::instance().adopt(sent);
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  (void)trace::Session::instance().drain();

  std::istringstream is(chrome.str());
  const std::vector<trace::FinishedTrace> parsed = analyze::read_chrome(is);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].label, sent.label);
  ASSERT_EQ(parsed[0].events.size(), sent.events.size());
  for (std::size_t i = 0; i < sent.events.size(); ++i) {
    EXPECT_EQ(parsed[0].events[i], sent.events[i])
        << trace::row(sent.events[i].kind).name;
  }
  // Both adcl.retune shapes come back as their own kinds.
  const auto count = [&](trace::Kind k) {
    return std::count_if(
        parsed[0].events.begin(), parsed[0].events.end(),
        [k](const trace::Event& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(trace::Kind::AdclRetuneDrift), 1);
  EXPECT_EQ(count(trace::Kind::AdclRetuneShrink), 1);
  EXPECT_EQ(parsed[0].counts, trace::FinishedTrace{}.counts);
}

TEST(AnalyzeChrome, ForeignEventNameIsDroppedAndCounted) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope a("clean");
    run_ibcast(2, 4096);
  }
  {
    trace::Scope b("foreign");
    run_ibcast(2, 4096);
  }
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  (void)trace::Session::instance().drain();
  // An event no kind is named for, in the second scenario (pid 1).
  std::string text = chrome.str();
  text.insert(text.rfind("\n]"),
              ",\n{\"pid\":1,\"tid\":0,\"cat\":\"engine\",\"name\":"
              "\"engine.fire\",\"ts\":1.000,\"ph\":\"i\",\"s\":\"t\"}");
  std::istringstream is(text);
  const std::vector<trace::FinishedTrace> parsed = analyze::read_chrome(is);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].events.size(), parsed[0].events.size());

  const analyze::Report r = analyze::analyze(parsed);
  EXPECT_EQ(r.scenarios[0].dropped_events, 0u);
  EXPECT_FALSE(r.scenarios[0].truncated());
  EXPECT_EQ(r.scenarios[1].dropped_events, 1u);
  EXPECT_TRUE(r.scenarios[1].truncated());
  EXPECT_EQ(r.scenarios[1].ops_completed, r.scenarios[0].ops_completed);
  std::ostringstream json;
  analyze::write_json(json, r);
  EXPECT_EQ(json.str().find("\"truncated\":true"),
            json.str().rfind("\"truncated\":true"));
  EXPECT_NE(json.str().find("\"trace\":{\"dropped_events\":1,"),
            std::string::npos);
}

TEST(AnalyzeChrome, KeyedSweepRoundTripsKeysAndGuidelines) {
  // Verification runs at two message sizes (every fixed alltoall member
  // plus both ADCL policies) key their scopes; an unkeyed scope follows.
  // The export carries the keys, so the offline analysis groups exactly
  // like the in-process one.
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
  for (const std::size_t bytes : {1024, 2048}) {
    s.bytes = bytes;
    (void)harness::run_verification(s, /*tests_per_function=*/1);
  }
  {
    trace::Scope unkeyed("unkeyed");
    run_ibcast(2, 4096);
  }
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  const std::vector<trace::FinishedTrace> direct =
      trace::Session::instance().drain();

  std::istringstream is(chrome.str());
  const std::vector<trace::FinishedTrace> parsed = analyze::read_chrome(is);
  ASSERT_EQ(parsed.size(), direct.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].label, direct[i].label);
    EXPECT_EQ(parsed[i].key, direct[i].key) << direct[i].label;
    if (direct[i].key) {
      EXPECT_EQ(direct[i].key->label(), direct[i].label);
    }
  }
  ASSERT_TRUE(direct.front().key.has_value());
  EXPECT_EQ(direct.front().key->compute_ns, 100000);
  EXPECT_EQ(direct.front().key->progress_calls, 2);
  EXPECT_FALSE(parsed.back().key.has_value());

  const analyze::Report ra = analyze::analyze(direct);
  const analyze::Report rb = analyze::analyze(parsed);
  ASSERT_EQ(ra.guidelines.size(), rb.guidelines.size());
  for (std::size_t g = 0; g < ra.guidelines.size(); ++g) {
    SCOPED_TRACE(ra.guidelines[g].id);
    EXPECT_EQ(ra.guidelines[g].checked, rb.guidelines[g].checked);
    EXPECT_EQ(ra.guidelines[g].passed, rb.guidelines[g].passed);
    EXPECT_EQ(ra.guidelines[g].violations, rb.guidelines[g].violations);
  }
  // Both sizes pair the two tuned runs with the fixed members, and the
  // fixed members pair across the size doubling.
  EXPECT_EQ(ra.guidelines[1].id, "G2");
  EXPECT_EQ(ra.guidelines[1].checked, 4);
  EXPECT_EQ(ra.guidelines[4].id, "G5");
  EXPECT_EQ(ra.guidelines[4].checked, 5);
}

TEST(AnalyzeChrome, IncompleteOrOutOfRangeKeyGivesUnkeyedScenario) {
  const std::string fields =
      R"("op":"ibcast","platform":"whale","nprocs":4,"bytes":1024,)"
      R"("adcl":0,"impl":"linear","plan":"","topo":"","progress_calls":5,)"
      R"("compute_ns":50000000,"noise_scale_ppm":0,"noise_sigma_ppm":0,)"
      R"("outlier_prob_ppm":0,"outlier_factor_ppm":1000000)";
  const auto read = [](const std::string& args) {
    std::istringstream is(
        R"({"traceEvents":[{"ph":"M","pid":0,"name":"process_name",)"
        R"("args":{"name":"x",)" + args + "}}]}");
    return analyze::read_chrome(is).at(0).key;
  };
  const std::optional<trace::ScenarioKey> full = read(fields);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->label(), "ibcast whale np4 1024B fixed:linear");
  EXPECT_EQ(full->outlier_factor_ppm, 1000000);
  // A missing field, a mistyped one or a number its field cannot hold.
  std::string missing = fields;
  missing.replace(missing.find(R"("topo":"",)"), 10, "");
  EXPECT_FALSE(read(missing).has_value());
  std::string mistyped = fields;
  mistyped.replace(mistyped.find("\"nprocs\":4"), 10, "\"nprocs\":\"4\"");
  EXPECT_FALSE(read(mistyped).has_value());
  std::string huge = fields;
  huge.replace(huge.find("\"nprocs\":4"), 10, "\"nprocs\":1e30");
  EXPECT_FALSE(read(huge).has_value());
}

TEST(AnalyzeChrome, CountersReaderParsesDump) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("ctr");
    run_ibcast(2, 4096);
  }
  std::ostringstream os;
  trace::Session::instance().write_counters(os);
  (void)trace::Session::instance().drain();
  std::istringstream is(os.str());
  const auto counters = analyze::read_counters(is);
  EXPECT_EQ(counters.at("scenarios"), 1u);
  EXPECT_EQ(counters.at("msg.eager"), 1u);
  EXPECT_EQ(counters.at("nbc.ops_started"), 2u);
  EXPECT_EQ(counters.at("wire.bytes_per_transfer.count"), 1u);
  EXPECT_EQ(counters.at("wire.bytes_per_transfer.sum"), 4096u);
}

TEST(AnalyzeChrome, CountersReaderRejectsWhatStreamExtractionMisread) {
  const auto error = [](const std::string& dump) {
    std::istringstream is(dump);
    try {
      (void)analyze::read_counters(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // `istream >> uint64_t` read these as 2^64 - 1, 1 and 12, and dropped
  // the overflowing line.
  EXPECT_EQ(error("# dump\ncounter x -1\n"),
            "counters: line 2: '-1' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("counter x 1e3\n"),
            "counters: line 1: '1e3' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("counter x 12abc\n"),
            "counters: line 1: '12abc' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("counter x 18446744073709551616\n"),
            "counters: line 1: '18446744073709551616' is not an unsigned "
            "64-bit integer");
  // Every kind of value line is checked the same way.
  EXPECT_EQ(error("hist h count +3 sum 4\n"),
            "counters: line 1: '+3' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("hist h count 3 sum 0x4\n"),
            "counters: line 1: '0x4' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("hist h count 3 total 4\n"),
            "counters: line 1: hist line has no sum");
  EXPECT_EQ(error("scenarios 2.5\n"),
            "counters: line 1: '2.5' is not an unsigned 64-bit integer");
  EXPECT_EQ(error("\ntrace_events\n"),
            "counters: line 2: trace_events line has no value");
  EXPECT_EQ(error("counter x\n"), "counters: line 1: counter line has no value");
  EXPECT_EQ(error("counter x 5 6\n"), "counters: line 1: unexpected '6'");
  // The largest value, bucket lines and foreign lines still read.
  std::istringstream ok(
      "counter x 18446744073709551615\nhist h bucket 3 -1\nfoo bar\n");
  const auto counters = analyze::read_counters(ok);
  EXPECT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("x"), 18446744073709551615ull);
}

TEST(AnalyzeChrome, CountersReaderRoundTripsTheFig3Golden) {
  std::ifstream is(std::string(NBCTUNE_SOURCE_DIR) +
                   "/bench/golden/fig3_trace_counters.txt");
  ASSERT_TRUE(is.good());
  std::ostringstream text;
  text << is.rdbuf();
  std::istringstream in(text.str());
  const auto counters = analyze::read_counters(in);
  // Re-derive every value line independently: counters, scenarios and
  // trace_events by name, hist headers as <name>.count / <name>.sum.
  std::map<std::string, std::uint64_t> expected;
  std::istringstream lines(text.str());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream ls(line);
    std::string kind, name, f1, f2, v1, v2;
    ls >> kind;
    if (kind == "counter") {
      ls >> name >> v1;
      expected[name] = std::stoull(v1);
    } else if (kind == "scenarios" || kind == "trace_events") {
      ls >> v1;
      expected[kind] = std::stoull(v1);
    } else if (kind == "hist" && (ls >> name >> f1) && f1 == "count") {
      ls >> v1 >> f2 >> v2;
      expected[name + ".count"] = std::stoull(v1);
      expected[name + ".sum"] = std::stoull(v2);
    }
  }
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(counters.at("scenarios"), 6u);
  EXPECT_EQ(counters.at("trace_events"), 660678u);
}

// ----------------------------------------------------------- adcl audit

TEST(AnalyzeAdcl, AuditReplaysScoresAndDecision) {
  const trace::FinishedTrace tr = traced("ibcast whale np2 64B adcl:x", [] {
    // Synthesized learning phase: three functions scored, func 1 wins.
    trace::instant(1.0, 0, trace::Kind::AdclScore, 0, 3000, 8);
    trace::instant(2.0, 0, trace::Kind::AdclScore, 1, 1000, 16);
    trace::instant(3.0, 0, trace::Kind::AdclScore, 2, 2000, 24);
    trace::instant(3.0, 0, trace::Kind::AdclDecision, 1, 24, 24);
    trace::count(trace::Ctr::AdclSamplesSeen, 24);
    trace::count(trace::Ctr::AdclSamplesFiltered, 3);
  });
  const analyze::Report r = analyze_all({tr});
  ASSERT_EQ(r.scenarios.size(), 1u);
  const analyze::AdclAudit& a = r.scenarios[0].adcl;
  ASSERT_TRUE(a.present);
  EXPECT_EQ(a.winner, 1);
  EXPECT_EQ(a.decision_iteration, 24);
  EXPECT_DOUBLE_EQ(a.decision_ts, 3.0);
  ASSERT_EQ(a.scores.size(), 3u);
  EXPECT_EQ(a.scores[1].func, 1);
  EXPECT_EQ(a.scores[1].iteration, 16);
  EXPECT_NEAR(a.winner_score, 1000e-9, 1e-15);
  EXPECT_NEAR(a.runner_up_score, 2000e-9, 1e-15);
  // Margin: runner-up is 2x the winner.
  EXPECT_NEAR(a.margin, 1.0, 1e-9);
  EXPECT_EQ(a.samples_seen, 24u);
  EXPECT_EQ(a.samples_filtered, 3u);
}

TEST(AnalyzeAdcl, LiveSelectionEmitsAuditableScores) {
  // A real (not synthesized) tuned run must produce a full audit: as
  // many score events as scored batches and a decision consistent with
  // SelectionState's own bookkeeping.
  auto fset = adcl::make_ibcast_functionset();
  adcl::TuningOptions opts;
  opts.tests_per_function = 2;
  const trace::FinishedTrace tr = traced("live adcl", [&] {
    t::run_world(net::whale(), 2, [&](mpi::Ctx& ctx) {
      adcl::SelectionState sel(fset, opts);
      int guard = 0;
      while (!sel.decided() && ++guard < 10000) {
        sel.record(ctx, ctx.world().comm_world(),
                   1e-6 * (1 + sel.current()));
      }
      EXPECT_TRUE(sel.decided());
      EXPECT_EQ(static_cast<int>(sel.measurements().size()),
                sel.iterations() / opts.tests_per_function);
    });
  });
  const analyze::Report r = analyze_all({tr});
  const analyze::AdclAudit& a = r.scenarios.at(0).adcl;
  ASSERT_TRUE(a.present);
  // Functions score proportionally to their index, so func 0 wins.
  EXPECT_EQ(a.winner, 0);
  EXPECT_GT(a.scores.size(), 0u);
  EXPECT_GT(a.margin, 0.0);
}

// ----------------------------------------------------------- guidelines

namespace {

/// Synthetic unkeyed scenario: `ops` op instances of `dur` seconds on
/// track 0, plus optional adcl decision metadata.
trace::FinishedTrace synth(const std::string& label, int ops, double dur,
                           bool with_compute = false,
                           double decision_ts = -1.0) {
  trace::FinishedTrace t;
  t.label = label;
  double at = 0.0;
  for (int i = 0; i < ops; ++i) {
    const auto corr = static_cast<std::uint64_t>(i + 1);
    t.events.push_back({at, -1.0, 0, trace::Kind::NbcStart, 0, 0, corr});
    if (with_compute) {
      t.events.push_back({at, dur / 2, 0, trace::Kind::Compute, 0, 0, 0});
    }
    t.events.push_back({at, dur, 0, trace::Kind::NbcOp, 0, 0, corr});
    at += dur * 2;
  }
  if (decision_ts >= 0.0) {
    // winner 0, decided at iteration 4
    t.events.push_back(
        {decision_ts, -1.0, 0, trace::Kind::AdclDecision, 0, 4, 0});
  }
  return t;
}

/// The same synthetic scenario, keyed and labelled by `key`.
trace::FinishedTrace synth(const trace::ScenarioKey& key, int ops,
                           double dur, bool with_compute = false,
                           double decision_ts = -1.0) {
  trace::FinishedTrace t =
      synth(key.label(), ops, dur, with_compute, decision_ts);
  t.key = key;
  return t;
}

/// Key of `op` on `platform` with `impl` pinned (or ADCL under policy
/// `impl`); every condition stays at its default.
trace::ScenarioKey key(const char* op, const char* platform, int nprocs,
                       std::uint64_t bytes, bool adcl, const char* impl) {
  trace::ScenarioKey k;
  k.op = op;
  k.platform = platform;
  k.nprocs = nprocs;
  k.bytes = bytes;
  k.adcl = adcl;
  k.impl = impl;
  return k;
}

/// Fixed-member key of an ibcast on whale (the common guideline fixture).
trace::ScenarioKey bcast(int nprocs, std::uint64_t bytes, const char* impl) {
  return key("ibcast", "whale", nprocs, bytes, false, impl);
}

const analyze::GuidelineResult& find_g(const analyze::Report& r,
                                       const std::string& id) {
  for (const auto& g : r.guidelines) {
    if (g.id == id) return g;
  }
  ADD_FAILURE() << "guideline " << id << " missing";
  static analyze::GuidelineResult none;
  return none;
}

}  // namespace

TEST(AnalyzeGuidelines, TunedWinnerBeatsOrMatchesFixed) {
  const trace::ScenarioKey tuned =
      key("ibcast", "whale", 4, 1024, true, "brute-force");
  const analyze::Report ok = analyze_all({
      synth(bcast(4, 1024, "fast"), 4, 100e-6),
      synth(bcast(4, 1024, "slow"), 4, 200e-6),
      synth(tuned, 4, 100e-6, false, /*decision=*/0.0),
  });
  EXPECT_EQ(find_g(ok, "G2").checked, 1);
  EXPECT_EQ(find_g(ok, "G2").passed, 1);

  const analyze::Report bad = analyze_all({
      synth(bcast(4, 1024, "fast"), 4, 100e-6),
      synth(tuned, 4, 200e-6, false, /*decision=*/0.0),
  });
  EXPECT_EQ(find_g(bad, "G2").checked, 1);
  EXPECT_EQ(find_g(bad, "G2").passed, 0);
  ASSERT_EQ(find_g(bad, "G2").violations.size(), 1u);
  EXPECT_EQ(find_g(bad, "G2").violations[0],
            "ibcast whale np4 1024B adcl:brute-force: tuned 200000ns > best "
            "fixed 100000ns (ibcast whale np4 1024B fixed:fast)");
  EXPECT_STREQ(find_g(bad, "G2").status(), "FAIL");
}

TEST(AnalyzeGuidelines, TunedWinnerComparesOnlyUnderEqualConditions) {
  // The harness keys a run by its conditions, not by its iteration count
  // or seed: a 14-iteration tuned run and a 6-iteration fixed run with
  // another seed are the same scenario...
  harness::MicroScenario s;
  s.platform = net::whale();
  s.nprocs = 4;
  s.op = harness::OpKind::Ibcast;
  s.bytes = 1024;
  s.noise_scale = 0.0;
  harness::MicroScenario fixed_s = s;
  fixed_s.iterations = 6;
  fixed_s.seed = 9;
  harness::MicroScenario tuned_s = s;
  tuned_s.iterations = 14;
  tuned_s.seed = 3;
  const trace::ScenarioKey fixed_k =
      harness::scenario_key(fixed_s, /*tuned=*/false, "binomial");
  const trace::ScenarioKey tuned_k =
      harness::scenario_key(tuned_s, /*tuned=*/true, "brute-force");
  const analyze::Report paired = analyze_all({
      synth(fixed_k, 4, 100e-6),
      synth(tuned_k, 4, 200e-6, false, /*decision=*/0.0),
  });
  EXPECT_EQ(find_g(paired, "G2").checked, 1);
  EXPECT_EQ(find_g(paired, "G2").passed, 0);

  // ...but a noisy tuned run is not judged against noise-free fixed runs,
  // although all three render the same labels.
  harness::MicroScenario noisy_s = tuned_s;
  noisy_s.noise_scale = 1.0;
  const trace::ScenarioKey noisy_k =
      harness::scenario_key(noisy_s, /*tuned=*/true, "brute-force");
  EXPECT_EQ(noisy_k.label(), tuned_k.label());
  EXPECT_NE(noisy_k, tuned_k);
  const analyze::Report apart = analyze_all({
      synth(fixed_k, 4, 100e-6),
      synth(noisy_k, 4, 200e-6, false, /*decision=*/0.0),
  });
  EXPECT_EQ(find_g(apart, "G2").checked, 0);

  // Neither are runs that differ in progress calls or compute.
  for (auto vary : {+[](harness::MicroScenario& m) { m.progress_calls = 1; },
                    +[](harness::MicroScenario& m) {
                      m.compute_per_iter = 1e-3;
                    }}) {
    harness::MicroScenario other = tuned_s;
    vary(other);
    const analyze::Report r = analyze_all({
        synth(fixed_k, 4, 100e-6),
        synth(harness::scenario_key(other, /*tuned=*/true, "brute-force"), 4,
              200e-6, false, /*decision=*/0.0),
    });
    EXPECT_EQ(find_g(r, "G2").checked, 0);
  }
}

TEST(AnalyzeGuidelines, UnkeyedScenariosOnlyCheckG1) {
  // Labels alone carry no identity: scenarios that would form G2, G4 and
  // G6 pairs if keyed are only checked for conservation.
  const analyze::Report r = analyze_all({
      synth("ibcast whale np4 1024B fixed:a", 2, 100e-6),
      synth("ibcast whale np4 2048B fixed:a", 2, 900e-6),
      synth("ibcast whale np8 1024B fixed:a", 2, 50e-6),
      synth("ibcast whale np4 1024B adcl:brute-force", 2, 900e-6, false, 0.0),
  });
  EXPECT_EQ(find_g(r, "G1").checked, 4);
  for (const char* id : {"G2", "G3", "G4", "G5", "G6", "G7"}) {
    EXPECT_EQ(find_g(r, id).checked, 0) << id;
  }
}

TEST(AnalyzeGuidelines, NonBlockingVsBlockingAtZeroCompute) {
  const auto a2a = [](const char* impl) {
    return key("ialltoall", "whale", 8, 4096, false, impl);
  };
  const analyze::Report ok = analyze_all({
      synth(a2a("linear"), 2, 100e-6),
      synth(a2a("blocking-linear"), 2, 110e-6),
  });
  EXPECT_EQ(find_g(ok, "G3").checked, 1);
  EXPECT_EQ(find_g(ok, "G3").passed, 1);

  // A non-blocking run 2x slower than its blocking twin violates G3...
  const analyze::Report bad = analyze_all({
      synth(a2a("linear"), 2, 220e-6),
      synth(a2a("blocking-linear"), 2, 110e-6),
  });
  EXPECT_EQ(find_g(bad, "G3").passed, 0);

  // ...but only at zero compute: with compute in the loop the check
  // does not apply.
  const analyze::Report na = analyze_all({
      synth(a2a("linear"), 2, 220e-6, /*with_compute=*/true),
      synth(a2a("blocking-linear"), 2, 110e-6, /*with_compute=*/true),
  });
  EXPECT_EQ(find_g(na, "G3").checked, 0);
  EXPECT_STREQ(find_g(na, "G3").status(), "n/a");
}

TEST(AnalyzeGuidelines, MonotoneInMessageSize) {
  const analyze::Report ok = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(4, 4096, "a"), 2, 150e-6),
      synth(bcast(4, 16384, "a"), 2, 400e-6),
  });
  EXPECT_EQ(find_g(ok, "G4").checked, 2);
  EXPECT_EQ(find_g(ok, "G4").passed, 2);

  const analyze::Report bad = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(4, 4096, "a"), 2, 50e-6),
  });
  EXPECT_EQ(find_g(bad, "G4").checked, 1);
  EXPECT_EQ(find_g(bad, "G4").passed, 0);
}

TEST(AnalyzeGuidelines, SplitMockupBoundsDoubledSize) {
  // G5: the full-size op may cost at most 2x the half-size op (+epsilon),
  // because running the op twice at half size is a valid mock-up.
  const analyze::Report ok = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(4, 2048, "a"), 2, 190e-6),
  });
  EXPECT_EQ(find_g(ok, "G5").checked, 1);
  EXPECT_EQ(find_g(ok, "G5").passed, 1);

  // 2.6x the half-size time exceeds 2x(1 + 0.25): a split would win.
  const analyze::Report bad = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(4, 2048, "a"), 2, 260e-6),
  });
  EXPECT_EQ(find_g(bad, "G5").checked, 1);
  EXPECT_EQ(find_g(bad, "G5").passed, 0);
  ASSERT_EQ(find_g(bad, "G5").violations.size(), 1u);

  // Non-doubling adjacent sizes (1 KiB -> 4 KiB) are not split pairs.
  const analyze::Report na = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(4, 4096, "a"), 2, 900e-6),
  });
  EXPECT_EQ(find_g(na, "G5").checked, 0);
}

TEST(AnalyzeGuidelines, MonotoneInProcessCount) {
  // G6: growing np at fixed size/impl may not make the collective faster
  // (beyond the monotonicity tolerance).
  const analyze::Report ok = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(8, 1024, "a"), 2, 140e-6),
      synth(bcast(16, 1024, "a"), 2, 200e-6),
  });
  EXPECT_EQ(find_g(ok, "G6").checked, 2);
  EXPECT_EQ(find_g(ok, "G6").passed, 2);

  const analyze::Report bad = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(8, 1024, "a"), 2, 50e-6),
  });
  EXPECT_EQ(find_g(bad, "G6").checked, 1);
  EXPECT_EQ(find_g(bad, "G6").passed, 0);

  // Different sizes land in different rank groups: nothing to compare.
  const analyze::Report na = analyze_all({
      synth(bcast(4, 1024, "a"), 2, 100e-6),
      synth(bcast(8, 2048, "a"), 2, 50e-6),
  });
  EXPECT_EQ(find_g(na, "G6").checked, 0);
}

TEST(AnalyzeGuidelines, TwoLevelBeatsOrMatchesFlatOnMultiNode) {
  // G7: on a multi-node run (whale has 8 cores/node, so np32 spans 4
  // nodes) the two-level variant must stay within epsilon of the fastest
  // flat member of its family.
  const auto b32 = [](const char* impl) { return bcast(32, 65536, impl); };
  const analyze::Report ok = analyze_all({
      synth(b32("binomial/seg32k"), 2, 110e-6),
      synth(b32("binomial/seg64k"), 2, 100e-6),
      synth(b32("2lvl-binomial"), 2, 90e-6),
  });
  EXPECT_EQ(find_g(ok, "G7").checked, 1);
  EXPECT_EQ(find_g(ok, "G7").passed, 1);

  // 2x the flat time exceeds epsilon: hierarchy awareness did not pay.
  const analyze::Report bad = analyze_all({
      synth(b32("binomial/seg32k"), 2, 100e-6),
      synth(b32("2lvl-binomial"), 2, 200e-6),
  });
  EXPECT_EQ(find_g(bad, "G7").checked, 1);
  EXPECT_EQ(find_g(bad, "G7").passed, 0);
  ASSERT_EQ(find_g(bad, "G7").violations.size(), 1u);
  EXPECT_STREQ(find_g(bad, "G7").status(), "FAIL");

  // Exact-name twin (unsegmented families like iallreduce).
  const auto r32 = [](const char* impl) {
    return key("iallreduce", "whale", 32, 65536, false, impl);
  };
  const analyze::Report exact = analyze_all({
      synth(r32("reduce-bcast"), 2, 100e-6),
      synth(r32("2lvl-reduce-bcast"), 2, 100e-6),
  });
  EXPECT_EQ(find_g(exact, "G7").checked, 1);
  EXPECT_EQ(find_g(exact, "G7").passed, 1);

  // Single-node runs are skipped: np4 fits inside one whale node, where
  // the two-level shape degenerates to the flat one.
  const analyze::Report single = analyze_all({
      synth(bcast(4, 65536, "binomial/seg32k"), 2, 100e-6),
      synth(bcast(4, 65536, "2lvl-binomial"), 2, 400e-6),
  });
  EXPECT_EQ(find_g(single, "G7").checked, 0);
  EXPECT_STREQ(find_g(single, "G7").status(), "n/a");

  // Unknown platforms carry no node geometry: nothing to check.
  const analyze::Report unknown = analyze_all({
      synth(key("ibcast", "lab9", 32, 65536, false, "binomial/seg32k"), 2,
            100e-6),
      synth(key("ibcast", "lab9", 32, 65536, false, "2lvl-binomial"), 2,
            400e-6),
  });
  EXPECT_EQ(find_g(unknown, "G7").checked, 0);
}

namespace {

/// A hand-built scenario report: two completed ops of `mean` seconds
/// (`post` after the ADCL decision; `mean` when negative).
analyze::ScenarioReport cell(const trace::ScenarioKey& k, double mean,
                             double post = -1.0, bool zero_compute = true) {
  analyze::ScenarioReport s;
  s.label = k.label();
  s.key = k;
  s.ops_started = 2;
  s.ops_completed = 2;
  s.mean_op_elapsed = mean;
  s.post_decision_op_elapsed = post < 0.0 ? mean : post;
  s.zero_compute = zero_compute;
  return s;
}

}  // namespace

TEST(AnalyzeGuidelines, ViolationTextsArePinned) {
  // Every comparative guideline fails at least once, in more than one
  // group where it can, so the exact wording, the nanosecond rounding
  // and the group order of each violation are pinned.  No golden report
  // holds a violation, so this is the one place that fixes them.
  const auto a2a = [](int np, std::uint64_t bytes, const char* impl) {
    return key("ialltoall", "whale", np, bytes, false, impl);
  };
  analyze::ScenarioReport lost = cell(bcast(2, 64, "lost"), 1e-6);
  lost.ops_started = 5;
  lost.ops_completed = 3;
  lost.ops_aborted = 1;
  const std::vector<analyze::ScenarioReport> cells{
      lost,
      // G2: tuned slower than the best fixed member, post-decision.
      cell(bcast(4, 1024, "fast"), 100.4e-6),
      cell(bcast(4, 1024, "slow"), 300e-6),
      cell(key("ibcast", "whale", 4, 1024, true, "brute-force"), 100e-6,
           200.0006e-6),
      // G3: non-blocking slower than its blocking twin at zero compute.
      cell(a2a(8, 4096, "linear"), 220.5e-6),
      cell(a2a(8, 4096, "blocking-linear"), 110e-6),
      // G4 (two size groups) and G5: dips and a more-than-doubling.
      cell(bcast(16, 1024, "a"), 100e-6),
      cell(bcast(16, 2048, "a"), 90e-6),
      cell(bcast(16, 4096, "a"), 400e-6),
      cell(bcast(16, 512, "b"), 300e-6),
      cell(bcast(16, 1536, "b"), 123.4567e-6),
      // G6 (two rank groups): more ranks, less time.
      cell(a2a(2, 64, "pairwise"), 80e-6),
      cell(a2a(6, 64, "pairwise"), 40e-6),
      cell(a2a(12, 64, "pairwise"), 41e-6),
      cell(a2a(3, 128, "bruck"), 70e-6),
      cell(a2a(5, 128, "bruck"), 10e-6),
      // G7: two-level slower than its fastest flat family member.
      cell(bcast(32, 65536, "binomial/seg32k"), 100e-6),
      cell(bcast(32, 65536, "binomial/seg64k"), 90e-6),
      cell(bcast(32, 65536, "2lvl-binomial"), 250e-6),
  };
  const std::vector<analyze::GuidelineResult> g =
      analyze::check_guidelines(cells);
  ASSERT_EQ(g.size(), 7u);
  using V = std::vector<std::string>;
  EXPECT_EQ(g[0].violations,
            V{"ibcast whale np2 64B fixed:lost: started 5 != completed 3 + "
              "aborted 1"});
  EXPECT_EQ(g[1].violations,
            V{"ibcast whale np4 1024B adcl:brute-force: tuned 200001ns > "
              "best fixed 100400ns (ibcast whale np4 1024B fixed:fast)"});
  EXPECT_EQ(g[2].violations,
            V{"ialltoall whale np8 4096B fixed:linear: non-blocking "
              "220500ns > blocking 110000ns"});
  EXPECT_EQ(g[3].violations,
            (V{"ibcast whale np16 2048B fixed:a: 90000ns at 2048B < "
               "100000ns at 1024B",
               "ibcast whale np16 1536B fixed:b: 123457ns at 1536B < "
               "300000ns at 512B"}));
  EXPECT_EQ(g[4].violations,
            V{"ibcast whale np16 4096B fixed:a: 400000ns > 2x 90000ns at "
              "2048B"});
  EXPECT_EQ(g[5].violations,
            (V{"ialltoall whale np6 64B fixed:pairwise: 40000ns at np6 < "
               "80000ns at np2",
               "ialltoall whale np5 128B fixed:bruck: 10000ns at np5 < "
               "70000ns at np3"}));
  EXPECT_EQ(g[6].violations,
            V{"ibcast whale np32 65536B fixed:2lvl-binomial: two-level "
              "250000ns > flat 90000ns (ibcast whale np32 65536B "
              "fixed:binomial/seg64k)"});
}

TEST(AnalyzeAdcl, PruneEventsLandInAudit) {
  const trace::FinishedTrace tr = traced("ialltoall whale np2 64B adcl:g",
                                           [] {
    trace::instant(1.0, 0, trace::Kind::AdclPrune, 0, 45000, 2);
    trace::instant(2.0, 0, trace::Kind::AdclPrune, 1, 45000, 4);
    trace::instant(3.0, 0, trace::Kind::AdclDecision, 2, 6, 6);
  });
  const analyze::Report r = analyze_all({tr});
  const analyze::AdclAudit& a = r.scenarios.at(0).adcl;
  ASSERT_TRUE(a.present);
  ASSERT_EQ(a.prunes.size(), 2u);
  EXPECT_EQ(a.prunes[0].func, 0);
  EXPECT_NEAR(a.prunes[0].bound, 45000e-9, 1e-15);
  EXPECT_EQ(a.prunes[0].iteration, 2);
  EXPECT_EQ(a.prunes[1].func, 1);
  EXPECT_EQ(a.prunes[1].iteration, 4);

  // The prunes ride the JSON report as a conditional array.
  std::ostringstream os;
  analyze::write_json(os, r);
  EXPECT_NE(os.str().find("\"prunes\":[{\"func\":0,\"bound_ns\":45000"),
            std::string::npos);
}

// --------------------------------------------------------- sample stats

TEST(AnalyzeStats, OrderStatsMedianAndCi) {
  // n = 9, samples 1..9 ms (shuffled): median is the 5th order statistic;
  // the ~95% CI ranks are (n-1)/2 +- 0.98*sqrt(9) = 4 +- 2.94, i.e.
  // floor(1.06) = 1 and ceil(6.94) = 7 -> bounds v[1] and v[7].
  std::vector<double> v;
  for (int i = 9; i >= 1; --i) v.push_back(i * 1e-3);
  const analyze::SampleStats st = analyze::order_stats(v);
  EXPECT_EQ(st.n, 9u);
  EXPECT_DOUBLE_EQ(st.median, 5e-3);
  EXPECT_DOUBLE_EQ(st.lo, 2e-3);
  EXPECT_DOUBLE_EQ(st.hi, 8e-3);

  // Even n: the median interpolates the two central order statistics.
  const analyze::SampleStats ev =
      analyze::order_stats({4e-3, 1e-3, 3e-3, 2e-3});
  EXPECT_EQ(ev.n, 4u);
  EXPECT_DOUBLE_EQ(ev.median, 2.5e-3);
  // Ranks 1.5 +- 1.96 clamp to the full sample.
  EXPECT_DOUBLE_EQ(ev.lo, 1e-3);
  EXPECT_DOUBLE_EQ(ev.hi, 4e-3);

  // Degenerate sizes.
  const analyze::SampleStats one = analyze::order_stats({7e-3});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.median, 7e-3);
  EXPECT_DOUBLE_EQ(one.lo, 7e-3);
  EXPECT_DOUBLE_EQ(one.hi, 7e-3);
  EXPECT_EQ(analyze::order_stats({}).n, 0u);
}

TEST(AnalyzeStats, MinRepsGateFlagsThinSamples) {
  // 3 ops with default min_reps = 5: flagged as not-a-measurement.
  const analyze::Report thin =
      analyze_all({synth("thin", 3, 100e-6)});
  EXPECT_EQ(thin.scenarios.at(0).op_stats.n, 3u);
  EXPECT_FALSE(thin.scenarios.at(0).min_reps_met);

  const analyze::Report fat = analyze_all({synth("fat", 6, 100e-6)});
  EXPECT_EQ(fat.scenarios.at(0).op_stats.n, 6u);
  EXPECT_TRUE(fat.scenarios.at(0).min_reps_met);

  // The knob is honoured.
  analyze::Options opts;
  opts.min_reps = 2;
  const analyze::Report low =
      analyze_all({synth("thin", 3, 100e-6)}, opts);
  EXPECT_TRUE(low.scenarios.at(0).min_reps_met);

  // The table writer surfaces the flag.
  std::ostringstream os;
  analyze::write_table(os, thin);
  EXPECT_NE(os.str().find("[below min-reps: not a measurement]"),
            std::string::npos);
}

// ----------------------------------------------------- regression gate

namespace {

/// Round-trip a Report through the JSON writer into a regress digest.
analyze::ReportDigest digest_of(const analyze::Report& r) {
  std::ostringstream os;
  analyze::write_json(os, r);
  std::istringstream is(os.str());
  return analyze::read_report_json(is);
}

}  // namespace

TEST(AnalyzeRegress, SelfDiffIsClean) {
  const analyze::Report r = analyze_all({
      synth("ibcast whale np4 1024B fixed:a", 6, 100e-6),
      synth("ibcast whale np4 2048B fixed:a", 6, 190e-6),
  });
  const analyze::ReportDigest d = digest_of(r);
  EXPECT_EQ(d.schema, "nbctune-report-v2");
  ASSERT_EQ(d.scenarios.size(), 2u);
  EXPECT_EQ(d.scenarios[0].stat_n, 6u);

  const analyze::RegressResult res =
      analyze::regress(d, d, analyze::RegressTolerances{});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.scenarios_compared, 2u);
  EXPECT_EQ(res.guidelines_compared, 7u);
}

TEST(AnalyzeRegress, InjectedDriftFails) {
  const analyze::Report old_r =
      analyze_all({synth("ibcast whale np4 1024B fixed:a", 6, 100e-6)});
  // 3x the op time: relative drift 2.0 >> op_rel, and the degenerate CIs
  // ([100,100] vs [300,300] us) are disjoint, so the CI arbitration does
  // not save it.
  const analyze::Report new_r =
      analyze_all({synth("ibcast whale np4 1024B fixed:a", 6, 300e-6)});
  const analyze::RegressResult res = analyze::regress(
      digest_of(old_r), digest_of(new_r), analyze::RegressTolerances{});
  ASSERT_FALSE(res.ok());
  bool saw_op_drift = false;
  for (const auto& v : res.violations) {
    if (v.what.find("mean op time drifted") != std::string::npos) {
      saw_op_drift = true;
    }
  }
  EXPECT_TRUE(saw_op_drift);

  std::ostringstream os;
  analyze::write_regress(os, res, analyze::RegressTolerances{});
  EXPECT_NE(os.str().find("REGRESSION:"), std::string::npos);
}

TEST(AnalyzeRegress, SameLabelScenariosPairInOrder) {
  // Repetitions share a label.  Only the second of two drifts, which a
  // pairing of every scenario with the first same-label one misses.
  const std::string label = "ibcast whale np4 1024B fixed:a";
  const analyze::ReportDigest old_d = digest_of(analyze_all(
      {synth(label, 6, 100e-6), synth(label, 6, 100e-6)}));
  const analyze::ReportDigest new_d = digest_of(analyze_all(
      {synth(label, 6, 100e-6), synth(label, 6, 300e-6)}));
  const analyze::RegressResult res =
      analyze::regress(old_d, new_d, analyze::RegressTolerances{});
  EXPECT_EQ(res.scenarios_compared, 2u);
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_NE(res.violations[0].what.find("mean op time drifted"),
            std::string::npos);

  // A third repetition in the new report has no partner in the old one.
  const analyze::ReportDigest more = digest_of(analyze_all(
      {synth(label, 6, 100e-6), synth(label, 6, 100e-6),
       synth(label, 6, 100e-6)}));
  const analyze::RegressResult extra =
      analyze::regress(old_d, more, analyze::RegressTolerances{});
  ASSERT_EQ(extra.violations.size(), 1u);
  EXPECT_EQ(extra.violations[0].what, "scenario absent from old report");
}

TEST(AnalyzeRegress, CiOverlapForgivesSubstantialDrift) {
  // With CI arbitration off, a 40% drift fails outright...
  analyze::ReportDigest o;
  o.schema = "nbctune-report-v2";
  analyze::ScenarioDigest s;
  s.label = "x";
  s.mean_op = 100e-6;
  s.stat_n = 9;
  s.ci_lo = 80e-6;
  s.ci_hi = 160e-6;
  o.scenarios.push_back(s);
  analyze::ReportDigest n = o;
  n.scenarios[0].mean_op = 140e-6;
  n.scenarios[0].ci_lo = 90e-6;
  n.scenarios[0].ci_hi = 200e-6;

  analyze::RegressTolerances strict;
  strict.ci_separation = false;
  EXPECT_FALSE(analyze::regress(o, n, strict).ok());

  // ...but with overlapping ~95% CIs the runs are compatible: forgiven.
  analyze::RegressTolerances lenient;
  lenient.ci_separation = true;
  EXPECT_TRUE(analyze::regress(o, n, lenient).ok());

  // Disjoint CIs at the same relative drift: a real regression.
  n.scenarios[0].ci_lo = 170e-6;
  n.scenarios[0].ci_hi = 210e-6;
  EXPECT_FALSE(analyze::regress(o, n, lenient).ok());
}

TEST(AnalyzeRegress, StructuralChangesAlwaysFlagged) {
  const analyze::Report base =
      analyze_all({synth("ibcast whale np4 1024B fixed:a", 6, 100e-6)});
  const analyze::ReportDigest d = digest_of(base);

  // A scenario vanishing from the new report is a violation.
  analyze::ReportDigest gone = d;
  gone.scenarios.clear();
  EXPECT_FALSE(analyze::regress(d, gone, analyze::RegressTolerances{}).ok());

  // So is a winner flip.
  analyze::ReportDigest o = d, n = d;
  o.scenarios[0].has_adcl = true;
  o.scenarios[0].adcl_winner = 0;
  n.scenarios[0].has_adcl = true;
  n.scenarios[0].adcl_winner = 2;
  const analyze::RegressResult flip =
      analyze::regress(o, n, analyze::RegressTolerances{});
  ASSERT_FALSE(flip.ok());
  EXPECT_NE(flip.violations[0].what.find("winner flipped"),
            std::string::npos);

  // And a guideline regressing from pass to fail.
  analyze::ReportDigest gbad = d;
  for (auto& g : gbad.guidelines) {
    if (g.id == "G1") g.violations = 1;
  }
  EXPECT_FALSE(analyze::regress(d, gbad, analyze::RegressTolerances{}).ok());
}

TEST(AnalyzeRegress, ToleranceParsing) {
  analyze::RegressTolerances tol;
  EXPECT_TRUE(tol.set("blame_share", "0.2"));
  EXPECT_DOUBLE_EQ(tol.blame_share, 0.2);
  EXPECT_TRUE(tol.set("ci_separation", "0"));
  EXPECT_FALSE(tol.ci_separation);
  EXPECT_FALSE(tol.set("bogus_key", "1"));
  EXPECT_FALSE(tol.set("op_rel", "fast"));
  // Only finite values >= 0: NaN or infinity would pass every drift.
  for (const char* bad : {"nan", "inf", "-inf", "-0.1"}) {
    for (const char* key :
         {"blame_share", "op_rel", "overlap", "ci_separation"}) {
      EXPECT_FALSE(tol.set(key, bad)) << key << " " << bad;
    }
  }
  EXPECT_DOUBLE_EQ(tol.blame_share, 0.2);
  EXPECT_DOUBLE_EQ(tol.op_rel, 0.25);
  EXPECT_TRUE(tol.set("op_rel", "0"));
  EXPECT_DOUBLE_EQ(tol.op_rel, 0.0);

  std::istringstream cfg(
      "# comment\n\nblame_share 0.15  # trailing comment\nop_rel 0.5\n");
  analyze::read_tolerances(cfg, tol);
  EXPECT_DOUBLE_EQ(tol.blame_share, 0.15);
  EXPECT_DOUBLE_EQ(tol.op_rel, 0.5);

  std::istringstream bad("no_such_knob 1\n");
  EXPECT_THROW(analyze::read_tolerances(bad, tol), std::runtime_error);
  std::istringstream nan_line("op_rel nan\n");
  EXPECT_THROW(analyze::read_tolerances(nan_line, tol), std::runtime_error);
}

TEST(AnalyzeRegress, RejectsForeignJson) {
  std::istringstream not_a_report("{\"traceEvents\":[]}");
  EXPECT_THROW(analyze::read_report_json(not_a_report), std::runtime_error);
}

// ------------------------------------------------------ parser limits

namespace {

/// The input that used to overflow the parser's stack: 200,000 `[`.
const std::string kDeep(200000, '[');

std::string depth_error(std::size_t offset) {
  return "JSON parse error at byte " + std::to_string(offset) +
         ": nesting deeper than " +
         std::to_string(analyze::jsonmin::kMaxDepth) + " levels";
}

}  // namespace

TEST(JsonMin, RejectsNestingBeyondTheLimitWithItsOffset) {
  const std::size_t limit = analyze::jsonmin::kMaxDepth;
  EXPECT_NO_THROW((void)analyze::jsonmin::parse(std::string(limit, '[') +
                                                std::string(limit, ']')));
  try {
    (void)analyze::jsonmin::parse(kDeep);
    FAIL() << "expected a depth error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), depth_error(limit));
  }
  // Objects nest against the same limit.
  std::string objects;
  for (std::size_t i = 0; i <= limit; ++i) objects += "{\"k\":";
  try {
    (void)analyze::jsonmin::parse(objects);
    FAIL() << "expected a depth error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), depth_error(5 * limit));
  }
}

TEST(JsonMin, EveryReaderRejectsDeepInput) {
  std::istringstream chrome("{\"traceEvents\":" + kDeep);
  try {
    (void)analyze::read_chrome(chrome);
    FAIL() << "expected a depth error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), depth_error(15 + analyze::jsonmin::kMaxDepth - 1));
  }
  std::istringstream report(kDeep);
  EXPECT_THROW((void)analyze::read_report_json(report), std::runtime_error);
  // The live-stream intake skips the line like any other foreign line.
  obs::TopState top;
  EXPECT_FALSE(top.feed_line("{\"type\":" + kDeep));
  EXPECT_EQ(top.finished(), 0u);
}

TEST(JsonMin, MalformedNumbersFailAtTheirOffset) {
  for (const std::string bad : {"-", "1-2", "e", "--5"}) {
    try {
      (void)analyze::jsonmin::parse("[0, " + bad + "]");
      FAIL() << "expected '" << bad << "' to be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), "JSON parse error at byte 4: malformed number '" +
                              bad + "'");
    }
  }
  EXPECT_EQ(analyze::jsonmin::parse("[-1.5e3]").arr->front().num, -1500.0);
  EXPECT_TRUE(std::isinf(analyze::jsonmin::parse("1e999").num));
}

TEST(JsonMin, AsIntYieldsOnlyNumbersTheTypeHolds) {
  const auto num = [](double d) {
    analyze::jsonmin::Value v;
    v.kind = analyze::jsonmin::Value::Kind::Num;
    v.num = d;
    return v;
  };
  EXPECT_EQ(num(42.9).as_int<int>(), 42);
  EXPECT_EQ(num(2147483647.0).as_int<std::int32_t>(), 2147483647);
  EXPECT_EQ(num(2147483648.0).as_int<std::int32_t>(), std::nullopt);
  EXPECT_EQ(num(-2147483648.0).as_int<std::int32_t>(), -2147483647 - 1);
  EXPECT_EQ(num(-1.0).as_int<std::uint64_t>(), std::nullopt);
  // The largest double below 2^64 fits a uint64; 2^64 itself does not.
  EXPECT_EQ(num(18446744073709549568.0).as_int<std::uint64_t>(),
            18446744073709549568ull);
  EXPECT_EQ(num(18446744073709551616.0).as_int<std::uint64_t>(),
            std::nullopt);
  EXPECT_EQ(num(1e300).as_int<long long>(), std::nullopt);
  EXPECT_EQ(num(std::nan("")).as_int<int>(), std::nullopt);
  EXPECT_EQ(analyze::jsonmin::Value{}.as_int<int>(), std::nullopt);
}

TEST(JsonMin, EveryReaderRangeChecksIntegers) {
  // read_chrome names the event index and the field.
  const auto chrome_error = [](const std::string& event) {
    std::istringstream is(
        R"({"traceEvents":[{"ph":"M","pid":0,"name":"process_name",)"
        R"("args":{"name":"x"}},)" + event + "]}");
    try {
      (void)analyze::read_chrome(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string ok_event =
      R"({"pid":0,"tid":0,"name":"nbc.start","ph":"i","ts":1.0,)"
      R"("args":{"rounds":2,"tag":9,"corr":1}})";
  EXPECT_EQ(chrome_error(ok_event), "no error");
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string e = ok_event;
    e.replace(e.find(from), from.size(), to);
    return e;
  };
  const std::string prefix = "chrome trace: event 1: ";
  EXPECT_EQ(chrome_error(with("\"pid\":0", "\"pid\":1e300")),
            prefix + "pid is not an integer in range");
  EXPECT_EQ(chrome_error(with("\"tid\":0", "\"tid\":-1e300")),
            prefix + "tid is not an integer in range");
  EXPECT_EQ(chrome_error(with("\"rounds\":2", "\"rounds\":1e300")),
            prefix + "rounds is not an integer in range");
  EXPECT_EQ(chrome_error(with("\"corr\":1", "\"corr\":-1")),
            prefix + "corr is not an integer in range");
  EXPECT_EQ(chrome_error(with("\"ts\":1.0", "\"ts\":-1e999")),
            prefix + "ts is not a finite number");

  // The --regress report reader names the scenario or guideline by its
  // array index and its label or id.
  const auto regress_error = [](const std::string& scenario,
                                const std::string& guideline) {
    std::istringstream is(R"({"schema":"nbctune-report-v2","scenarios":[)" +
                          scenario + R"(],"guidelines":[)" + guideline +
                          "]}");
    try {
      (void)analyze::read_report_json(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string ok_scenario =
      R"({"label":"s0","ops_completed":4,"stats":{"op":{"n":4}},)"
      R"("adcl":{"winner":1}})";
  const std::string ok_guideline = R"({"id":"G1","checked":1,"passed":1})";
  EXPECT_EQ(regress_error(ok_scenario, ok_guideline), "no error");
  const auto bad = [](std::string json, const std::string& field,
                      const char* value) {
    const std::size_t at = json.find("\"" + field + "\":") + field.size() + 3;
    json.replace(at, json.find_first_of(",}", at) - at, value);
    return json;
  };
  for (const std::string field : {"ops_completed", "n", "winner"}) {
    EXPECT_EQ(regress_error(bad(ok_scenario, field, "1e300"), ok_guideline),
              "scenario 0 's0': " + field + " is not an integer in range");
  }
  for (const std::string field : {"checked", "passed"}) {
    EXPECT_EQ(regress_error(ok_scenario, bad(ok_guideline, field, "-1e300")),
              "guideline 0 'G1': " + field + " is not an integer in range");
  }

  // TopState skips the line and keeps its state.
  obs::TopState top;
  EXPECT_TRUE(top.feed_line(R"({"seq":1,"t_ms":0,"type":"batch","tasks":3})"));
  EXPECT_FALSE(
      top.feed_line(R"({"seq":2,"t_ms":0,"type":"batch","tasks":1e300})"));
  EXPECT_FALSE(top.feed_line(
      R"({"seq":1e300,"t_ms":5,"type":"scenario","phase":"finished",)"
      R"("label":"x","ops":4})"));
  EXPECT_FALSE(top.feed_line(
      R"({"seq":3,"t_ms":5,"type":"scenario","phase":"finished",)"
      R"("label":"x","ops":4,"blame_bp":{"wire":-1e300}})"));
  EXPECT_EQ(top.submitted(), 3u);
  EXPECT_EQ(top.finished(), 0u);
  EXPECT_EQ(top.last_t_ms(), 0);
  EXPECT_EQ(top.seq_errors(), 0u);
}

// ------------------------------------------------- report determinism

TEST(AnalyzeReport, JsonIsByteIdenticalAcrossThreadCounts) {
  trace::Session::enable();
  auto sweep = [&](int threads) {
    (void)trace::Session::instance().drain();
    harness::ScenarioPool pool(threads);
    pool.run_indexed(6, [&](std::size_t i) {
      trace::Scope scope("task " + std::to_string(i));
      run_ibcast(2 + static_cast<int>(i % 3), 512 << i, 1,
                 /*seed=*/i + 1);
    });
    std::ostringstream os;
    analyze::write_json(os,
                        analyze::analyze(trace::Session::instance().drain()));
    return os.str();
  };
  const std::string j1 = sweep(1);
  const std::string j4 = sweep(4);
  EXPECT_EQ(j1, j4);
  EXPECT_NE(j1.find("\"schema\":\"nbctune-report-v2\""), std::string::npos);
  EXPECT_NE(j1.find("\"stats\":{\"min_reps_met\":"), std::string::npos);
  EXPECT_NE(j1.find("\"guidelines\":["), std::string::npos);
}

TEST(AnalyzeReport, TableWriterMentionsEverySection) {
  const trace::FinishedTrace tr =
      traced("table", [] { run_ibcast(2, 4096); });
  std::ostringstream os;
  analyze::write_table(os, analyze_all({tr}));
  const std::string s = os.str();
  EXPECT_NE(s.find("blame:"), std::string::npos);
  EXPECT_NE(s.find("worst op:"), std::string::npos);
  EXPECT_NE(s.find("guidelines"), std::string::npos);
  EXPECT_NE(s.find("[pass] G1"), std::string::npos);
}

// --------------------------------------------------- attached reports

namespace {

/// A copy of `t` that carries no attached report.
trace::FinishedTrace bare_copy(const trace::FinishedTrace& t) {
  trace::FinishedTrace c;
  c.label = t.label;
  c.key = t.key;
  c.events = t.events;
  c.counts = t.counts;
  c.hists = t.hists;
  return c;
}

/// The report JSON of analyze() over the one trace `t`.
std::string report_json(const trace::FinishedTrace& t,
                        const analyze::Options& opts = {}) {
  std::ostringstream os;
  analyze::write_json(os, analyze::analyze(std::span(&t, 1), opts));
  return os.str();
}

}  // namespace

TEST(AnalyzeAttached, CopiesShareTheReportAndAttachIsSetOnce) {
  const trace::FinishedTrace t =
      traced("shared", [] { run_ibcast(4, 4096, 6); });
  EXPECT_EQ(t.attached(), nullptr);
  EXPECT_EQ(analyze::attached_report(t), nullptr);
  const std::shared_ptr<const analyze::ScenarioReport> a =
      analyze::attach_report(t);
  ASSERT_NE(t.attached(), nullptr);
  EXPECT_EQ(analyze::attached_report(t), a.get());

  // A second attach computes afresh but leaves the first report in place.
  const analyze::AttachedReport* slot = t.attached();
  const std::shared_ptr<const analyze::ScenarioReport> b =
      analyze::attach_report(t);
  EXPECT_NE(b, a);
  EXPECT_EQ(t.attached(), slot);
  EXPECT_EQ(analyze::attached_report(t), a.get());

  // Copies share it: a plain copy, from_finished, and a session round
  // trip through adopt and drain.
  const trace::FinishedTrace copy = t;
  EXPECT_EQ(copy.attached(), slot);
  EXPECT_EQ(analyze::from_finished(t).attached(), slot);
  (void)trace::Session::instance().drain();
  trace::Session::instance().adopt(t);
  const std::vector<trace::FinishedTrace> drained =
      trace::Session::instance().drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].attached(), slot);
  EXPECT_EQ(analyze::attached_report(drained[0]), a.get());

  // The reused report gives the bytes a fresh analysis gives.
  EXPECT_EQ(report_json(t), report_json(bare_copy(t)));
}

TEST(AnalyzeAttached, EditedTraceIsReanalyzedNeverServedStale) {
  const trace::FinishedTrace base =
      traced("edited", [] { run_ibcast(4, 4096, 6); });
  (void)analyze::attach_report(base);
  ASSERT_NE(analyze::attached_report(base), nullptr);
  const std::string stale = report_json(base);

  const std::vector<
      std::pair<const char*, std::function<void(trace::FinishedTrace&)>>>
      edits = {
          {"one event",
           [](trace::FinishedTrace& t) {
             for (trace::Event& e : t.events) {
               if (e.kind == trace::Kind::NbcOp && e.is_span()) {
                 e.dur *= 2.0;
                 return;
               }
             }
             FAIL() << "no nbc.op span";
           }},
          {"one counter",
           [](trace::FinishedTrace& t) {
             t.counts[static_cast<std::size_t>(
                 trace::Ctr::TraceDroppedEvents)] += 8;
           }},
          {"the label", [](trace::FinishedTrace& t) { t.label += " v2"; }},
      };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    trace::FinishedTrace t = base;
    ASSERT_EQ(t.attached(), base.attached());
    edit(t);
    EXPECT_EQ(analyze::attached_report(t), nullptr);
    const std::string json = report_json(t);
    EXPECT_EQ(json, report_json(bare_copy(t)));
    EXPECT_NE(json, stale);
  }
  // The unedited original still reuses its report.
  EXPECT_NE(analyze::attached_report(base), nullptr);
}

TEST(AnalyzeAttached, NonDefaultOptionsRecompute) {
  const trace::FinishedTrace t =
      traced("options", [] { run_ibcast(4, 4096, 6); });
  const std::shared_ptr<const analyze::ScenarioReport> a =
      analyze::attach_report(t);
  ASSERT_TRUE(a->min_reps_met);
  ASSERT_FALSE(a->worst.hops.empty());

  analyze::Options more_reps;
  more_reps.min_reps = 7;
  analyze::Options no_hops;
  no_hops.max_hops = 0;
  analyze::Options wide;
  wide.epsilon = 0.5;
  for (const analyze::Options& o : {more_reps, no_hops, wide}) {
    EXPECT_EQ(analyze::attached_report(t, o), nullptr);
    EXPECT_EQ(report_json(t, o), report_json(bare_copy(t), o));
  }
  EXPECT_FALSE(
      analyze::analyze(std::span(&t, 1), more_reps).scenarios[0].min_reps_met);
  EXPECT_TRUE(
      analyze::analyze(std::span(&t, 1), no_hops).scenarios[0].worst.hops
          .empty());
  // Equal options reuse it again.
  EXPECT_EQ(analyze::attached_report(t, analyze::Options{}), a.get());
}

TEST(AnalyzeAttached, DigestCoversEveryInputAnalyzeScenarioReads) {
  trace::FinishedTrace t;
  t.label = "digest";
  t.key = trace::ScenarioKey{};
  t.key->op = "ialltoall";
  t.key->platform = "whale";
  t.key->nprocs = 4;
  t.key->impl = "linear";
  t.events.push_back({1e-6, 2e-6, 0, trace::Kind::NbcOp, 1, 2, 3});
  t.events.push_back({4e-6, -1.0, 1, trace::Kind::MsgEager, 4, 5, 6});
  t.counts[static_cast<std::size_t>(trace::Ctr::SimFibersCreated)] = 4;
  const std::uint64_t base = analyze::scenario_digest(t);
  EXPECT_EQ(analyze::scenario_digest(bare_copy(t)), base);

  std::vector<std::pair<std::string, trace::FinishedTrace>> edits;
  const auto edit = [&](std::string what,
                        const std::function<void(trace::FinishedTrace&)>& f) {
    trace::FinishedTrace c = bare_copy(t);
    f(c);
    edits.emplace_back(std::move(what), std::move(c));
  };
  edit("label", [](trace::FinishedTrace& c) { c.label = "digesT"; });
  edit("no key", [](trace::FinishedTrace& c) { c.key.reset(); });
  trace::ScenarioKey::for_each_field(
      *t.key, [&](const char* name, const auto& field) {
        edit(std::string("key.") + name, [&](trace::FinishedTrace& c) {
          trace::ScenarioKey::for_each_field(
              *c.key, [&](const char* n, auto& f) {
                if (std::string_view(n) != name) return;
                using T = std::decay_t<decltype(f)>;
                if constexpr (std::is_same_v<T, std::string>) {
                  f += "x";
                } else if constexpr (std::is_same_v<T, bool>) {
                  f = !f;
                } else {
                  f += 1;
                }
              });
        });
        (void)field;
      });
  edit("ts", [](trace::FinishedTrace& c) { c.events[1].ts += 1e-12; });
  edit("dur", [](trace::FinishedTrace& c) { c.events[0].dur = 3e-6; });
  edit("track", [](trace::FinishedTrace& c) { c.events[1].track = 2; });
  edit("kind", [](trace::FinishedTrace& c) {
    c.events[1].kind = trace::Kind::MsgDeliver;
  });
  edit("aval", [](trace::FinishedTrace& c) { c.events[0].aval ^= 1u << 31; });
  edit("bval", [](trace::FinishedTrace& c) { c.events[1].bval = 0; });
  edit("corr", [](trace::FinishedTrace& c) { c.events[0].corr = 33; });
  edit("event order", [](trace::FinishedTrace& c) {
    std::swap(c.events[0], c.events[1]);
  });
  edit("one more event",
       [](trace::FinishedTrace& c) { c.events.push_back(c.events.back()); });
  edit("no events", [](trace::FinishedTrace& c) { c.events.clear(); });
  for (std::size_t i = 0; i < t.counts.size(); ++i) {
    edit("counter " + std::to_string(i),
         [i](trace::FinishedTrace& c) { c.counts[i] += 1; });
  }
  std::set<std::uint64_t> seen = {base};
  for (const auto& [what, c] : edits) {
    EXPECT_TRUE(seen.insert(analyze::scenario_digest(c)).second) << what;
  }
  // Histograms are not an input of analyze_scenario.
  trace::FinishedTrace h = bare_copy(t);
  h.hists[0].count = 9;
  EXPECT_EQ(analyze::scenario_digest(h), base);
}

// ------------------------------------------- reader mutation fuzzing

namespace {

/// The mutator's seeded random source (splitmix64).
struct MutationRng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t x = (state += 0x9E3779B97F4A7C15ULL);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// The value offsets in `base` after every occurrence of each needle,
/// one group per needle.
std::vector<std::vector<std::size_t>> value_sites(
    const std::string& base, const std::vector<std::string>& needles) {
  std::vector<std::vector<std::size_t>> sites(needles.size());
  for (std::size_t f = 0; f < needles.size(); ++f) {
    for (std::size_t at = base.find(needles[f]); at != std::string::npos;
         at = base.find(needles[f], at + 1)) {
      sites[f].push_back(at + needles[f].size());
    }
    EXPECT_FALSE(sites[f].empty()) << needles[f];
  }
  return sites;
}

/// One seeded mutant of `base`: one to four bytes flipped, a
/// truncation, or the value at one site (a group, then a site in it)
/// replaced, up to the next of `stops`, by one of `splices`.
std::string mutate(const std::string& base, MutationRng& rng,
                   const std::vector<std::vector<std::size_t>>& sites,
                   const char* stops, const std::vector<std::string>& splices) {
  std::string m = base;
  switch (rng.below(3)) {
    case 0:  // flip one to four bytes
      for (std::size_t n = 1 + rng.below(4); n > 0; --n) {
        m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
      }
      break;
    case 1:  // truncate
      m.resize(rng.below(m.size()));
      break;
    default: {  // replace one value
      const std::vector<std::size_t>& group = sites[rng.below(sites.size())];
      const std::size_t at = group[rng.below(group.size())];
      m.replace(at, m.find_first_of(stops, at) - at,
                splices[rng.below(splices.size())]);
    }
  }
  return m;
}

/// Numbers spliced into JSON values: range edges, signs and exponents.
const std::vector<std::string> kJsonSplices = {
    "999999", "1000000", "-1", "2147483647", "9223372036854775808",
    "1e300",  "-5"};

/// The distinct pids of the objects in `chrome`'s traceEvents, read
/// independently of read_chrome.
std::size_t distinct_pids(const std::string& chrome) {
  const analyze::jsonmin::Value root = analyze::jsonmin::parse(chrome);
  std::set<long long> pids;
  for (const analyze::jsonmin::Value& ev : *root.get("traceEvents")->arr) {
    const analyze::jsonmin::Value* pid = ev.get("pid");
    if (pid != nullptr) pids.insert(pid->as_int<long long>().value());
  }
  return pids.size();
}

}  // namespace

TEST(AnalyzeFuzz, MutatedChromeExportsFailLocatedOrAnalyze) {
  // A small real export: a traced, keyed 4-rank Ialltoall, two ops.
  trace::ScenarioKey key;
  key.op = "ialltoall";
  key.platform = "whale";
  key.nprocs = 4;
  key.bytes = 1024;
  key.impl = "linear";
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope(key);
    std::vector<std::byte> sbuf(4 * 1024), rbuf(4 * 1024);
    t::run_world(net::whale(), 4, [&](mpi::Ctx& ctx) {
      nbc::Schedule s = coll::build_ialltoall_linear(
          ctx.world_rank(), 4, sbuf.data(), rbuf.data(), 1024);
      nbc::Handle h(ctx, ctx.world().comm_world(), &s, 1 << 20);
      for (int i = 0; i < 2; ++i) {
        h.start();
        ctx.compute(1e-6);
        h.wait();
      }
    });
  }
  std::ostringstream chrome;
  trace::Session::instance().write_chrome(chrome);
  (void)trace::Session::instance().drain();
  const std::string base = chrome.str();

  // Splice sites: the value offset after every "<field>":.
  const std::vector<std::vector<std::size_t>> sites = value_sites(
      base, {"\"pid\":", "\"tid\":", "\"ts\":", "\"dur\":", "\"corr\":"});

  MutationRng rng{20150525};
  std::size_t rejected = 0, analyzed = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string m = mutate(base, rng, sites, ",}", kJsonSplices);
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::vector<trace::FinishedTrace> traces;
    try {
      std::istringstream is(m);
      traces = analyze::read_chrome(is);
    } catch (const std::runtime_error& e) {
      // Located: a byte offset, an event index, or the one top-level
      // member every export has.
      const std::string what = e.what();
      EXPECT_TRUE(what.starts_with("JSON parse error at byte ") ||
                  what.starts_with("chrome trace: event ") ||
                  what == "chrome trace: no traceEvents array")
          << what;
      ++rejected;
      continue;
    }
    const analyze::Report r = analyze::analyze(traces);
    EXPECT_EQ(r.scenarios.size(), distinct_pids(m));
    std::ostringstream json;
    analyze::write_json(json, r);
    ++analyzed;
  }
  // Both outcomes are exercised.
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(analyzed, 200u);
}

namespace {

/// The text of the committed file `rel` under the source tree.
std::string source_file(const std::string& rel) {
  std::ifstream is(std::string(NBCTUNE_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(is.good()) << rel;
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

}  // namespace

TEST(AnalyzeFuzz, MutatedCounterDumpsParseOrFailOnALine) {
  // A real dump: the fig3 sweep's counters.
  const std::string base =
      source_file("bench/golden/fig3_trace_counters.txt");
  // Splice sites, one group per kind of value: counter values, hist
  // counts, hist sums, and the scenarios / trace_events totals.
  std::vector<std::vector<std::size_t>> sites(4);
  for (std::size_t at = 0; at < base.size();) {
    const std::size_t end = base.find('\n', at);
    const std::string_view line(base.data() + at, end - at);
    if (line.starts_with("counter ")) {
      sites[0].push_back(at + line.rfind(' ') + 1);
    } else if (line.starts_with("hist ") &&
               line.find(" count ") != std::string_view::npos) {
      sites[1].push_back(at + line.find(" count ") + 7);
      sites[2].push_back(at + line.find(" sum ") + 5);
    } else if (line.starts_with("scenarios ") ||
               line.starts_with("trace_events ")) {
      sites[3].push_back(at + line.find(' ') + 1);
    }
    at = end + 1;
  }
  for (const auto& group : sites) ASSERT_FALSE(group.empty());
  const std::vector<std::string> splices = {
      "-1", "1e3", "12abc", "18446744073709551616", "18446744073709551615",
      "0",  "+7",  "",      "7 7"};

  MutationRng rng{20150525};
  std::size_t rejected = 0, parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string m = mutate(base, rng, sites, "\n", splices);
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::istringstream is(m);
    try {
      (void)analyze::read_counters(is);
      ++parsed;
    } catch (const std::runtime_error& e) {
      // Located: "counters: line N: ..." with N a line of the mutant.
      const std::string what = e.what();
      ASSERT_TRUE(what.starts_with("counters: line ")) << what;
      const std::size_t n = std::stoul(what.substr(15));
      EXPECT_GE(n, 1u) << what;
      EXPECT_LE(n, static_cast<std::size_t>(
                       std::count(m.begin(), m.end(), '\n') + 1))
          << what;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(parsed, 200u);
}

TEST(AnalyzeFuzz, MutatedReportJsonParsesOrFailsLocated) {
  const std::string base = source_file("bench/golden/fig3_report.json");
  const std::vector<std::vector<std::size_t>> sites = value_sites(
      base, {"\"ops_completed\":", "\"mean_op_ns\":", "\"overlap_bp\":",
             "\"n\":", "\"median_ns\":", "\"checked\":", "\"passed\":"});

  MutationRng rng{20150525};
  std::size_t rejected = 0, parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string m = mutate(base, rng, sites, ",}", kJsonSplices);
    SCOPED_TRACE("mutant " + std::to_string(i));
    std::istringstream is(m);
    try {
      (void)analyze::read_report_json(is);
      ++parsed;
    } catch (const std::runtime_error& e) {
      // Located: a byte offset, a scenario or guideline by array index,
      // or the one top-level member every report has.
      const std::string what = e.what();
      const auto indexed = [&](const std::string& prefix) {
        return what.starts_with(prefix) && what.size() > prefix.size() &&
               std::isdigit(static_cast<unsigned char>(what[prefix.size()]));
      };
      EXPECT_TRUE(what.starts_with("JSON parse error at byte ") ||
                  indexed("scenario ") || indexed("guideline ") ||
                  what == "not an nbctune report (missing/foreign schema)")
          << what;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(parsed, 200u);
}

TEST(AnalyzeFuzz, TopSaturatesInRangeExtremes) {
  // Every number below fits in long long, so the records are accepted;
  // two of them summed, or the ETA they imply (2 of 10 tasks sampled
  // done), do not.  The sums saturate
  // and the ETA clamps, so the frame shows the largest values instead of
  // wrapped negatives (and the sanitizer build sees no overflow).
  obs::TopState top;
  for (const char* line : {
           R"({"seq":0,"t_ms":0,"type":"hello","schema":"nbctune-live-v1","bench":"huge","threads":1})",
           R"({"seq":1,"t_ms":0,"type":"batch","tasks":10})",
           R"({"seq":2,"t_ms":1,"type":"scenario","phase":"finished","label":"a","op":"ibcast","ops":1,"median_op_ns":9000000000000000000,"blame_bp":{"compute":9000000000000000000},"recovery":{"deaths":1,"detection_ns":9000000000000000000,"time_to_recover_ns":9000000000000000000}})",
           R"({"seq":3,"t_ms":9000000000000000000,"type":"scenario","phase":"finished","label":"b","op":"ibcast","ops":1,"median_op_ns":9000000000000000000,"blame_bp":{"compute":9000000000000000000},"recovery":{"deaths":1,"detection_ns":9000000000000000000,"time_to_recover_ns":9000000000000000000}})",
           R"({"seq":4,"t_ms":9000000000000000000,"type":"sample","pool":{"submitted":10,"completed":2}})",
       }) {
    ASSERT_TRUE(top.feed_line(line)) << line;
  }
  constexpr long long kMax = std::numeric_limits<long long>::max();
  EXPECT_EQ(top.ops().at("ibcast").median_sum_ns, kMax);
  EXPECT_EQ(top.ops().at("ibcast").blame_bp_sum[0], kMax);
  EXPECT_EQ(top.recovery().detection_sum_ns, kMax);
  EXPECT_EQ(top.recovery().ttr_sum_ns, kMax);
  EXPECT_EQ(top.eta_ms(), kMax);  // 4.5e18 ms per task, 8 to go
  std::ostringstream frame;
  top.render(frame, /*ansi=*/false);
  const std::string f = frame.str();
  EXPECT_NE(f.find("eta ~153722867280912m55s"), std::string::npos) << f;
  EXPECT_NE(f.find("median 4611686018427388.0 us"), std::string::npos) << f;
  EXPECT_NE(f.find("mean detect 4611686018427388.0 us"), std::string::npos)
      << f;
}

TEST(AnalyzeFuzz, MutatedLiveStreamLinesAreReadOrSkipped) {
  // A real stream: three scenarios on a two-worker pool, a gauge
  // sample and the summary record.
  const std::string path = ::testing::TempDir() + "fuzz_live.jsonl";
  {
    obs::LiveSink sink(path, "fuzz", 2);
    ASSERT_TRUE(sink.ok());
    trace::Session::enable();
    (void)trace::Session::instance().drain();
    trace::Session::set_listener(&sink);
    {
      harness::ScenarioPool pool(2);
      pool.set_observer(&sink);
      pool.run_indexed(3, [](std::size_t i) {
        trace::Scope scope("fuzz " + std::to_string(i));
        run_ibcast(2 + static_cast<int>(i), 1024, 2);
      });
      sink.sample(pool.stats());
    }
    trace::Session::set_listener(nullptr);
    const analyze::Report r =
        analyze::analyze(trace::Session::instance().drain());
    std::ostringstream json;
    analyze::write_json(json, r);
    sink.write_summary(r, json.str());
  }
  std::ifstream is(path);
  std::ostringstream text;
  text << is.rdbuf();
  const std::string base = text.str();
  const std::vector<std::vector<std::size_t>> sites = value_sites(
      base, {"\"seq\":", "\"t_ms\":", "\"tasks\":", "\"ops\":",
             "\"median_op_ns\":", "\"checked\":", "\"rss_bytes\":"});

  MutationRng rng{20150525};
  std::size_t read = 0, skipped = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string m = mutate(base, rng, sites, ",}", kJsonSplices);
    SCOPED_TRACE("mutant " + std::to_string(i));
    obs::TopState top;
    std::istringstream lines(m);
    std::ostringstream frame;
    top.render(frame, /*ansi=*/false);
    for (std::string line; std::getline(lines, line);) {
      const bool accepted = top.feed_line(line);
      // Every state renders, the one after the last line too.
      std::ostringstream next;
      top.render(next, /*ansi=*/false);
      if (accepted) {
        ++read;
      } else {
        // A skipped line leaves the state as it was.
        ++skipped;
        ASSERT_EQ(frame.str(), next.str()) << line;
      }
      frame = std::move(next);
    }
  }
  EXPECT_GT(read, 2000u);
  EXPECT_GT(skipped, 200u);
}

TEST(AnalyzeFuzz, RankTrackPastChromesRankTidsIsALocatedError) {
  trace::FinishedTrace t;
  t.label = "wide";
  t.events.push_back({0.0, 1.0, trace::kChromeWireTid, trace::Kind::Compute});
  try {
    (void)analyze::analyze(std::span(&t, 1));
    FAIL() << "expected a rank-range error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "analyze: scenario 'wide': rank track 1000000 is outside "
              "Chrome's rank tids [0, 1000000)");
  }
  // The highest rank Chrome can name analyzes.
  t.events[0].track = trace::kChromeWireTid - 1;
  EXPECT_EQ(analyze::analyze(std::span(&t, 1)).scenarios.size(), 1u);
}
