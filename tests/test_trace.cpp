// Trace layer semantics: counter/histogram arithmetic, guarded no-op
// helpers, the event schema (a row and a name lookup for every kind,
// the string-named instant), per-scenario Scope lifecycle, the golden
// event sequence of a 2-rank ibcast, and byte-identical session exports
// at any ScenarioPool thread count.
//
// Session::enable() is one-way (process-wide), so tests that need the
// disabled state run before any test that enables it; tests that use the
// session drain() it first so they only see their own traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/analyze.hpp"
#include "coll/ibcast.hpp"
#include "harness/scenario_pool.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"
#include "trace/trace.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

namespace {

/// Install `tr` as the current tracer for the lifetime of the object.
struct WithTracer {
  explicit WithTracer(trace::Tracer* tr) : prev(trace::set_current(tr)) {}
  ~WithTracer() { trace::set_current(prev); }
  trace::Tracer* prev;
};

/// A tiny deterministic simulation: 2-rank ibcast of `bytes` via the
/// binomial tree, driven to completion by wait().
void run_small_ibcast(std::size_t bytes, std::uint64_t seed = 1) {
  std::vector<std::byte> buf(bytes);
  t::run_world(net::whale(), 2, [&](mpi::Ctx& ctx) {
    nbc::Schedule s = coll::build_ibcast(ctx.world_rank(), 2, buf.data(),
                                         bytes, /*root=*/0,
                                         coll::kFanoutBinomial,
                                         /*seg_bytes=*/0);
    nbc::Handle h(ctx, ctx.world().comm_world(), &s, 1 << 20);
    h.start();
    h.wait();
  }, /*noise_scale=*/0.0, seed);
}

}  // namespace

// -------------------------------------------------- disabled-state tests
// (must run before anything calls Session::enable())

TEST(TraceDisabled, HelpersAreNoopsWithoutTracer) {
  ASSERT_EQ(trace::current(), nullptr);
  EXPECT_FALSE(trace::active());
  // None of these may crash or allocate a tracer.
  trace::count(trace::Ctr::MsgsEager);
  trace::record(trace::Hist::WireBytes, 4096);
  trace::instant(1.0, 0, trace::Kind::MsgEager);
  trace::span(1.0, 0.5, 0, trace::Kind::WireEager);
  EXPECT_EQ(trace::current(), nullptr);
}

TEST(TraceDisabled, ScopeIsInertWithoutSession) {
  ASSERT_FALSE(trace::Session::enabled());
  trace::Scope scope("inert");
  EXPECT_EQ(scope.tracer(), nullptr);
  EXPECT_FALSE(trace::active());
}

TEST(TraceDisabled, TracedRunMatchesUntracedRun) {
  // The same simulation with and without a tracer installed must end at
  // the same simulated time: recording must never perturb the model.
  std::vector<std::byte> buf(4096);
  auto run = [&] {
    return t::run_world(net::whale(), 2, [&](mpi::Ctx& ctx) {
      nbc::Schedule s = coll::build_ibcast(ctx.world_rank(), 2, buf.data(),
                                           buf.size(), 0,
                                           coll::kFanoutBinomial, 0);
      nbc::Handle h(ctx, ctx.world().comm_world(), &s, 1 << 20);
      h.start();
      h.wait();
    }).end_time;
  };
  const double untraced = run();
  trace::Tracer tr("probe");
  double traced = 0.0;
  {
    WithTracer w(&tr);
    traced = run();
  }
  EXPECT_EQ(traced, untraced);
  EXPECT_GT(tr.events().size(), 0u);
}

// ------------------------------------------------------ tracer mechanics

TEST(TraceCounters, CountsAccumulate) {
  trace::Tracer tr("c");
  tr.count(trace::Ctr::MsgsEager);
  tr.count(trace::Ctr::MsgsEager, 4);
  tr.count(trace::Ctr::BytesOnWire, 1024);
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsEager), 5u);
  EXPECT_EQ(tr.counter(trace::Ctr::BytesOnWire), 1024u);
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsRts), 0u);
}

TEST(TraceCounters, RendezvousSendsCountHandshakes) {
  // Four 64 KiB sends between whale nodes (ranks 0 and 8 sit on
  // different 8-core nodes): each is a rendezvous, so one RTS, one CTS
  // and one NIC-driven bulk transfer per send, and no eager payload.
  trace::Tracer tr("rendezvous");
  {
    WithTracer with(&tr);
    t::run_world(net::whale(), 9, [](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      std::vector<std::byte> buf(64 * 1024);
      for (int i = 0; i < 4; ++i) {
        if (ctx.world_rank() == 0) ctx.send(comm, buf.data(), buf.size(), 8, i);
        if (ctx.world_rank() == 8) ctx.recv(comm, buf.data(), buf.size(), 0, i);
      }
    });
  }
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsRts), 4u);
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsCts), 4u);
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsNicBulks), 4u);
  EXPECT_EQ(tr.counter(trace::Ctr::MsgsEager), 0u);
  EXPECT_EQ(tr.counter(trace::Ctr::BytesOnWire), 4u * 64 * 1024 + 8u * 64);
}

TEST(TraceCounters, HistogramBucketsArePowersOfTwo) {
  trace::Tracer tr("h");
  // bucket 0: v == 0; bucket i >= 1: v in [2^(i-1), 2^i).
  tr.record(trace::Hist::WireBytes, 0);     // bucket 0
  tr.record(trace::Hist::WireBytes, 1);     // bucket 1
  tr.record(trace::Hist::WireBytes, 2);     // bucket 2
  tr.record(trace::Hist::WireBytes, 3);     // bucket 2
  tr.record(trace::Hist::WireBytes, 4);     // bucket 3
  tr.record(trace::Hist::WireBytes, 1024);  // bucket 11
  tr.record(trace::Hist::WireBytes, 1535);  // bucket 11
  const trace::HistData& d = tr.histogram(trace::Hist::WireBytes);
  EXPECT_EQ(d.count, 7u);
  EXPECT_EQ(d.sum, 0u + 1 + 2 + 3 + 4 + 1024 + 1535);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[3], 1u);
  EXPECT_EQ(d.buckets[11], 2u);
  EXPECT_EQ(tr.histogram(trace::Hist::RoundsPerOp).count, 0u);
}

TEST(TraceCounters, HistogramTopBucketHoldsValuesFromTwoToThe63) {
  // A value of bit width 64 lands in bucket 64, not on the count.
  trace::Tracer tr("top");
  tr.record(trace::Hist::WireBytes, UINT64_MAX);
  tr.record(trace::Hist::WireBytes, std::uint64_t{1} << 63);
  const trace::HistData& d = tr.histogram(trace::Hist::WireBytes);
  EXPECT_EQ(d.count, 2u);
  ASSERT_EQ(d.buckets.size(), 65u);
  EXPECT_EQ(d.buckets[64], 2u);
  EXPECT_EQ(d.buckets[63], 0u);
}

TEST(TraceHelpers, RecordThroughInstalledTracer) {
  trace::Tracer tr("helpers");
  {
    WithTracer w(&tr);
    ASSERT_TRUE(trace::active());
    trace::instant(1.5, 3, trace::Kind::MsgDeliver, 2, 64);
    trace::span(2.0, 0.25, trace::wire_track(1), trace::Kind::WireEager);
    trace::span(9.0, -4.0, 0, trace::Kind::Compute);
  }
  EXPECT_FALSE(trace::active());
  ASSERT_EQ(tr.events().size(), 3u);
  const auto& e0 = tr.events()[0];
  EXPECT_LT(e0.dur, 0.0);  // instant encoding
  EXPECT_FALSE(e0.is_span());
  EXPECT_EQ(e0.track, 3);
  EXPECT_EQ(e0.kind, trace::Kind::MsgDeliver);
  EXPECT_EQ(e0.aval, 2u);
  EXPECT_STREQ(trace::row(e0.kind).bkey, "bytes");
  EXPECT_EQ(e0.bval, 64u);
  const auto& e1 = tr.events()[1];
  EXPECT_EQ(e1.dur, 0.25);
  EXPECT_EQ(e1.track, trace::wire_track(1));
  EXPECT_EQ(trace::wire_track(1), -2);
  // Negative durations passed to span() are clamped to a zero-length
  // span, not re-encoded as an instant.
  EXPECT_EQ(tr.events()[2].dur, 0.0);
}

TEST(TraceSchema, RowsNameEveryKindAndLookupsFindThem) {
  // Every kind has a row, and its Chrome name finds it again.
  for (std::size_t i = 0; i < std::size(trace::kKindRows); ++i) {
    const auto kind = static_cast<trace::Kind>(i);
    const trace::KindRow& r = trace::row(kind);
    ASSERT_FALSE(r.name.empty());
    SCOPED_TRACE(r.name);
    EXPECT_TRUE(r.akey != nullptr || r.bkey == nullptr);
    const std::span<const trace::Kind> named = trace::kinds_named(r.name);
    EXPECT_NE(std::find(named.begin(), named.end(), kind), named.end());
  }
  // adcl.retune backs two kinds, in schema order; unknown names none.
  const std::span<const trace::Kind> retune =
      trace::kinds_named("adcl.retune");
  ASSERT_EQ(retune.size(), 2u);
  EXPECT_EQ(retune[0], trace::Kind::AdclRetuneDrift);
  EXPECT_EQ(retune[1], trace::Kind::AdclRetuneShrink);
  EXPECT_TRUE(trace::kinds_named("probe").empty());
  EXPECT_TRUE(trace::kinds_named("").empty());
  EXPECT_EQ(sizeof(trace::Event), 48u);
}

TEST(TraceHelpers, StringNamedInstantResolvesThroughTheSchema) {
  trace::Tracer tr("by name");
  {
    WithTracer w(&tr);
    trace::instant(1.0, 2, trace::Cat::Msg, "msg.deliver", "src", 5,
                   "bytes", 64, 9);
    trace::instant(2.0, 0, trace::Cat::Adcl, "adcl.retune", "shrink", 1,
                   "iter", 12, 12);
    trace::instant(3.0, 0, trace::Cat::Adcl, "adcl.retune", "observed_ns",
                   700, "baseline_ns", 500, 14);
    trace::instant(4.0, 0, trace::Cat::Msg, "probe", "bytes", 64);
  }
  ASSERT_EQ(tr.events().size(), 3u);
  EXPECT_EQ(tr.events()[0],
            (trace::Event{1.0, -1.0, 2, trace::Kind::MsgDeliver, 5, 64, 9}));
  EXPECT_EQ(tr.events()[1].kind, trace::Kind::AdclRetuneShrink);
  EXPECT_EQ(tr.events()[2].kind, trace::Kind::AdclRetuneDrift);
  // A name outside the schema records nothing and counts as dropped.
  EXPECT_EQ(tr.counter(trace::Ctr::TraceDroppedEvents), 1u);
}

// ------------------------------------------------------- session + scope
// (everything below runs with the session enabled)

TEST(TraceSession, ScopeAdoptsInOrder) {
  trace::Session::enable();
  ASSERT_TRUE(trace::Session::enabled());
  (void)trace::Session::instance().drain();
  {
    trace::Scope a("first");
    ASSERT_NE(a.tracer(), nullptr);
    trace::count(trace::Ctr::AdclDecisions);
    trace::instant(0.0, 0, trace::Kind::NbcStart);
  }
  {
    trace::Scope b("second");
    trace::count(trace::Ctr::AdclDecisions, 2);
  }
  auto traces = trace::Session::instance().drain();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].label, "first");
  EXPECT_EQ(traces[1].label, "second");
  EXPECT_EQ(traces[0].events.size(), 1u);
  constexpr auto kDecisions =
      static_cast<std::size_t>(trace::Ctr::AdclDecisions);
  EXPECT_EQ(traces[0].counts[kDecisions], 1u);
  EXPECT_EQ(traces[1].counts[kDecisions], 2u);
  EXPECT_EQ(trace::Session::instance().size(), 0u);
}

TEST(TraceGolden, TwoRankIbcastEventSequence) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("golden ibcast");
    run_small_ibcast(4096);
  }
  auto traces = trace::Session::instance().drain();
  ASSERT_EQ(traces.size(), 1u);
  const trace::FinishedTrace& tr = traces[0];

  // Counters: one 4 KB eager message from rank 0 to rank 1; a schedule
  // built and an operation started/completed on each rank.
  auto ctr = [&](trace::Ctr c) {
    return tr.counts[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(ctr(trace::Ctr::CollSchedulesBuilt), 2u);
  EXPECT_EQ(ctr(trace::Ctr::NbcOpsStarted), 2u);
  EXPECT_EQ(ctr(trace::Ctr::NbcOpsCompleted), 2u);
  EXPECT_EQ(ctr(trace::Ctr::MsgsEager), 1u);
  EXPECT_EQ(ctr(trace::Ctr::MsgsRts), 0u);
  EXPECT_EQ(ctr(trace::Ctr::BytesOnWire), 4096u);
  EXPECT_GE(ctr(trace::Ctr::NbcRoundsPosted), 2u);

  // Golden per-rank sequences of the structural (non-engine, non-
  // progress) events.  Buffer order is execution order, so this pins both
  // the instrumentation sites and the simulation's control flow.
  auto names_on = [&](std::int32_t track) {
    std::vector<std::string> out;
    for (const auto& e : tr.events) {
      if (e.track != track) continue;
      if (trace::row(e.kind).cat == trace::Cat::Progress) continue;
      out.emplace_back(trace::row(e.kind).name);
    }
    return out;
  };
  EXPECT_EQ(names_on(0),
            (std::vector<std::string>{"ibcast", "nbc.start", "nbc.round",
                                      "msg.eager", "nbc.op"}));
  EXPECT_EQ(names_on(1),
            (std::vector<std::string>{"ibcast", "nbc.start", "nbc.round",
                                      "msg.deliver", "nbc.op"}));

  // The wire lane of rank 0's node carries exactly one eager
  // serialization span of the payload size.
  int wire_spans = 0;
  for (const auto& e : tr.events) {
    if (e.track >= 0) continue;
    ++wire_spans;
    EXPECT_EQ(e.kind, trace::Kind::WireEager);
    EXPECT_GT(e.dur, 0.0);
    EXPECT_EQ(e.aval, 4096u);
  }
  EXPECT_EQ(wire_spans, 1);

  // Causality across spans: the sender's op starts before the wire
  // serialization starts, and the receiver's op cannot finish before the
  // payload left the wire.  (The sender's own op ends at local
  // completion, which for an eager send precedes the end of the physical
  // serialization — that asynchrony is the point of the model.)
  double send_start = -1.0, recv_end = -1.0, wire_start = -1.0,
         wire_end = -1.0;
  for (const auto& e : tr.events) {
    if (e.kind == trace::Kind::NbcOp && e.track == 0) {
      send_start = e.ts;
    }
    if (e.kind == trace::Kind::NbcOp && e.track == 1) {
      recv_end = e.ts + e.dur;
    }
    if (e.kind == trace::Kind::WireEager) {
      wire_start = e.ts;
      wire_end = e.ts + e.dur;
    }
  }
  ASSERT_GE(send_start, 0.0);
  ASSERT_GE(wire_start, 0.0);
  EXPECT_LE(send_start, wire_start);
  EXPECT_GE(recv_end, wire_end);
}

TEST(TraceDeterminism, PoolMergeIsByteIdenticalAcrossThreadCounts) {
  trace::Session::enable();
  const std::size_t kTasks = 12;
  auto sweep = [&](int threads) {
    (void)trace::Session::instance().drain();
    harness::ScenarioPool pool(threads);
    pool.run_indexed(kTasks, [&](std::size_t i) {
      trace::Scope scope("task " + std::to_string(i));
      run_small_ibcast(512 * (i + 1), /*seed=*/i + 1);
    });
    std::ostringstream chrome, counters;
    trace::Session::instance().write_chrome(chrome);
    trace::Session::instance().write_counters(counters);
    auto traces = trace::Session::instance().drain();
    return std::tuple{chrome.str(), counters.str(), std::move(traces)};
  };
  auto [chrome1, counters1, traces1] = sweep(1);
  auto [chrome2, counters2, traces2] = sweep(2);
  auto [chrome8, counters8, traces8] = sweep(8);

  // Exports are byte-identical at any worker count.
  EXPECT_EQ(chrome1, chrome2);
  EXPECT_EQ(chrome1, chrome8);
  EXPECT_EQ(counters1, counters2);
  EXPECT_EQ(counters1, counters8);

  // And the merged traces arrive in submission order with identical
  // per-scenario content.
  ASSERT_EQ(traces1.size(), kTasks);
  ASSERT_EQ(traces8.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(traces1[i].label, "task " + std::to_string(i));
    EXPECT_EQ(traces8[i].label, traces1[i].label);
    EXPECT_EQ(traces8[i].events, traces1[i].events) << "task " << i;
    EXPECT_EQ(traces8[i].counts, traces1[i].counts);
  }
}

TEST(TraceExport, ChromeJsonShapeAndEscaping) {
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("label with \"quotes\" and \\backslash");
    trace::instant(1e-6, 0, trace::Kind::MpiRankDeath, 7);
    trace::span(2e-6, 3e-6, trace::wire_track(0), trace::Kind::WireChunk,
                128, 0, 2);
    trace::instant(4e-6, 1, trace::Kind::ProgressPass);
  }
  std::ostringstream os;
  trace::Session::instance().write_chrome(os);
  const std::string j = os.str();
  (void)trace::Session::instance().drain();
  // Structural spot-checks (full JSON validation happens in CI via
  // python's json.load on a real sweep).
  EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(j.find("label with \\\"quotes\\\" and \\\\backslash"),
            std::string::npos);
  // Category, name and argument keys come from each kind's row; a
  // keyless, uncorrelated event has no args.
  EXPECT_NE(j.find("\"cat\":\"msg\",\"name\":\"mpi.rank_death\",\"ts\":"
                   "1.000,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"node\":7}}"),
            std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\",\"dur\":3.000"), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"bytes\":128,\"corr\":2}"),
            std::string::npos);
  EXPECT_NE(j.find("\"name\":\"progress.pass\",\"ts\":4.000,\"ph\":\"i\","
                   "\"s\":\"t\"}"),
            std::string::npos);
  // Wire track 0 maps to the reserved chrome tid block.
  EXPECT_NE(j.find("\"tid\":1000000"), std::string::npos);
  EXPECT_NE(j.find("node 0 wire"), std::string::npos);
}

TEST(TraceExport, ChromeTracksWithGapsAndEveryArgumentShape) {
  // Ranks 0 and 5 and the wire lanes of nodes 0 and 2: the thread_name
  // records come in ascending track order (wire lanes first) and skip
  // the tracks nobody used.  The events cover a kind with both argument
  // keys, one with only its first key, one with neither key but a corr,
  // one with no args at all, spans and instants.  A second scenario on
  // its own track checks the per-scenario pid and track names.
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("gaps");
    trace::instant(1e-6, 5, trace::Kind::MsgEager, 3, 64, 11);
    trace::span(2e-6, 0.5e-6, trace::wire_track(2), trace::Kind::WireChunk,
                64, 0, 11);
    trace::instant(3.25e-6, 0, trace::Kind::MsgComplete, 5, 0, 11);
    trace::span(0.0, 4e-6, 0, trace::Kind::Compute, 0, 0, 7);
    trace::span(5e-6, 1e-6, trace::wire_track(0), trace::Kind::WireEager,
                128);
    trace::instant(6e-6, 5, trace::Kind::ProgressPass);
  }
  {
    trace::Scope scope("second");
    trace::instant(7.125e-6, 2, trace::Kind::NbcStart, 4, 9, 1);
  }
  std::ostringstream os;
  trace::Session::instance().write_chrome(os);
  (void)trace::Session::instance().drain();
  const std::string want =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"gaps\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_sort_index\",\"args\":{"
      "\"sort_index\":0}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1000002,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"node 2 wire\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1000000,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"node 0 wire\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"rank 0\"}},\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":5,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"rank 5\"}},\n"
      "{\"pid\":0,\"tid\":5,\"cat\":\"msg\",\"name\":\"msg.eager\",\"ts\":"
      "1.000,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"dst\":3,\"bytes\":64,"
      "\"corr\":11}},\n"
      "{\"pid\":0,\"tid\":1000002,\"cat\":\"wire\",\"name\":\"wire.chunk\","
      "\"ts\":2.000,\"ph\":\"X\",\"dur\":0.500,\"args\":{\"bytes\":64,"
      "\"corr\":11}},\n"
      "{\"pid\":0,\"tid\":0,\"cat\":\"msg\",\"name\":\"msg.complete\",\"ts\":"
      "3.250,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"src\":5,\"corr\":11}},\n"
      "{\"pid\":0,\"tid\":0,\"cat\":\"progress\",\"name\":\"compute\",\"ts\":"
      "0.000,\"ph\":\"X\",\"dur\":4.000,\"args\":{\"corr\":7}},\n"
      "{\"pid\":0,\"tid\":1000000,\"cat\":\"wire\",\"name\":\"wire.eager\","
      "\"ts\":5.000,\"ph\":\"X\",\"dur\":1.000,\"args\":{\"bytes\":128}},\n"
      "{\"pid\":0,\"tid\":5,\"cat\":\"progress\",\"name\":\"progress.pass\","
      "\"ts\":6.000,\"ph\":\"i\",\"s\":\"t\"},\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"second\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_sort_index\",\"args\":{"
      "\"sort_index\":1}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{"
      "\"name\":\"rank 2\"}},\n"
      "{\"pid\":1,\"tid\":2,\"cat\":\"nbc\",\"name\":\"nbc.start\",\"ts\":"
      "7.125,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"rounds\":4,\"tag\":9,"
      "\"corr\":1}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(os.str(), want);
}

TEST(TraceExport, ChromeNamesSparseTracksInOrder) {
  // Tracks far apart relative to the event count (rank 999999 beside
  // rank 0, the wire lane of node 70000) are named in ascending track
  // order and prefix their events like adjacent ones.
  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("sparse");
    trace::instant(1e-6, 999999, trace::Kind::ProgressPass);
    trace::instant(2e-6, 0, trace::Kind::ProgressPass);
    trace::span(3e-6, 1e-6, trace::wire_track(70000), trace::Kind::WireAck,
                8);
  }
  std::ostringstream os;
  trace::Session::instance().write_chrome(os);
  (void)trace::Session::instance().drain();
  const std::string j = os.str();
  const std::size_t wire = j.find("\"tid\":1070000,\"name\":\"thread_name\"");
  const std::size_t rank0 = j.find("\"tid\":0,\"name\":\"thread_name\"");
  const std::size_t rank_max = j.find("\"tid\":999999,\"name\":\"thread_name\"");
  ASSERT_NE(wire, std::string::npos);
  ASSERT_NE(rank0, std::string::npos);
  ASSERT_NE(rank_max, std::string::npos);
  EXPECT_LT(wire, rank0);
  EXPECT_LT(rank0, rank_max);
  EXPECT_NE(j.find("{\"pid\":0,\"tid\":999999,\"cat\":\"progress\",\"name\":"
                   "\"progress.pass\",\"ts\":1.000,\"ph\":\"i\",\"s\":\"t\"}"),
            std::string::npos);
  EXPECT_NE(j.find("{\"pid\":0,\"tid\":1070000,\"cat\":\"wire\",\"name\":"
                   "\"wire.ack\",\"ts\":3.000,\"ph\":\"X\",\"dur\":1.000,"
                   "\"args\":{\"bytes\":8}}"),
            std::string::npos);
}

TEST(TraceExport, MicrosecondFormatMatchesPrintf) {
  // The Chrome writer's "%.3f" fields must format byte-for-byte as
  // printf would, on both sides of the integer fast path's bound.
  constexpr double kBound = 9e12;
  std::vector<double> values = {0.0,
                                -0.0,
                                DBL_MIN,
                                DBL_TRUE_MIN,
                                DBL_MIN / 2,
                                -DBL_TRUE_MIN,
                                -DBL_MIN,
                                1e300,
                                DBL_MAX,
                                -DBL_MAX,
                                -1.5,
                                -0.0625,
                                -0.0005,
                                -123.4565,
                                -8.5e12,
                                kBound,
                                std::nextafter(kBound, 0.0),
                                std::nextafter(kBound, DBL_MAX),
                                4503599627370495.5,  // 2^52 - 0.5
                                4503599627370496.0,
                                9007199254740991.0};
  // Exact binary fractions of a microsecond, rounding ties among them,
  // and one ulp either side of every k/16 tie.
  for (int k = 0; k < 100000; ++k) {
    const double tie = k / 16.0;
    values.push_back(tie);
    values.push_back(std::nextafter(tie, -DBL_MAX));
    values.push_back(std::nextafter(tie, DBL_MAX));
    values.push_back(k / 32.0);
    values.push_back(k / 1024.0);
  }
  // The doubles nearest the decimal ties x.xxx5, whose exact values sit
  // just off the tie, and their neighbours.
  for (int k = 0; k < 100000; ++k) {
    const double near_tie = (2.0 * k + 1.0) / 2000.0;
    values.push_back(near_tie);
    values.push_back(std::nextafter(near_tie, 0.0));
    values.push_back(std::nextafter(near_tie, DBL_MAX));
    values.push_back(8.5e12 + near_tie);
  }
  // Values whose product with 1000 rounds to an integer N in double
  // arithmetic while the exact product lies just above or below N.
  std::size_t above = 0, below = 0;
  for (int n = 1; n < 200000; ++n) {
    for (const double scale : {1.0, 1e6, 4e9}) {
      const double whole = n * scale;
      const double v = whole / 1000.0;
      if (v * 1000.0 != whole) continue;
      const double err = std::fma(v, 1000.0, -whole);
      if (err == 0.0) continue;
      ++(err > 0.0 ? above : below);
      values.push_back(v);
    }
  }
  EXPECT_GT(above, 1000u);
  EXPECT_GT(below, 1000u);
  // Values near the fast path's bound, where 1000·v needs 53 bits.
  for (int k = -2000; k < 2000; ++k) {
    values.push_back(kBound + k / 8.0);
    values.push_back(kBound + k / 16.0 + 1.0 / 32.0);
  }
  // Random simulated times, scaled to microseconds as the writer does.
  std::mt19937_64 rng(20150525);
  std::uniform_real_distribution<double> exponent(-9.0, 3.0);
  for (int i = 0; i < 200000; ++i) {
    values.push_back(std::pow(10.0, exponent(rng)) * 1e6);
  }
  // Random magnitudes up to well past the bound, negatives included.
  std::uniform_real_distribution<double> wide(-20.0, 16.0);
  for (int i = 0; i < 100000; ++i) {
    const double v = std::pow(10.0, wide(rng));
    values.push_back(i % 8 == 0 ? -v : v);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    char want[512];
    std::snprintf(want, sizeof(want), "%.3f", v);
    std::string got = "ts:";
    trace::append_fixed3(got, v);
    if (got != std::string("ts:") + want && mismatches++ < 5) {
      ADD_FAILURE() << "value " << v << ": got " << got << ", printf "
                    << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// -------------------------------------------------- determinism envelope

namespace {

/// The counter dump of a session holding `t` alone.
std::string counter_dump(const trace::FinishedTrace& t) {
  trace::Session& session = trace::Session::instance();
  (void)session.drain();
  session.adopt(t);
  std::ostringstream os;
  session.write_counters(os);
  (void)session.drain();
  return os.str();
}

std::string report_json(const trace::FinishedTrace& t) {
  std::ostringstream os;
  analyze::write_json(os, analyze::analyze(std::span(&t, 1)));
  return os.str();
}

}  // namespace

TEST(TraceEnvelope, HostCountsMoveNoOutput) {
  // The host rows by name, so that a new counter states its class here
  // as well as in the schema.
  const std::set<std::string_view> host = {
      "engine.events_scheduled", "engine.events_fired",
      "engine.events_cancelled", "engine.now_fifo_hits",
      "engine.inline_advances",  "fiber.switches",
      "sim.fibers_created",      "world.peak_arena_bytes"};
  constexpr auto kCtrs = static_cast<std::size_t>(trace::Ctr::kCount);
  std::set<std::string_view> names;
  std::multiset<std::string> sim;
  for (std::size_t c = 0; c < kCtrs; ++c) {
    const trace::CtrRow& r = trace::row(static_cast<trace::Ctr>(c));
    EXPECT_TRUE(names.insert(r.name).second) << "duplicate " << r.name;
    EXPECT_EQ(r.cls == trace::CtrClass::Host, host.contains(r.name))
        << r.name;
    if (r.cls == trace::CtrClass::Sim) sim.emplace(r.name);
  }
  for (std::size_t h = 0; h < static_cast<std::size_t>(trace::Hist::kCount);
       ++h) {
    const std::string_view name =
        trace::hist_name(static_cast<trace::Hist>(h));
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_EQ(sim.size() + host.size(), kCtrs);

  trace::Session::enable();
  (void)trace::Session::instance().drain();
  {
    trace::Scope scope("envelope");
    run_small_ibcast(4096);
  }
  std::vector<trace::FinishedTrace> traces =
      trace::Session::instance().drain();
  ASSERT_EQ(traces.size(), 1u);
  const trace::FinishedTrace& base = traces[0];
  trace::FinishedTrace bumped = base;
  for (std::size_t c = 0; c < kCtrs; ++c) {
    if (trace::row(static_cast<trace::Ctr>(c)).cls == trace::CtrClass::Host) {
      bumped.counts[c] += 1;
    }
  }
  const std::string dump = counter_dump(base);
  EXPECT_EQ(dump, counter_dump(bumped));
  EXPECT_EQ(report_json(base), report_json(bumped));

  // One counter line for every simulated row, none for a host row.
  std::multiset<std::string> dumped;
  std::istringstream lines(dump);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string kind, name;
    fields >> kind >> name;
    if (kind == "counter") dumped.insert(name);
  }
  EXPECT_EQ(dumped, sim);
}
