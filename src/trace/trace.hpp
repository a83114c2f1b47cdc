#pragma once

// Structured tracing and metrics (`nbctune::trace`).
//
// The paper's evidence is timeline-shaped — overlap of computation and
// communication under explicit progress calls, protocol crossovers, the
// tuner's selection decisions — so every layer of the stack can record
// *why* a run behaved the way it did:
//
//   * a per-scenario event buffer of typed spans and instants (message
//     lifecycle, wire serialization, NBC rounds, progress passes, ADCL
//     decisions; one trace::Kind each, see NBCTUNE_TRACE_KINDS), one
//     logical track per simulated rank plus wire tracks per node;
//   * a registry of monotonic counters and power-of-two histograms
//     (bytes on wire, events popped, rounds per collective, ...);
//   * two exporters: Chrome trace-event JSON (loads in ui.perfetto.dev /
//     chrome://tracing) and a flat counter dump for diffing in CI.
//
// Overhead contract: tracing is OFF unless a Session is enabled AND a
// Scope installs a Tracer on the current thread.  Every instrumentation
// helper compiles down to one thread-local load and a null-pointer branch
// (see bench_engine_micro's trace-off case; < 2 % on the event hot path).
//
// Determinism contract: a Tracer belongs to exactly one simulation (one
// Engine, single-threaded), so recording never locks.  Finished tracers
// are merged into the Session in *submission order* — ScenarioPool stages
// per-task buffers and adopts them by task index after the batch joins —
// so a traced sweep produces byte-identical exports at any thread count,
// and stdout is never touched.

#include <array>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nbctune::trace {

// ------------------------------------------------------ scenario identity

/// Typed identity of one micro-benchmark scenario: the (operation,
/// message size, process count) tuple the performance guidelines are
/// defined over, the fixed member or ADCL policy that ran it, and every
/// condition that changes what a run measures.  Runs with equal keys are
/// repetitions of one scenario; the iteration count and the seed are
/// left out on purpose.  Conditions are integers (ns, parts per
/// million), so a Chrome export round-trips a key exactly.
struct ScenarioKey {
  std::string op;        ///< "ialltoall", "ibcast", ...
  std::string platform;  ///< net::Platform::name
  int nprocs = 0;
  std::uint64_t bytes = 0;
  bool adcl = false;  ///< false: `impl` pinned; true: ADCL under policy `impl`
  std::string impl;   ///< function-set member or ADCL policy name
  std::string plan;   ///< fault-plan name; empty = fault-free
  std::string topo;   ///< topology tag; empty = untagged
  /// Explicit progress calls per iteration; -1 when the scenario tunes
  /// them instead (bench_ext_progress_tuning).
  int progress_calls = -1;
  std::int64_t compute_ns = 0;  ///< compute per iteration
  // Noise: the World's scale and the platform's NoiseParams.
  std::int64_t noise_scale_ppm = 0;
  std::int64_t noise_sigma_ppm = 0;
  std::int64_t outlier_prob_ppm = 0;
  std::int64_t outlier_factor_ppm = 0;

  /// Display label "<op> <platform> np<N> <bytes>B (fixed|adcl):<impl>",
  /// then "+plan=<plan>" and "+topo=<topo>" when set.  Display only:
  /// nothing parses it back.
  [[nodiscard]] std::string label() const;

  /// Call f(name, member) for every field in export order (`K` is
  /// ScenarioKey or const ScenarioKey): the one field list behind the
  /// Chrome writer and reader.
  template <class K, class F>
  static void for_each_field(K& k, F&& f) {
    f("op", k.op);
    f("platform", k.platform);
    f("nprocs", k.nprocs);
    f("bytes", k.bytes);
    f("adcl", k.adcl);
    f("impl", k.impl);
    f("plan", k.plan);
    f("topo", k.topo);
    f("progress_calls", k.progress_calls);
    f("compute_ns", k.compute_ns);
    f("noise_scale_ppm", k.noise_scale_ppm);
    f("noise_sigma_ppm", k.noise_sigma_ppm);
    f("outlier_prob_ppm", k.outlier_prob_ppm);
    f("outlier_factor_ppm", k.outlier_factor_ppm);
  }

  friend auto operator<=>(const ScenarioKey&, const ScenarioKey&) = default;
};

// ----------------------------------------------------------- event model

/// Event category (the Chrome `cat` field; filterable in Perfetto).
enum class Cat : std::uint8_t {
  Msg,       ///< message lifecycle (post, match, handshake, delivery)
  Wire,      ///< NIC / memory-port serialization intervals
  Nbc,       ///< schedule rounds and operation lifetimes
  Coll,      ///< collective schedule construction
  Progress,  ///< progress-engine passes and application compute
  Adcl,      ///< selection, filtering, decisions
};
[[nodiscard]] const char* cat_name(Cat c) noexcept;

/// The event schema, one line per event the tree emits: enumerator,
/// category, Chrome name, and the keys of the first and second integer
/// argument (nullptr = none).  One Chrome name backs two kinds when the
/// arguments differ (adcl.retune after drift and after a shrink);
/// readers tell them apart by argument key.
#define NBCTUNE_TRACE_KINDS(X)                                          \
  /* Message lifecycle on rank tracks; corr = the message sequence. */  \
  X(MsgEager, Msg, "msg.eager", "dst", "bytes")                         \
  X(MsgRts, Msg, "msg.rts", "dst", "bytes")                             \
  X(MsgCts, Msg, "msg.cts", "dst", "bytes")                             \
  X(MsgAck, Msg, "msg.ack", "dst", "bytes")                             \
  X(MsgBulkNic, Msg, "msg.bulk_nic", "dst", "bytes")                    \
  X(MsgDeliver, Msg, "msg.deliver", "src", "bytes")                     \
  X(MsgComplete, Msg, "msg.complete", "src", nullptr)                   \
  X(MsgDupDrop, Msg, "msg.dup_drop", "src", nullptr)                    \
  X(MsgRetransmit, Msg, "msg.retransmit", "peer", "left")               \
  X(MsgSendFailure, Msg, "msg.send_failure", "peer", "tag")             \
  X(FaultStall, Msg, "fault.stall", "node", nullptr)                    \
  X(FaultDrop, Msg, "fault.drop", "dst", "bytes")                       \
  X(FaultDup, Msg, "fault.dup", "src", "bytes")                         \
  X(MpiRankDeath, Msg, "mpi.rank_death", "node", nullptr)               \
  X(MpiFtDetect, Msg, "mpi.ft.detect", "lease_ns", nullptr)             \
  X(MpiFtAgree, Msg, "mpi.ft.agree", "epoch", "failed")                 \
  /* Serialization spans on wire tracks. */                             \
  X(WireEager, Wire, "wire.eager", "bytes", nullptr)                    \
  X(WireRts, Wire, "wire.rts", "bytes", nullptr)                        \
  X(WireCts, Wire, "wire.cts", "bytes", nullptr)                        \
  X(WireAck, Wire, "wire.ack", "bytes", nullptr)                        \
  X(WireDup, Wire, "wire.dup", "bytes", nullptr)                        \
  X(WireBulk, Wire, "wire.bulk", "bytes", nullptr)                      \
  X(WireChunk, Wire, "wire.chunk", "bytes", nullptr)                    \
  /* Rank time: compute and progress spans. */                          \
  X(Compute, Progress, "compute", nullptr, nullptr)                     \
  X(ProgressCall, Progress, "progress.call", nullptr, nullptr)          \
  X(ProgressPass, Progress, "progress.pass", nullptr, nullptr)          \
  X(FaultStraggler, Progress, "fault.straggler", "factor_x1000",        \
    nullptr)                                                            \
  /* NBC operations; corr = the per-rank operation id. */               \
  X(NbcStart, Nbc, "nbc.start", "rounds", "tag")                        \
  X(NbcRound, Nbc, "nbc.round", "round", "actions")                     \
  X(NbcOp, Nbc, "nbc.op", "rounds", "tag")                              \
  X(NbcAbort, Nbc, "nbc.abort", "round", "tag")                         \
  X(NbcFallback, Nbc, "nbc.fallback", "attempt", "tag")                 \
  X(NbcRebuild, Nbc, "nbc.rebuild", "size", "tag")                      \
  /* ADCL tuning; corr = the tuning iteration. */                       \
  X(AdclScore, Adcl, "adcl.score", "func", "score_ns")                  \
  X(AdclDecision, Adcl, "adcl.decision", "winner", "iter")              \
  X(AdclRetuneDrift, Adcl, "adcl.retune", "observed_ns", "baseline_ns") \
  X(AdclRetuneShrink, Adcl, "adcl.retune", "shrink", "iter")            \
  X(AdclEliminate, Adcl, "adcl.eliminate", "attr", "value")             \
  X(AdclEliminateFunc, Adcl, "adcl.eliminate.func", "func", "kept")     \
  X(AdclPrune, Adcl, "adcl.prune", "func", "bound_ns")                  \
  /* Schedule builds, one per algorithm. */                             \
  X(IallgatherLinear, Coll, "iallgather.linear", "rounds", "sends")     \
  X(IallgatherRing, Coll, "iallgather.ring", "rounds", "sends")         \
  X(IallgatherRecursiveDoubling, Coll, "iallgather.recursive_doubling", \
    "rounds", "sends")                                                  \
  X(IallreduceRecursiveDoubling, Coll, "iallreduce.recursive_doubling", \
    "rounds", "sends")                                                  \
  X(IallreduceReduceBcast, Coll, "iallreduce.reduce_bcast", "rounds",   \
    "sends")                                                            \
  X(IallreduceRing, Coll, "iallreduce.ring", "rounds", "sends")         \
  X(IallreduceTwoLevel, Coll, "iallreduce.two_level", "rounds", "sends") \
  X(IalltoallLinear, Coll, "ialltoall.linear", "rounds", "sends")       \
  X(IalltoallPairwise, Coll, "ialltoall.pairwise", "rounds", "sends")   \
  X(IalltoallBruck, Coll, "ialltoall.bruck", "rounds", "sends")         \
  X(Ibcast, Coll, "ibcast", "rounds", "sends")                          \
  X(IbcastTwoLevel, Coll, "ibcast.two_level", "rounds", "sends")        \
  X(IneighborAllAtOnce, Coll, "ineighbor.all_at_once", "rounds",        \
    "sends")                                                            \
  X(IneighborDimensionOrdered, Coll, "ineighbor.dimension_ordered",     \
    "rounds", "sends")                                                  \
  X(IneighborEvenOdd, Coll, "ineighbor.even_odd", "rounds", "sends")    \
  X(IreduceBinomial, Coll, "ireduce.binomial", "rounds", "sends")       \
  X(IreduceChain, Coll, "ireduce.chain", "rounds", "sends")             \
  X(IscatterLinear, Coll, "iscatter.linear", "rounds", "sends")         \
  X(IscatterFan, Coll, "iscatter.fan", "rounds", "sends")               \
  X(IscatterRail, Coll, "iscatter.rail", "rounds", "sends")             \
  X(IscatterStriped, Coll, "iscatter.striped", "rounds", "sends")

/// What an event is: one enumerator per line of NBCTUNE_TRACE_KINDS.
enum class Kind : std::uint8_t {
#define NBCTUNE_TRACE_KIND_ENUM(id, cat, name, akey, bkey) id,
  NBCTUNE_TRACE_KINDS(NBCTUNE_TRACE_KIND_ENUM)
#undef NBCTUNE_TRACE_KIND_ENUM
};

/// A kind's schema row: everything an exported event spells out that
/// the in-memory Event leaves to its kind.
struct KindRow {
  Cat cat;
  std::string_view name;  ///< Chrome `name`
  const char* akey;  ///< key of Event::aval; nullptr = no argument
  const char* bkey;  ///< key of Event::bval; nullptr = no argument
};

/// Every kind's row, indexed by the enumerator.
inline constexpr KindRow kKindRows[] = {
#define NBCTUNE_TRACE_KIND_ROW(id, cat, name, akey, bkey) \
  {Cat::cat, name, akey, bkey},
    NBCTUNE_TRACE_KINDS(NBCTUNE_TRACE_KIND_ROW)
#undef NBCTUNE_TRACE_KIND_ROW
};
#undef NBCTUNE_TRACE_KINDS

[[nodiscard]] constexpr const KindRow& row(Kind k) noexcept {
  return kKindRows[static_cast<std::size_t>(k)];
}

/// The kinds exported under Chrome name `name`, in schema order: one for
/// most names, two for adcl.retune, none for a name outside the schema.
/// The name lookup of read_chrome and of the string-named instant().
[[nodiscard]] std::span<const Kind> kinds_named(std::string_view name) noexcept;

/// Monotonic counters.  A fixed enum (not a string registry) keeps the
/// hot-path increment at one array add after the null-tracer branch.
enum class Ctr : std::uint8_t {
  EngineEventsScheduled,  ///< Engine::schedule_at calls
  EngineEventsFired,      ///< callbacks actually executed
  EngineEventsCancelled,  ///< successful Engine::cancel calls
  EngineNowFifoHits,      ///< zero-delay events that bypassed the heap
  FiberSwitches,          ///< scheduler -> fiber resumes
  MsgsEager,              ///< eager payload messages shipped
  MsgsRts,                ///< rendezvous request-to-send messages
  MsgsCts,                ///< rendezvous clear-to-send messages
  MsgsBulkChunks,         ///< CPU-driven bulk chunks pushed
  MsgsNicBulks,           ///< NIC-driven (RDMA) bulk transfers
  BytesOnWire,            ///< payload bytes serialized onto a NIC/mem port
  NbcRoundsPosted,        ///< schedule rounds posted
  NbcOpsStarted,          ///< Handle::start calls
  NbcOpsCompleted,        ///< operations that reached done
  CollSchedulesBuilt,     ///< collective schedules constructed
  ProgressPasses,         ///< progress-engine passes (any trigger)
  ProgressCallsExplicit,  ///< explicit application progress() calls
  AdclBatchesScored,      ///< per-function sample batches scored
  AdclDecisions,          ///< selection decisions finalized
  AdclSamplesSeen,        ///< samples entering statistical filtering
  AdclSamplesFiltered,    ///< samples discarded by the filter
  AdclEliminations,       ///< attribute-heuristic pruning steps
  AdclRetunes,            ///< drift detections that re-opened tuning
  AdclGuidelinePrunes,    ///< members convicted by guideline verdicts
  FaultDrops,             ///< messages dropped by the injector
  FaultDups,              ///< messages duplicated by the injector
  FaultDegradedMsgs,      ///< messages shipped through a degradation window
  FaultNicStalls,         ///< messages delayed by an injected NIC stall
  FaultStragglerBursts,   ///< compute bursts dilated on a straggler rank
  FaultStarvedPasses,     ///< progress passes taxed by starvation
  MsgsAcks,               ///< transport-level acknowledgements shipped
  MsgsRetransmits,        ///< retransmissions after an RTO expiry
  MsgsDupDeliveries,      ///< duplicate deliveries discarded by dedup
  MsgsSendFailures,       ///< sends declared failed (retries exhausted)
  NbcFallbacks,           ///< ops restarted on the fallback algorithm
  SimFibersCreated,       ///< fibers constructed
  WorldPeakArenaBytes,    ///< flat per-rank World arenas at destruction
  RailPinnedMsgs,         ///< inter-node messages on a pinned NIC rail
  RailAutoMsgs,           ///< inter-node messages on the default rail spread
  TraceDroppedEvents,     ///< events discarded by the buffer cap (see
                          ///< NBCTUNE_TRACE_MAX_EVENTS)
  MpiRankDeaths,          ///< fail-stop kills executed by the injector
  MpiShrinks,             ///< agreement rounds that shrank the communicator
  NbcRebuilds,            ///< NBC handles rebuilt on a survivor communicator
  NbcOpsAborted,          ///< started ops torn down by death or recovery
  kCount,
};
[[nodiscard]] const char* ctr_name(Ctr c) noexcept;

/// Power-of-two-bucket histograms of integer values.
enum class Hist : std::uint8_t {
  WireBytes,         ///< bytes per on-wire transfer
  RoundsPerOp,       ///< schedule rounds per completed collective
  ScheduleRounds,    ///< rounds per built schedule
  ProgressPerOp,     ///< explicit progress calls per request iteration
  // Per-hierarchy-level message-size distributions (net::Level of the
  // endpoint pair; see net/topology.hpp).
  SocketBytes,       ///< bytes per same-socket message
  NodeBytes,         ///< bytes per same-node cross-socket message
  RackBytes,         ///< bytes per same-rack inter-node message
  SystemBytes,       ///< bytes per cross-rack message
  kCount,
};
[[nodiscard]] const char* hist_name(Hist h) noexcept;

/// One recorded event.  Its category, name and argument keys are its
/// kind's row, so an event is 48 bytes of plain data.
struct Event {
  double ts = 0.0;    ///< start, simulated seconds
  double dur = -1.0;  ///< span duration; < 0 encodes an instant event
  std::int32_t track = 0;  ///< >= 0: rank; < 0: wire track (see wire_track)
  Kind kind{};
  std::uint64_t aval = 0;  ///< value of the row's first argument
  std::uint64_t bval = 0;  ///< value of the row's second argument
  /// Correlation id parenting events into causal chains (0 = none).
  /// Message lifecycles share one id across post instant, wire span(s) and
  /// delivery/completion instant; NBC events share the per-rank operation
  /// id; ADCL events carry the learning iteration.  Exported to Chrome
  /// JSON as args.corr — the graph edge the analyzer reconstructs.
  std::uint64_t corr = 0;

  [[nodiscard]] bool is_span() const noexcept { return dur >= 0.0; }
  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(sizeof(Event) == 48, "trace::Event grew past 48 bytes");

/// Track id of node `n`'s wire (NIC / memory-port) serialization lane.
[[nodiscard]] constexpr std::int32_t wire_track(int node) noexcept {
  return -1 - node;
}

struct HistData {
  std::array<std::uint64_t, 64> buckets{};  ///< buckets[i]: v in [2^(i-1), 2^i)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

// ---------------------------------------------------------------- tracer

/// The event buffer and metric registry of ONE simulation.  A simulation
/// is single-threaded (fibers), so recording is plain vector appends and
/// array adds — no locks, no allocation beyond vector growth.
class Tracer {
 public:
  explicit Tracer(std::string label)
      : label_(std::move(label)), max_events_(default_max_events()) {}

  /// Event-buffer cap for new tracers: $NBCTUNE_TRACE_MAX_EVENTS, 0 (the
  /// default) = unbounded.  A mega-scale sweep can emit hundreds of
  /// millions of events; with a cap the buffer stops growing and every
  /// discarded event is tallied in Ctr::TraceDroppedEvents instead, so
  /// exports stay honest about their truncation.
  [[nodiscard]] static std::size_t default_max_events() noexcept;

  void emit(const Event& e) {
    if (max_events_ != 0 && events_.size() >= max_events_) {
      counts_[static_cast<std::size_t>(Ctr::TraceDroppedEvents)] += 1;
      return;
    }
    events_.push_back(e);
  }
  void count(Ctr c, std::uint64_t d = 1) noexcept {
    counts_[static_cast<std::size_t>(c)] += d;
  }
  void record(Hist h, std::uint64_t v) noexcept;

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t counter(Ctr c) const noexcept {
    return counts_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const HistData& histogram(Hist h) const noexcept {
    return hists_[static_cast<std::size_t>(h)];
  }

 private:
  friend class Session;
  friend class Scope;
  std::string label_;
  std::optional<ScenarioKey> key_;  ///< set by Scope(ScenarioKey)
  std::size_t max_events_ = 0;  ///< 0 = unbounded
  std::vector<Event> events_;
  std::array<std::uint64_t, static_cast<std::size_t>(Ctr::kCount)> counts_{};
  std::array<HistData, static_cast<std::size_t>(Hist::kCount)> hists_{};
};

namespace detail {
/// Backing store of current(); constinit, so every hook reads it
/// directly, with no TLS-init wrapper call.
inline constinit thread_local Tracer* tl_current = nullptr;
}  // namespace detail

/// The tracer of the simulation currently running on this thread, or
/// nullptr when tracing is off (the common case).
[[nodiscard]] inline Tracer* current() noexcept { return detail::tl_current; }
/// Install `t` as the current tracer; returns the previous one.
inline Tracer* set_current(Tracer* t) noexcept {
  Tracer* prev = detail::tl_current;
  detail::tl_current = t;
  return prev;
}

// Guarded instrumentation helpers: each is a thread-local load plus a
// branch when tracing is off.
inline void count(Ctr c, std::uint64_t d = 1) noexcept {
  if (Tracer* t = current()) t->count(c, d);
}
inline void record(Hist h, std::uint64_t v) noexcept {
  if (Tracer* t = current()) t->record(h, v);
}
inline void instant(double ts, std::int32_t track, Kind kind,
                    std::uint64_t aval = 0, std::uint64_t bval = 0,
                    std::uint64_t corr = 0) {
  if (Tracer* t = current()) {
    t->emit(Event{ts, -1.0, track, kind, aval, bval, corr});
  }
}
inline void span(double ts, double dur, std::int32_t track, Kind kind,
                 std::uint64_t aval = 0, std::uint64_t bval = 0,
                 std::uint64_t corr = 0) {
  if (Tracer* t = current()) {
    t->emit(Event{ts, dur < 0.0 ? 0.0 : dur, track, kind, aval, bval, corr});
  }
}
/// String-named instant, kept for perfbench's trace.emit_ns probe,
/// which names its event instead of passing a Kind.  `name` resolves
/// through kinds_named, `akey` choosing between kinds that share a name,
/// and `aval` / `bval` land under the row's keys (`cat` and `bkey` are
/// ignored).  A name outside the schema records nothing and is counted
/// in Ctr::TraceDroppedEvents.
void instant(double ts, std::int32_t track, Cat cat, const char* name,
             const char* akey = nullptr, std::uint64_t aval = 0,
             const char* bkey = nullptr, std::uint64_t bval = 0,
             std::uint64_t corr = 0);
[[nodiscard]] inline bool active() noexcept { return current() != nullptr; }

// --------------------------------------------------------------- session

/// A finished per-scenario trace, detached from its Tracer.
struct FinishedTrace {
  std::string label;
  std::optional<ScenarioKey> key;  ///< absent for unkeyed scopes
  std::vector<Event> events;
  std::array<std::uint64_t, static_cast<std::size_t>(Ctr::kCount)> counts{};
  std::array<HistData, static_cast<std::size_t>(Hist::kCount)> hists{};
};

/// Process-wide collector of finished traces.  Disabled by default; a
/// bench driver enables it once (`--trace`).  Adoption order is the
/// export order: Scopes adopt directly when no staging buffer is
/// installed (serial execution), while ScenarioPool stages per-task
/// buffers and adopts them by submission index after the batch joins.
class Session {
 public:
  /// Live observer of scenario lifecycles (src/obs wires its streaming
  /// JSONL sink here).  Callbacks fire on whatever thread runs the
  /// scenario — start from the Scope constructor, finish from the Scope
  /// destructor *before* the trace is staged/adopted, i.e. in completion
  /// order, not submission order.  Implementations must be thread-safe.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_scope_start(const std::string& label) = 0;
    virtual void on_scope_finish(const FinishedTrace& t) = 0;
  };

  /// Install the process-wide lifecycle listener (nullptr to detach).
  /// Install before the sweep starts and detach after it joins; the
  /// pointer itself is read atomically on the scenario hot path.
  static void set_listener(Listener* l) noexcept;
  [[nodiscard]] static Listener* listener() noexcept;

  /// True once enable() was called (lock-free flag read).
  [[nodiscard]] static bool enabled() noexcept;
  /// Turn the session on (idempotent).  There is no disable: a session
  /// lives until process exit, like the bench run it observes.
  static void enable();
  static Session& instance();

  /// Append a finished trace (thread-safe; order = call order).
  void adopt(FinishedTrace t);

  /// Install a staging buffer for the current thread; Scopes finishing on
  /// this thread append there instead of adopting into the session.
  /// Returns the previously installed buffer (restore when done).
  static std::vector<FinishedTrace>* set_staging(
      std::vector<FinishedTrace>* s) noexcept;

  /// Route a finished trace: current thread's staging buffer if any,
  /// otherwise the global session (no-op when the session is disabled).
  static void finish(FinishedTrace t);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t total_events() const;

  /// Remove and return every adopted trace (in adoption order).  Lets
  /// tests inspect one batch in isolation; exporters below see only what
  /// has not been drained.
  [[nodiscard]] std::vector<FinishedTrace> drain();

  /// Chrome trace-event JSON: one pid per adopted scenario, one tid per
  /// rank track plus wire tracks.  Loadable in ui.perfetto.dev.  A keyed
  /// scenario's ScenarioKey fields ride in its process_name args.
  void write_chrome(std::ostream& os) const;
  /// Flat deterministic counter/histogram dump for CI diffing.
  void write_counters(std::ostream& os) const;

 private:
  Session() = default;
  struct Impl;
  Impl& impl() const;
};

// ----------------------------------------------------- JSON formatting

/// `s` escaped as the body of a JSON string: `"` and `\` get a
/// backslash, newline / tab / CR become `\n` `\t` `\r`, and every other
/// byte below 0x20 becomes `\u00XX`.  The one escaper behind every JSON
/// writer in the tree (Chrome export, analyzer report, profiles, live
/// stream).
[[nodiscard]] std::string json_escaped(std::string_view s);

/// Append `v` in fixed point with three decimals, byte-identical to
/// printf("%.3f", v) for every finite double (the Chrome exporter's
/// microsecond fields).
void append_fixed3(std::string& out, double v);

/// RAII: installs a fresh Tracer for one scenario when the session is
/// enabled; on destruction detaches it and hands the finished trace to
/// the staging buffer / session.  When the session is disabled this is a
/// no-op and tracing stays a null-pointer branch everywhere.
class Scope {
 public:
  explicit Scope(std::string label);
  /// A keyed scope: labelled key.label(), and the key rides the finished
  /// trace into the Chrome export and the analyzer's guideline groups.
  explicit Scope(ScenarioKey key);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The tracer installed by this scope (null when tracing is off).
  [[nodiscard]] Tracer* tracer() noexcept { return tracer_.get(); }

 private:
  std::unique_ptr<Tracer> tracer_;
  Tracer* prev_ = nullptr;
};

}  // namespace nbctune::trace
