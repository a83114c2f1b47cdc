#pragma once

// The message-passing world: N simulated ranks on a simulated machine.
//
// World wires the simulation engine, the machine model, and per-rank state
// together.  Rank programs receive a Ctx& — the per-rank API surface — and
// run as fibers.  The central modeling decision (see DESIGN.md):
//
//   * NIC-driven activity (eager payload delivery, RDMA bulk after the
//     rendezvous handshake) advances autonomously in simulated time.
//   * CPU-driven activity (matching, CTS issuance, TCP-style bulk pushes,
//     schedule round transitions) advances ONLY when the owning rank is
//     inside a library call — exactly the single-threaded MPI progress
//     semantics whose consequences the paper studies.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "mpi/ft.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "net/machine.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace nbctune::mpi {

class World;
class Ctx;

/// Something that wants to be driven by the progress engine (the NBC
/// schedule executor registers itself here).  poke() is called on every
/// progress pass of the owning rank and may post internal operations.
class ProgressClient {
 public:
  virtual ~ProgressClient() = default;
  /// Advance; return the CPU seconds consumed by this poke.
  virtual double poke(Ctx& ctx) = 0;
};

/// Tags at or above this base form the reliable control plane (the
/// bootstrap collectives of collectives.cpp: tuner agreement, recovery
/// votes).  Fault injection never drops or duplicates them and the lossy
/// transport does not ack/track them — recovery agreement must be able to
/// run while the data plane is failing, exactly like the out-of-band
/// channels of real fault-tolerant runtimes.
inline constexpr int kReliableTagBase = 1 << 24;

/// Sub-tags per bootstrap-collective epoch (collectives.cpp uses slots
/// 0..3 of each epoch; shared here so fail-stop recovery can compute the
/// post-shrink tag floor when discarding stale control-plane traffic).
inline constexpr int kCollEpochSpan = 8;

/// World construction options.
struct WorldOptions {
  int nprocs = 2;
  std::uint64_t seed = 1;
  /// Scale factor on the platform's noise model (0 = fully deterministic).
  double noise_scale = 1.0;
  /// Fiber stack size for launch(); 0 = sim::kDefaultFiberStackBytes
  /// (256 KiB).
  std::size_t fiber_stack_bytes = 0;
  /// Optional fault plan (must outlive the World).  Attaching a lossy plan
  /// switches inter-node messaging to ack/retransmit mode.
  const fault::FaultPlan* fault_plan = nullptr;
};

// NOTE on cost-model runs: large-scale experiments pass null buffers to
// the collective builders; null source/destination pointers skip the
// payload copies while every modeled cost is still charged.  Non-null
// buffers always move real bytes — the tuner's control plane (decision
// allreduces) depends on it.

namespace detail {

/// In-flight transport message (eager payload, RTS, CTS, or — under a
/// lossy fault plan — an acknowledgement).
struct Envelope {
  enum class Kind : std::uint8_t { Eager, Rts, Cts, Ack } kind = Kind::Eager;
  int src = 0;  ///< world rank
  int dst = 0;  ///< world rank
  int context = 0;
  int tag = 0;
  int rail = -1;  ///< pinned NIC rail (-1 = per-peer default spreading)
  std::size_t bytes = 0;         ///< payload size of the user message
  std::uint64_t match_id = 0;    ///< sender request (Rts/Cts reply routing)
  std::uint64_t peer_match_id = 0;  ///< receiver request (Cts)
  const void* send_buf = nullptr;   ///< sender buffer (rendezvous delivery)
  std::vector<std::byte> payload;   ///< copied eager payload
  /// World-unique message id; the trace correlation linking this
  /// message's post instant, wire span(s) and delivery instant.
  std::uint64_t seq = 0;
};

/// Key of the posted-receive and unexpected-message tables: every
/// receive names its source and tag, so matching is exact.
struct MatchKey {
  int context;
  int tag;
  int src;
  friend auto operator<=>(const MatchKey&, const MatchKey&) = default;
};

/// Per-rank library-side state.
struct RankState {
  sim::Process* process = nullptr;
  Ctx* ctx = nullptr;
  int node = 0;
  RequestPool pool;  // its live count is the un-observed requests
  // The matching tables.  emplace() inserts at the end of a key's equal
  // range, so lower_bound(key) is its oldest entry: FIFO per key, MPI's
  // non-overtaking order.
  std::multimap<MatchKey, Req> posted;           // receives awaiting data
  std::multimap<MatchKey, Envelope> unexpected;  // arrivals awaiting a recv
  std::vector<Envelope> inbound;            // arrived, not yet processed
  std::vector<Req> cpu_bulk_sends;          // CPU-driven bulks in progress
  std::vector<ProgressClient*> clients;
  /// Fail-stop kill executed: the NIC is silenced (ship/deliver discard),
  /// the progress engine is stopped, and the fiber unwinds via RankKilled.
  bool dead = false;
  /// Per-rank noise stream (seeded per scenario): jitter draws are
  /// independent of global event interleaving, so rel_sigma > 0 runs stay
  /// byte-identical across --threads counts.
  sim::Rng noise_rng{1};
  /// Duplicate-delivery suppression under lossy fault plans: (kind, src,
  /// match_id) triples already delivered to this rank.  The kind
  /// disambiguates match ids drawn from different pools (an eager/RTS id
  /// names a request of `src`, a CTS id names one of ours).
  std::set<std::tuple<std::uint8_t, int, std::uint64_t>> seen_msgs;
};

}  // namespace detail

/// Packs a request handle into the 64-bit match id carried by rendezvous
/// control messages (the owning rank travels in the envelope src/dst).
std::uint64_t pack_match(Req h) noexcept;

/// The world: owns rank state and the transport.
class World {
 public:
  World(sim::Engine& engine, net::Machine& machine, WorldOptions options);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Launch the same program on every rank.  Call engine.run() afterwards.
  void launch(std::function<void(Ctx&)> program);

  /// Bytes in the flat per-rank arenas: the RankState vector plus every
  /// rank's request-pool slots (fiber stacks not included).
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

  [[nodiscard]] int size() const noexcept { return options_.nprocs; }
  /// Block placement: ranks fill node 0's cores first, then node 1's.
  [[nodiscard]] int node_of(int wrank) const noexcept {
    return wrank / platform().cores_per_node;
  }
  /// Core slot of `wrank` within its node; feeds Topology::level_between
  /// for socket locality.
  [[nodiscard]] int core_of(int wrank) const noexcept {
    return wrank % platform().cores_per_node;
  }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const WorldOptions& options() const noexcept { return options_; }
  [[nodiscard]] const net::Platform& platform() const noexcept {
    return machine_.platform();
  }

  /// The communicator containing every rank.
  [[nodiscard]] Comm comm_world() const noexcept { return world_comm_; }

  /// Deterministic child-context allocation: every member of a collective
  /// dup/split asks with the same (parent, epoch, color) triple and gets
  /// the same id.
  int alloc_context(int parent_context, int epoch, int color);

  /// Jitter a cost by the platform noise model (scaled by noise_scale),
  /// drawing from `wrank`'s private noise stream.
  double jitter(int wrank, double cost);

  /// The fault injector, or nullptr when no plan is attached.
  [[nodiscard]] fault::Injector* injector() noexcept {
    return injector_.get();
  }

  /// The fail-stop recovery service, or nullptr when the attached plan
  /// has no kills (created by launch()).
  [[nodiscard]] RecoveryService* ft() noexcept { return ft_.get(); }

  /// Dense re-ranking of `survivors` into a fresh communicator (new
  /// context id = fresh tag space).  Called once per agreement round by
  /// the RecoveryService; the decision shares the result with every
  /// survivor, so membership is globally consistent by construction.
  Comm shrink(const std::vector<int>& survivors, int epoch);

  /// Duplicate-suppression entries naming `src` across every rank's
  /// seen_msgs table (diagnostics; recovery reclaims a dead rank's
  /// entries, so this must drop to zero for failed ranks post-shrink).
  [[nodiscard]] std::size_t dedup_entries(int src) const noexcept;

 private:
  friend class Ctx;
  friend class RecoveryService;

  detail::RankState& rank_state(int wrank) { return ranks_.at(wrank); }

  // ---- transport ----
  /// When a transfer leaves its sender and when it lands (see transmit).
  struct Wire {
    sim::Time sent = 0.0;    ///< the sender's port or transmit engine is free
    sim::Time landed = 0.0;  ///< the data is at the receiver
    int rx_nic = 0;          ///< receiving NIC (inter-node only)
    double rx_busy = 0.0;    ///< receive-engine busy time (inter-node only)
  };

  /// The wire cost model, for every transfer between nodes `src` and
  /// `dst`.  Same node: the memory port is busy for bytes x mem_byte_time
  /// x congestion + `mem_gap`, and the data lands one intra-node latency
  /// later.  Different nodes: the transmit engine (NIC `rail`, or the
  /// per-peer default) starts no earlier than `tx_at`; the receive engine
  /// starts one latency after it and is busy as long, times incast
  /// congestion; a degrade window read at `earliest` stretches both.  A
  /// `lost` transfer reserves no receive side.
  Wire transmit(int src, int dst, int rail, std::size_t bytes, double mem_gap,
                sim::Time earliest, sim::Time tx_at, trace::Kind what,
                std::uint64_t corr, bool lost);

  /// Put an envelope on the wire; `earliest` is when the sender's CPU is
  /// done preparing it.  Returns the transmit-complete time on the sender
  /// (for eager local completion).
  sim::Time ship(detail::Envelope env, sim::Time earliest);

  void deliver(detail::Envelope env);  // arrival event body (scheduler ctx)
  void notify(int wrank);              // wake a rank blocked in the library

  /// Schedule the RDMA-style NIC-driven bulk of send request `sreq` (CTS
  /// handled, `r` its state) from rank `src`; both ends complete on landing.
  void start_nic_bulk(int src, Req sreq, const Request& r, sim::Time earliest);

  /// A bulk transfer landed: the receiver's request gets the data from
  /// `sbuf`, then the sender's request completes.
  void land_bulk(int src, Req sreq, int dst, std::uint64_t dst_match,
                 const void* sbuf, std::uint64_t corr);
  void complete_request(int wrank, std::uint64_t match_id,
                        const void* deliver_from);
  /// Complete the send request `h` of `wrank` (no-op once cancelled).
  void complete_send(int wrank, Req h);

  // ---- resilience (lossy fault plans) ----
  /// True when messages from rank `src` to rank `dst` on `tag` are acked,
  /// deduplicated and retransmitted: a lossy plan, different nodes, and
  /// the data plane.
  [[nodiscard]] bool tracked(int src, int dst, int tag) const noexcept {
    return lossy_ && ranks_[src].node != ranks_[dst].node &&
           tag < kReliableTagBase;
  }
  /// Track send-side request `h` for retransmission of a `kind` message:
  /// the plan's retries and RTO, and the timer armed.
  void track(int wrank, Req h, RexmitKind kind);
  /// Arm (or re-arm) the RTO timer on a tracked send-side message.
  void arm_retransmit(int wrank, Req h);
  /// RTO expiry: retransmit with doubled timeout, or declare failure.
  void on_rto(int wrank, Req h);
  /// Reconstruct the tracked message of `r` for retransmission.
  detail::Envelope rebuild_envelope(int wrank, Req h, const Request& r);
  /// Ack arrival on the sender: mark acked, cancel the timer, complete
  /// eager sends.
  void handle_ack(const detail::Envelope& env);
  /// Ship a zero-byte Ack for a delivered tracked envelope.
  void send_ack(const detail::Envelope& env);

  sim::Engine& engine_;
  net::Machine& machine_;
  WorldOptions options_;
  /// Flat contiguous per-rank arena; sized once in the constructor, never
  /// resized (stable addresses).
  std::vector<detail::RankState> ranks_;
  Comm world_comm_;
  std::shared_ptr<const CommData> world_comm_data_;
  std::map<std::tuple<int, int, int>, int> context_registry_;
  int next_context_ = 1;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  /// Message / bulk-transfer id source (trace correlation; deterministic:
  /// ships happen in simulated-event order, which is seed-stable).
  std::uint64_t next_msg_seq_ = 0;
  std::unique_ptr<fault::Injector> injector_;
  bool lossy_ = false;
  std::unique_ptr<RecoveryService> ft_;
};

/// Per-rank API surface.  A Ctx is only valid inside its own fiber.
class Ctx {
 public:
  Ctx(World& world, int wrank);

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // ---- identity & time ----
  [[nodiscard]] int world_rank() const noexcept { return wrank_; }
  [[nodiscard]] World& world() noexcept { return world_; }
  [[nodiscard]] sim::Time now() const noexcept { return world_.engine().now(); }

  // ---- computation ----
  /// Burn CPU for `seconds` of simulated time (plus platform noise).
  /// No library progress happens on this rank while computing.
  void compute(double seconds);

  /// One explicit pass of the progress engine (the ADCL progress call).
  void progress();

  // ---- point-to-point ----
  Req isend(const Comm& comm, const void* buf, std::size_t bytes, int dst,
            int tag);
  Req irecv(const Comm& comm, void* buf, std::size_t bytes, int src, int tag);
  bool test(Req& h, Status* status = nullptr);
  void wait(Req& h, Status* status = nullptr);
  void wait_all(std::vector<Req>& hs);
  void send(const Comm& comm, const void* buf, std::size_t bytes, int dst,
            int tag);
  Status recv(const Comm& comm, void* buf, std::size_t bytes, int src, int tag);

  // ---- internal posting interface (used by the NBC engine from inside
  //      progress passes; does not itself run a progress pass).  Returns
  //      the CPU cost the caller must account for. ----
  // `rail` pins the transfer to one NIC rail (multi-NIC striping); the
  // pinned rail is folded into the wire tag, so a send and its matching
  // receive must agree on it (see alloc_nbc_tag / nbc::Action::rail).
  Req post_isend(const Comm& comm, const void* buf, std::size_t bytes, int dst,
                 int tag, double& cpu_cost, double earliest_offset,
                 int rail = -1);
  Req post_irecv(const Comm& comm, void* buf, std::size_t bytes, int src,
                 int tag, double& cpu_cost, int rail = -1);
  /// Stable pointer to a live request (hot-path completion polling).
  Request* request_ptr(Req h);
  /// Observe a known-complete request, freeing it.
  void observe(Req& h, Status* status);

  // ---- progress clients ----
  void register_client(ProgressClient* c);
  void unregister_client(ProgressClient* c);

  /// Tag stride between consecutive NBC operations.  Rail-pinned
  /// transfers occupy the sub-tags tag+1 .. tag+kTagStride-1 (effective
  /// tag = tag + 1 + rail), so stripes of one logical message to the same
  /// peer match pairwise even when different rails reorder arrivals.
  /// Rails must therefore stay below kTagStride - 1.
  static constexpr int kTagStride = 16;

  /// Allocate a tag for one non-blocking collective operation.  Every
  /// rank creates collectives in the same order (collective contract), so
  /// per-rank counters agree across the communicator.
  int alloc_nbc_tag() {
    const int tag =
        (1 << 20) + (nbc_tag_counter_++ % (1 << 18)) * kTagStride;
    return tag;
  }

  /// Allocate a per-rank NBC operation id for trace parenting.  Ranks
  /// start collectives in the same order (collective contract, same
  /// argument as alloc_nbc_tag), so equal ids across rank tracks denote
  /// the same logical operation instance — the analyzer's grouping key.
  std::uint64_t alloc_op_corr() noexcept { return ++op_corr_counter_; }

  // ---- bootstrap collectives (blocking; control plane for the harness
  //      and the tuner's decision synchronization) ----
  void barrier(const Comm& comm);
  void bcast(const Comm& comm, void* buf, std::size_t bytes, int root);
  double allreduce(const Comm& comm, double value, ReduceOp op);
  void allreduce(const Comm& comm, const double* in, double* out,
                 std::size_t n, ReduceOp op);
  void allgather(const Comm& comm, const void* in, void* out,
                 std::size_t bytes_each);

  // ---- communicator management (collective over the parent) ----
  Comm dup(const Comm& comm);
  Comm split(const Comm& comm, int color, int key);

  /// Sleep the fiber for a CPU cost (used by library internals).
  void charge(double seconds);

  /// One progress pass: drain inbound envelopes, push CPU-driven bulks,
  /// poke clients.  `explicit_call` adds the base progress cost.
  void progress_pass(bool explicit_call);

  /// Block (progressing) until pred() becomes true.  The predicate is
  /// evaluated after each progress pass; the rank sleeps between passes
  /// and is woken by message events.  The one blocking loop: wait,
  /// wait_all, the recovery wait and the NBC wait all run it.
  template <typename Pred>
  void wait_until(Pred&& pred) {
    check_ft();
    progress_pass(false);
    while (!pred()) {
      st().process->suspend();
      check_ft();
      progress_pass(false);
    }
  }

  /// Cancel an un-observed request without completing it (NBC timeout
  /// recovery): stops its RTO timer, unlinks posted receives and
  /// CPU-driven bulks, and releases the slot.  The handle becomes null.
  void cancel_request(Req& h);

  /// Schedule a wakeup of this rank `dt` seconds from now; returns the
  /// engine event id (cancel with cancel_event).  Lets blocked waiters
  /// observe deadlines even when no message event arrives.
  std::uint64_t schedule_wake(double dt);
  void cancel_event(std::uint64_t id);

  // ---- fail-stop recovery (kill plans; see mpi/ft.hpp) ----
  /// Enter the agreement after catching RanksFailed at loop iteration
  /// `iteration`; blocks until the round's decision is delivered, then
  /// runs the per-rank cleanup (leaked control-plane requests cancelled,
  /// dead-peer receive state reclaimed, collective counters resynced)
  /// and returns the decision.
  FtDecision ft_recover(int iteration);
  /// Enter the agreement as a standing arrival after completing the loop
  /// (termination protocol): blocks like ft_recover.  If the returned
  /// decision's all_finished is false, the caller must rejoin its loop at
  /// resume_iteration — another survivor still needs the redone work.
  FtDecision ft_finish();

 private:
  friend class World;

  detail::RankState& st() { return world_.rank_state(wrank_); }

  /// The work of one progress pass; returns the CPU cost to charge.
  double progress_work(bool explicit_call);

  /// The noisy duration of `seconds` of user compute (jitter, outlier and
  /// fault-dilation draws included); `seconds` must be positive.
  double compute_cost(double seconds);

  /// Fail-stop interruption point: throws RankKilled when this rank is
  /// dead, RanksFailed when a peer failure is detectable and not yet
  /// acknowledged (suppressed inside the recovery wait itself).
  void check_ft();
  FtDecision ft_wait(int iteration, bool finished);
  void ft_cleanup(const FtDecision& d);

  void handle_envelope(detail::Envelope& env, double& cpu_cost);
  /// A matched eager or RTS envelope for receive request `rh`: complete
  /// the eager receive, or answer the RTS with a CTS.
  void accept(const detail::Envelope& env, Req rh, double& cpu_cost);
  void send_cts(const detail::Envelope& rts, Req rh, double& cpu_cost);
  void push_chunks(double& cpu_cost);
  double bulk_chunk_cost(std::size_t chunk) const;

  World& world_;
  int wrank_;
  int epoch_counter_ = 0;  // tag disambiguation for bootstrap collectives
  int nbc_tag_counter_ = 0;
  std::uint64_t op_corr_counter_ = 0;
  std::map<int, int> split_epochs_;  // per-context dup/split call counts
  int ft_acked_ = 0;         // detectable failures acknowledged so far
  bool in_recovery_ = false; // the recovery wait must itself block
};

}  // namespace nbctune::mpi
