#include "mpi/world.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "trace/trace.hpp"

namespace nbctune::mpi {

using detail::Envelope;
using detail::MatchKey;
using detail::RankState;

namespace {
/// Bytes a control message (RTS/CTS) occupies on the wire.
constexpr std::size_t kCtrlBytes = 64;

std::uint32_t match_index(std::uint64_t m) noexcept {
  return static_cast<std::uint32_t>(m >> 32);
}
std::uint32_t match_gen(std::uint64_t m) noexcept {
  return static_cast<std::uint32_t>(m);
}
}  // namespace

std::uint64_t pack_match(Req h) noexcept {
  return (static_cast<std::uint64_t>(h.index) << 32) | h.generation;
}

// ------------------------------------------------------------------ World

World::World(sim::Engine& engine, net::Machine& machine, WorldOptions options)
    : engine_(engine), machine_(machine), options_(options) {
  if (options_.nprocs < 1) throw std::invalid_argument("World: nprocs < 1");
  const auto& p = machine_.platform();
  if (options_.placement == WorldOptions::Placement::Block &&
      options_.nprocs > p.total_cores()) {
    throw std::invalid_argument("World: more ranks than cores on " + p.name);
  }
  // One flat contiguous arena for all per-rank library state; sized once,
  // never resized, so RankState addresses stay stable for the lifetime of
  // the world.
  ranks_ = std::vector<RankState>(static_cast<std::size_t>(options_.nprocs));
  for (int r = 0; r < options_.nprocs; ++r) {
    ranks_[r].node = node_of(r);
    // Per-rank noise stream: seeded from (scenario seed, rank) only, so
    // jitter draws never depend on global event interleaving.
    ranks_[r].noise_rng.reseed(
        options_.seed ^
        (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(r + 1)));
  }
  if (options_.fault_plan != nullptr && options_.fault_plan->enabled()) {
    injector_ =
        std::make_unique<fault::Injector>(*options_.fault_plan, options_.seed);
    lossy_ = options_.fault_plan->lossy();
  }
  auto data = std::make_shared<CommData>();
  data->context = 0;
  data->members.resize(options_.nprocs);
  for (int r = 0; r < options_.nprocs; ++r) data->members[r] = r;
  world_comm_data_ = data;
  world_comm_ = Comm(this, world_comm_data_);
}

World::~World() {
  // Report the arena footprint while the scenario's tracer is still
  // installed (the World dies before the enclosing trace::Scope).
  trace::count(trace::Ctr::WorldPeakArenaBytes, arena_bytes());
}

std::size_t World::arena_bytes() const noexcept {
  std::size_t bytes = ranks_.capacity() * sizeof(RankState);
  for (const RankState& rs : ranks_) bytes += rs.pool.capacity_bytes();
  return bytes;
}

int World::node_of(int wrank) const {
  const auto& p = machine_.platform();
  if (options_.placement == WorldOptions::Placement::RoundRobin) {
    return wrank % p.nodes;
  }
  return wrank / p.cores_per_node;
}

int World::core_of(int wrank) const {
  const auto& p = machine_.platform();
  if (options_.placement == WorldOptions::Placement::RoundRobin) {
    return (wrank / p.nodes) % p.cores_per_node;
  }
  return wrank % p.cores_per_node;
}

void World::launch(std::function<void(Ctx&)> program) {
  if (options_.fault_plan != nullptr && options_.fault_plan->has_kills() &&
      ft_ == nullptr) {
    ft_ = std::make_unique<RecoveryService>(*this, *options_.fault_plan);
    ft_->start();
  }
  for (int r = 0; r < options_.nprocs; ++r) {
    ctxs_.push_back(std::make_unique<Ctx>(*this, r));
    Ctx* ctx = ctxs_.back().get();
    RankState& rs = ranks_[r];
    rs.ctx = ctx;
    sim::Process& p = engine_.add_process(
        "rank" + std::to_string(r),
        [ctx, program](sim::Process&) {
          // A killed rank unwinds its whole program via RankKilled: the
          // fiber simply finishes (the modeled process is gone).
          try {
            program(*ctx);
          } catch (const RankKilled&) {
          }
        },
        options_.fiber_stack_bytes);
    rs.process = &p;
  }
}

Comm World::shrink(const std::vector<int>& survivors, int epoch) {
  auto data = std::make_shared<CommData>();
  // Negative epoch keys keep shrink contexts disjoint from every dup/split
  // allocation (their per-comm epochs count up from zero).
  data->context = alloc_context(0, -epoch, -1);
  data->members = survivors;
  return Comm(this, std::move(data));
}

int World::alloc_context(int parent_context, int epoch, int color) {
  auto key = std::make_tuple(parent_context, epoch, color);
  auto [it, inserted] = context_registry_.try_emplace(key, next_context_);
  if (inserted) ++next_context_;
  return it->second;
}

double World::jitter(int wrank, double cost) {
  const double sigma =
      machine_.platform().noise.rel_sigma * options_.noise_scale;
  if (sigma <= 0.0 || cost <= 0.0) return cost;
  const double f = 1.0 + sigma * ranks_[wrank].noise_rng.normal();
  return cost * std::max(0.0, f);
}

std::uint64_t World::total_data_msgs() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : ranks_) n += r.data_msgs;
  return n;
}
std::uint64_t World::total_ctrl_msgs() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : ranks_) n += r.ctrl_msgs;
  return n;
}

std::size_t World::dedup_entries(int src) const noexcept {
  std::size_t n = 0;
  for (const auto& r : ranks_) {
    for (const auto& key : r.seen_msgs) {
      if (std::get<1>(key) == src) ++n;
    }
  }
  return n;
}

void World::notify(int wrank) {
  RankState& rs = ranks_[wrank];
  if (rs.dead) return;  // fail-stopped: nothing left to wake
  rs.process->wake();
}

sim::Time World::ship(Envelope env, sim::Time earliest) {
  // A fail-stopped sender's NIC is silenced: in-flight transport
  // continuations (chunk pushes, acks, retransmits) die here.
  if (ft_ != nullptr && ranks_[env.src].dead) return earliest;
  RankState& src = ranks_[env.src];
  const int src_node = src.node;
  const int dst_node = ranks_[env.dst].node;
  const auto& p = machine_.platform();
  env.seq = ++next_msg_seq_;
  const std::size_t wire_bytes =
      env.kind == Envelope::Kind::Eager ? env.bytes : kCtrlBytes;
  trace::Kind wire_what;
  trace::Kind post_what;
  if (env.kind == Envelope::Kind::Eager) {
    ++src.data_msgs;
    wire_what = trace::Kind::WireEager;
    post_what = trace::Kind::MsgEager;
    trace::count(trace::Ctr::MsgsEager);
  } else {
    ++src.ctrl_msgs;
    switch (env.kind) {
      case Envelope::Kind::Rts:
        wire_what = trace::Kind::WireRts;
        post_what = trace::Kind::MsgRts;
        trace::count(trace::Ctr::MsgsRts);
        break;
      case Envelope::Kind::Cts:
        wire_what = trace::Kind::WireCts;
        post_what = trace::Kind::MsgCts;
        trace::count(trace::Ctr::MsgsCts);
        break;
      default:
        wire_what = trace::Kind::WireAck;
        post_what = trace::Kind::MsgAck;
        trace::count(trace::Ctr::MsgsAcks);
        break;
    }
  }
  if (trace::active()) {
    trace::instant(earliest, env.src, post_what,
                   static_cast<std::uint64_t>(env.dst), env.bytes, env.seq);
    // Hierarchy accounting: message-size distribution per endpoint-pair
    // level, and (inter-node only) whether the NIC rail was pinned by the
    // schedule or chosen by the default per-peer spread.
    switch (machine_.topology().level_between(src_node, core_of(env.src),
                                              dst_node, core_of(env.dst))) {
      case net::Level::Socket:
        trace::record(trace::Hist::SocketBytes, wire_bytes);
        break;
      case net::Level::Node:
        trace::record(trace::Hist::NodeBytes, wire_bytes);
        break;
      case net::Level::Rack:
        trace::record(trace::Hist::RackBytes, wire_bytes);
        break;
      case net::Level::System:
        trace::record(trace::Hist::SystemBytes, wire_bytes);
        break;
    }
    if (src_node != dst_node) {
      trace::count(env.rail >= 0 ? trace::Ctr::RailPinnedMsgs
                                 : trace::Ctr::RailAutoMsgs);
    }
  }

  // Fault injection applies to inter-node messaging only: intra-node
  // (shared-memory) traffic and bulk data streams are modeled reliable.
  fault::Injector* inj = injector_.get();
  bool dropped = false;
  bool duped = false;
  double lat_mult = 1.0;
  double bt_mult = 1.0;
  sim::Time tx_earliest = earliest;
  if (inj != nullptr && src_node != dst_node) {
    lat_mult = inj->latency_mult(earliest);
    bt_mult = inj->byte_time_mult(earliest);
    if (lat_mult != 1.0 || bt_mult != 1.0) {
      trace::count(trace::Ctr::FaultDegradedMsgs);
    }
    const double release = inj->nic_release(src_node, earliest);
    if (release > tx_earliest) {
      tx_earliest = release;
      trace::count(trace::Ctr::FaultNicStalls);
      if (trace::active()) {
        trace::instant(earliest, env.src, trace::Kind::FaultStall,
                       static_cast<std::uint64_t>(src_node), 0, env.seq);
      }
    }
    // The control plane (tag >= kReliableTagBase) rides a reliable
    // channel: degraded/stalled like everything else, but never lost.
    if (env.tag < kReliableTagBase) {
      dropped = inj->inject_drop(tx_earliest);
      if (!dropped) duped = inj->inject_duplicate(tx_earliest);
    }
  }

  // Only payload-bearing messages count towards receive-side congestion;
  // tiny RTS/CTS control messages do not meaningfully load a receiver.
  const bool data = env.kind == Envelope::Kind::Eager && !dropped;
  if (data) machine_.add_inflight(dst_node);

  sim::Time local_done;
  sim::Time arrival;
  if (src_node == dst_node) {
    // Shared memory: serialize on the node's memory port; flooding the
    // port from many concurrent flows thrashes it (congestion factor).
    const double factor = machine_.congestion_factor(dst_node, /*intra=*/true);
    auto slot = machine_.reserve_mem(
        src_node, earliest,
        static_cast<double>(wire_bytes) * p.mem_byte_time * factor +
            p.intra.msg_gap,
        wire_what, wire_bytes, env.seq);
    local_done = slot.end;
    arrival = slot.end + p.intra.latency;
  } else {
    // A rail-pinned transfer uses the same HCA index on both endpoints;
    // otherwise the machine spreads by peer node.
    const int nics = p.nics_per_node;
    const int nic =
        env.rail >= 0 ? env.rail % nics : machine_.nic_for(src_node, dst_node);
    const int rnic =
        env.rail >= 0 ? env.rail % nics : machine_.nic_for(dst_node, src_node);
    const double tx_time =
        static_cast<double>(wire_bytes) * p.inter.byte_time * bt_mult +
        p.inter.msg_gap;
    auto tx = machine_.reserve_tx(src_node, nic, tx_earliest, tx_time,
                                  wire_what, wire_bytes, env.seq);
    local_done = tx.end;
    if (dropped) {
      // The sender's NIC transmitted; the packet died in the network.
      trace::count(trace::Ctr::FaultDrops);
      if (trace::active()) {
        trace::instant(tx.end, env.src, trace::Kind::FaultDrop,
                       static_cast<std::uint64_t>(env.dst), env.bytes,
                       env.seq);
      }
      return local_done;
    }
    const double lat = machine_.latency(src_node, dst_node) * lat_mult;
    // Receive side pays a per-message gap too (NIC message-rate limit)
    // and slows down under incast (congestion factor).
    const double factor = machine_.congestion_factor(dst_node, /*intra=*/false);
    const double rx_time =
        (static_cast<double>(wire_bytes) * p.inter.byte_time * bt_mult +
         p.inter.msg_gap) *
        factor;
    auto rx = machine_.reserve_rx(dst_node, rnic, tx.start + lat, rx_time,
                                  wire_what, wire_bytes, env.seq);
    arrival = rx.end;
    if (duped) {
      // The network delivers a second copy right behind the first; the
      // receive-side dedup table discards it on arrival.
      trace::count(trace::Ctr::FaultDups);
      if (trace::active()) {
        trace::instant(rx.end, env.dst, trace::Kind::FaultDup,
                       static_cast<std::uint64_t>(env.src), env.bytes,
                       env.seq);
      }
      auto rx2 = machine_.reserve_rx(dst_node, rnic, rx.end, rx_time,
                                     trace::Kind::WireDup, wire_bytes,
                                     env.seq);
      auto boxed2 = std::make_shared<Envelope>(env);
      engine_.schedule_at(rx2.end,
                          [this, boxed2] { deliver(std::move(*boxed2)); });
    }
  }
  auto boxed = std::make_shared<Envelope>(std::move(env));
  engine_.schedule_at(arrival, [this, boxed, data, dst_node] {
    if (data) machine_.remove_inflight(dst_node);
    deliver(std::move(*boxed));
  });
  return local_done;
}

void World::deliver(Envelope env) {
  const int dst_rank = env.dst;
  RankState& dst = ranks_[dst_rank];
  // Arrivals at a fail-stopped rank vanish (no ack, no dedup tracking).
  if (ft_ != nullptr && dst.dead) return;
  if (lossy_) {
    if (env.kind == Envelope::Kind::Ack) {
      handle_ack(env);
      return;
    }
    // Tracked (acked) messages: inter-node data-plane envelopes carrying
    // a match id (the reliable control plane is neither acked nor deduped).
    if (env.match_id != 0 && ranks_[env.src].node != dst.node &&
        env.tag < kReliableTagBase) {
      const auto key = std::make_tuple(static_cast<std::uint8_t>(env.kind),
                                       env.src, env.match_id);
      if (!dst.seen_msgs.insert(key).second) {
        // Duplicate (injected, or a retransmit whose original made it
        // through): discard, but re-ack — the first ack may be the one
        // the network ate.
        trace::count(trace::Ctr::MsgsDupDeliveries);
        if (trace::active()) {
          trace::instant(engine_.now(), dst_rank, trace::Kind::MsgDupDrop,
                         static_cast<std::uint64_t>(env.src), 0, env.seq);
        }
        send_ack(env);
        return;
      }
      send_ack(env);
    }
  }
  env.arrival_seq = dst.next_arrival_seq++;
  if (trace::active()) {
    trace::instant(engine_.now(), dst_rank, trace::Kind::MsgDeliver,
                   static_cast<std::uint64_t>(env.src), env.bytes, env.seq);
  }
  dst.inbound.push_back(std::move(env));
  notify(dst_rank);
}

void World::start_nic_bulk(int src, int dst, Req sreq, std::uint64_t dst_match,
                           std::size_t bytes, const void* sbuf,
                           sim::Time earliest) {
  const auto& p = machine_.platform();
  RankState& srs = ranks_[src];
  const int src_node = srs.node;
  const int dst_node = ranks_[dst].node;
  ++srs.data_msgs;
  const std::uint64_t seq = ++next_msg_seq_;
  trace::count(trace::Ctr::MsgsNicBulks);
  if (trace::active()) {
    trace::instant(earliest, src, trace::Kind::MsgBulkNic,
                   static_cast<std::uint64_t>(dst), bytes, seq);
  }
  machine_.add_inflight(dst_node);
  sim::Time send_done, recv_done;
  if (src_node == dst_node) {
    // Should not happen: intra-node rendezvous uses the CPU-copy path.
    const double factor = machine_.congestion_factor(dst_node, /*intra=*/true);
    auto slot = machine_.reserve_mem(
        src_node, earliest, static_cast<double>(bytes) * p.mem_byte_time * factor,
        trace::Kind::WireBulk, bytes, seq);
    send_done = slot.end;
    recv_done = slot.end + p.intra.latency;
  } else {
    const int rail = srs.pool.live(sreq) ? srs.pool.get(sreq).rail : -1;
    const int nics = p.nics_per_node;
    const int nic =
        rail >= 0 ? rail % nics : machine_.nic_for(src_node, dst_node);
    const int rnic =
        rail >= 0 ? rail % nics : machine_.nic_for(dst_node, src_node);
    double lat_mult = 1.0;
    double bt_mult = 1.0;
    if (injector_ != nullptr) {
      lat_mult = injector_->latency_mult(earliest);
      bt_mult = injector_->byte_time_mult(earliest);
      if (lat_mult != 1.0 || bt_mult != 1.0) {
        trace::count(trace::Ctr::FaultDegradedMsgs);
      }
    }
    auto tx = machine_.reserve_tx(
        src_node, nic, earliest,
        static_cast<double>(bytes) * p.inter.byte_time * bt_mult +
            p.inter.msg_gap,
        trace::Kind::WireBulk, bytes, seq);
    const double lat = machine_.latency(src_node, dst_node) * lat_mult;
    const double factor = machine_.congestion_factor(dst_node, /*intra=*/false);
    auto rx = machine_.reserve_rx(
        dst_node, rnic, tx.start + lat,
        (static_cast<double>(bytes) * p.inter.byte_time * bt_mult +
         p.inter.msg_gap) *
            factor,
        trace::Kind::WireBulk, bytes, seq);
    send_done = tx.end;
    recv_done = rx.end;
  }
  // Both ends complete when the data has landed: delivering first and
  // completing the sender in the same event guarantees the sender cannot
  // reuse (or free) its buffer before the delivery copy reads it.  The
  // sender is charged one extra wire latency versus true local completion
  // at `send_done` — negligible against the bulk transfer itself.
  (void)send_done;
  // seq is narrowed to fit the InlineFn capture budget; corr ids stay
  // unique within any realistic scenario (< 2^32 messages).
  engine_.schedule_at(recv_done, [this, src, sreq, dst, dst_match, sbuf,
                                  dst_node,
                                  seq32 = static_cast<std::uint32_t>(seq)] {
    machine_.remove_inflight(dst_node);
    if (trace::active()) {
      trace::instant(engine_.now(), dst, trace::Kind::MsgComplete,
                     static_cast<std::uint64_t>(src), 0, seq32);
    }
    complete_request(dst, dst_match, sbuf);
    RankState& rs = ranks_[src];
    if (!rs.pool.live(sreq)) return;
    Request& r = rs.pool.get(sreq);
    r.complete = true;
    r.state = ReqState::Complete;
    notify(src);
  });
}

void World::complete_request(int wrank, std::uint64_t match_id,
                             const void* deliver_from) {
  RankState& rs = ranks_[wrank];
  Request& r = rs.pool.at(match_index(match_id));
  if (r.generation != match_gen(match_id)) return;  // cancelled/stale
  if (r.timer_id != 0) {
    engine_.cancel(r.timer_id);
    r.timer_id = 0;
  }
  if (deliver_from != nullptr && r.recv_buf != nullptr) {
    std::memcpy(r.recv_buf, deliver_from, r.bytes);
  }
  r.complete = true;
  r.state = ReqState::Complete;
  notify(wrank);
}

// ------------------------------------------------- resilience (lossy plans)

void World::arm_retransmit(int wrank, Req h) {
  Request& r = ranks_[wrank].pool.get(h);
  r.timer_id =
      engine_.schedule_after(r.rto, [this, wrank, h] { on_rto(wrank, h); });
}

void World::on_rto(int wrank, Req h) {
  RankState& rs = ranks_[wrank];
  if (rs.dead) return;  // fail-stopped: its timers die with it
  if (!rs.pool.live(h)) return;
  Request& r = rs.pool.get(h);
  r.timer_id = 0;
  if (r.acked || r.complete || r.rexmit == RexmitKind::None) return;
  // Never retransmit to a fail-stopped peer: a dead destination must not
  // be resurrected by the reliability layer.  Fail the request now; the
  // recovery path (not the send-failure path) will clean it up.
  if (ft_ != nullptr && ranks_[r.peer].dead) {
    r.failed = true;
    r.rexmit = RexmitKind::None;
    trace::count(trace::Ctr::MsgsSendFailures);
    if (trace::active()) {
      trace::instant(engine_.now(), wrank, trace::Kind::MsgSendFailure,
                     static_cast<std::uint64_t>(r.peer),
                     static_cast<std::uint64_t>(r.tag), pack_match(h));
    }
    notify(wrank);
    return;
  }
  if (r.retries_left <= 0) {
    r.failed = true;
    r.rexmit = RexmitKind::None;
    trace::count(trace::Ctr::MsgsSendFailures);
    if (trace::active()) {
      trace::instant(engine_.now(), wrank, trace::Kind::MsgSendFailure,
                     static_cast<std::uint64_t>(r.peer),
                     static_cast<std::uint64_t>(r.tag), pack_match(h));
    }
    notify(wrank);
    return;
  }
  --r.retries_left;
  Envelope env = rebuild_envelope(wrank, h, r);
  trace::count(trace::Ctr::MsgsRetransmits);
  const sim::Time t = engine_.now();
  ship(std::move(env), t);
  if (trace::active()) {
    // next_msg_seq_ holds the seq ship() just assigned: the retransmit
    // instant correlates with the new wire message.
    trace::instant(t, wrank, trace::Kind::MsgRetransmit,
                   static_cast<std::uint64_t>(r.peer),
                   static_cast<std::uint64_t>(r.retries_left), next_msg_seq_);
  }
  r.rto *= 2.0;  // exponential backoff
  arm_retransmit(wrank, h);
}

Envelope World::rebuild_envelope(int wrank, Req h, const Request& r) {
  Envelope env;
  env.src = wrank;
  env.dst = r.peer;
  env.context = r.context;
  env.tag = r.tag;  // already rail-sub-tagged at post time
  env.rail = r.rail;
  env.bytes = r.bytes;
  switch (r.rexmit) {
    case RexmitKind::Eager:
      env.kind = Envelope::Kind::Eager;
      env.match_id = pack_match(h);
      if (r.send_buf != nullptr && r.bytes > 0) {
        env.payload.resize(r.bytes);
        std::memcpy(env.payload.data(), r.send_buf, r.bytes);
      }
      break;
    case RexmitKind::Rts:
      env.kind = Envelope::Kind::Rts;
      env.match_id = pack_match(h);
      env.send_buf = r.send_buf;
      break;
    case RexmitKind::Cts:
      env.kind = Envelope::Kind::Cts;
      env.match_id = r.match_id;  // the sender-side request (from the RTS)
      env.peer_match_id = pack_match(h);
      break;
    case RexmitKind::None:
      break;
  }
  return env;
}

void World::handle_ack(const Envelope& env) {
  RankState& rs = ranks_[env.dst];
  const Req h{match_index(env.match_id), match_gen(env.match_id)};
  if (!rs.pool.live(h)) return;
  Request& r = rs.pool.get(h);
  if (r.acked) return;
  r.acked = true;
  r.rexmit = RexmitKind::None;
  if (r.timer_id != 0) {
    engine_.cancel(r.timer_id);
    r.timer_id = 0;
  }
  // Eager sends complete on acknowledgement (the lossy-mode replacement
  // for the local NIC-done completion); rendezvous state machines keep
  // advancing through their own CTS/bulk events.
  if (r.state == ReqState::EagerInFlight) {
    r.complete = true;
    r.state = ReqState::Complete;
  }
  notify(env.dst);
}

void World::send_ack(const Envelope& env) {
  Envelope ack;
  ack.kind = Envelope::Kind::Ack;
  ack.src = env.dst;
  ack.dst = env.src;
  ack.context = env.context;
  ack.tag = env.tag;
  // Route the ack to the request that armed the retransmit timer: the
  // sender request for eager/RTS, our (receiver) request for CTS.
  ack.match_id = env.kind == Envelope::Kind::Cts ? env.peer_match_id
                                                 : env.match_id;
  ship(std::move(ack), engine_.now());
}

// -------------------------------------------------------------------- Ctx

Ctx::Ctx(World& world, int wrank) : world_(world), wrank_(wrank) {}

void Ctx::charge(double seconds) {
  if (seconds <= 0.0) return;
  st().process->sleep(world_.jitter(wrank_, seconds));
}

double Ctx::compute_cost(double seconds) {
  double t = world_.jitter(wrank_, seconds);
  const auto& noise = world_.platform().noise;
  const double scale = world_.options().noise_scale;
  if (noise.outlier_prob * scale > 0.0 &&
      st().noise_rng.uniform() < noise.outlier_prob * scale) {
    t *= noise.outlier_factor;
  }
  if (fault::Injector* inj = world_.injector()) {
    const double dilation = inj->compute_dilation(wrank_, now());
    if (dilation != 1.0) {
      t *= dilation;
      trace::count(trace::Ctr::FaultStragglerBursts);
      if (trace::active()) {
        trace::instant(now(), wrank_, trace::Kind::FaultStraggler,
                       static_cast<std::uint64_t>(dilation * 1000.0));
      }
    }
  }
  return t;
}

void Ctx::compute(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("compute: negative time");
  if (seconds == 0.0) return;
  if (world_.ft_ != nullptr) check_ft();
  const double t = compute_cost(seconds);
  const sim::Time t0 = now();
  st().process->sleep(t);
  if (trace::active()) {
    trace::span(t0, now() - t0, wrank_, trace::Kind::Compute);
  }
}

void Ctx::progress() { progress_pass(true); }

void Ctx::register_client(ProgressClient* c) { st().clients.push_back(c); }

void Ctx::unregister_client(ProgressClient* c) {
  auto& v = st().clients;
  v.erase(std::remove(v.begin(), v.end(), c), v.end());
}

double Ctx::bulk_chunk_cost(std::size_t chunk) const {
  const auto& p = world_.platform();
  return static_cast<double>(chunk) * p.copy_byte_time + p.ctrl_overhead;
}

// ---- posting ----

Req Ctx::post_isend(const Comm& comm, const void* buf, std::size_t bytes,
                    int dst, int tag, double& cpu_cost, double earliest_offset,
                    int rail) {
  if (dst < 0 || dst >= comm.size()) {
    throw std::invalid_argument("post_isend: bad destination rank");
  }
  // A pinned rail is folded into the wire tag (sub-tags reserved by
  // alloc_nbc_tag's stride): stripes of one logical message travel on
  // different rails, whose serialization can reorder arrivals, yet each
  // still matches exactly its own posted receive.
  if (rail >= 0) tag += 1 + rail % (kTagStride - 1);
  const int dst_w = comm.world_rank(dst);
  const auto& p = world_.platform();
  RankState& rs = st();

  Req h = rs.pool.allocate();
  Request& r = rs.pool.get(h);
  r.kind = ReqKind::Send;
  r.peer = dst_w;
  r.context = comm.context();
  r.tag = tag;
  r.rail = rail;
  r.bytes = bytes;
  r.send_buf = buf;
  ++rs.outstanding;

  const bool eager = bytes <= p.eager_limit;
  const bool same_node = rs.node == world_.ranks_[dst_w].node;

  Envelope env;
  env.src = wrank_;
  env.dst = dst_w;
  env.context = comm.context();
  env.tag = tag;
  env.rail = rail;
  env.bytes = bytes;

  if (eager) {
    // Eager: CPU prepares (overhead + bounce-buffer copy), NIC does the rest.
    const double my_prep =
        (same_node ? p.intra.send_overhead : p.inter.send_overhead) +
        static_cast<double>(bytes) * p.copy_byte_time;
    env.kind = Envelope::Kind::Eager;
    if (buf != nullptr && bytes > 0) {
      env.payload.resize(bytes);
      std::memcpy(env.payload.data(), buf, bytes);
    }
    const bool tracked =
        world_.lossy() && !same_node && tag < kReliableTagBase;
    if (tracked) env.match_id = pack_match(h);
    const sim::Time start = now() + earliest_offset + my_prep;
    const sim::Time local_done = world_.ship(std::move(env), start);
    cpu_cost += my_prep;
    if (same_node) {
      // Payload copied out of the user buffer already: locally complete.
      r.complete = true;
      r.state = ReqState::Complete;
    } else if (tracked) {
      // Lossy mode: completion comes from the peer's acknowledgement, and
      // an RTO timer retransmits until it does (or retries run out).
      (void)local_done;
      r.state = ReqState::EagerInFlight;
      const fault::FaultPlan& plan = world_.injector()->plan();
      r.rexmit = RexmitKind::Eager;
      r.retries_left = plan.retries;
      r.rto = plan.rto;
      world_.arm_retransmit(wrank_, h);
    } else {
      r.state = ReqState::EagerInFlight;
      const int self = wrank_;
      world_.engine().schedule_at(local_done, [w = &world_, self, h] {
        RankState& s = w->ranks_[self];
        if (!s.pool.live(h)) return;
        Request& rr = s.pool.get(h);
        rr.complete = true;
        rr.state = ReqState::Complete;
        w->notify(self);
      });
    }
  } else {
    // Rendezvous: emit RTS; everything else happens in progress passes.
    const double my_prep =
        (same_node ? p.intra.send_overhead : p.inter.send_overhead) +
        p.ctrl_overhead;
    env.kind = Envelope::Kind::Rts;
    env.match_id = pack_match(h);
    env.send_buf = buf;
    world_.ship(std::move(env), now() + earliest_offset + my_prep);
    cpu_cost += my_prep;
    r.state = ReqState::RtsSent;
    if (world_.lossy() && !same_node && tag < kReliableTagBase) {
      const fault::FaultPlan& plan = world_.injector()->plan();
      r.rexmit = RexmitKind::Rts;
      r.retries_left = plan.retries;
      r.rto = plan.rto;
      world_.arm_retransmit(wrank_, h);
    }
  }
  return h;
}

Req Ctx::post_irecv(const Comm& comm, void* buf, std::size_t bytes, int src,
                    int tag, double& cpu_cost, int rail) {
  RankState& rs = st();
  // Mirror post_isend's rail sub-tagging: the matching send carries the
  // same pinned rail (builder contract, nbc::Action::rail).
  if (rail >= 0 && tag != kAnyTag) tag += 1 + rail % (kTagStride - 1);
  const int src_w =
      src == kAnySource ? kAnySource
                        : (src >= 0 && src < comm.size()
                               ? comm.world_rank(src)
                               : throw std::invalid_argument(
                                     "post_irecv: bad source rank"));
  Req h = rs.pool.allocate();
  Request& r = rs.pool.get(h);
  r.kind = ReqKind::Recv;
  r.peer = src_w;
  r.context = comm.context();
  r.tag = tag;
  r.rail = rail;
  r.bytes = bytes;
  r.recv_buf = buf;
  r.post_seq = rs.next_post_seq++;
  r.state = ReqState::Posted;
  ++rs.outstanding;
  cpu_cost += world_.platform().per_req_poll_cost;

  if (try_match_unexpected(h, cpu_cost)) return h;

  if (src_w == kAnySource || tag == kAnyTag) {
    rs.wildcard_posted.push_back(h);
  } else {
    rs.exact_posted[MatchKey{comm.context(), tag, src_w}].push_back(h);
  }
  return h;
}

bool Ctx::try_match_unexpected(Req rh, double& cpu_cost) {
  RankState& rs = st();
  Request& r = rs.pool.get(rh);
  Envelope env;
  if (r.peer != kAnySource && r.tag != kAnyTag) {
    auto it = rs.unexpected.find(MatchKey{r.context, r.tag, r.peer});
    if (it == rs.unexpected.end() || it->second.empty()) return false;
    env = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) rs.unexpected.erase(it);
  } else {
    // Wildcard: earliest arrival among all matching queues.
    std::map<MatchKey, std::deque<Envelope>>::iterator best =
        rs.unexpected.end();
    for (auto it = rs.unexpected.begin(); it != rs.unexpected.end(); ++it) {
      const MatchKey& k = it->first;
      if (k.context != r.context) continue;
      if (r.tag != kAnyTag && k.tag != r.tag) continue;
      if (r.peer != kAnySource && k.src != r.peer) continue;
      if (it->second.empty()) continue;
      if (best == rs.unexpected.end() ||
          it->second.front().arrival_seq < best->second.front().arrival_seq) {
        best = it;
      }
    }
    if (best == rs.unexpected.end()) return false;
    env = std::move(best->second.front());
    best->second.pop_front();
    if (best->second.empty()) rs.unexpected.erase(best);
  }

  if (env.bytes > r.bytes) {
    throw std::length_error("recv buffer smaller than incoming message");
  }
  if (env.kind == Envelope::Kind::Eager) {
    const auto& p = world_.platform();
    cpu_cost += (rs.node == world_.ranks_[env.src].node
                     ? p.intra.recv_overhead
                     : p.inter.recv_overhead) +
                static_cast<double>(env.bytes) * p.copy_byte_time;
    if (r.recv_buf != nullptr && !env.payload.empty()) {
      std::memcpy(r.recv_buf, env.payload.data(), env.payload.size());
    }
    r.peer = env.src;
    r.status = Status{env.src, env.tag, env.bytes};
    r.complete = true;
    r.state = ReqState::Complete;
  } else {
    assert(env.kind == Envelope::Kind::Rts);
    send_cts(env, rh, cpu_cost);
  }
  return true;
}

void Ctx::send_cts(const Envelope& rts, Req rh, double& cpu_cost) {
  RankState& rs = st();
  Request& r = rs.pool.get(rh);
  const auto& p = world_.platform();
  cpu_cost += p.ctrl_overhead +
              (rs.node == world_.ranks_[rts.src].node ? p.intra.recv_overhead
                                                      : p.inter.recv_overhead);
  r.peer = rts.src;
  r.bytes = rts.bytes;  // actual message size (<= posted buffer size)
  r.status = Status{rts.src, rts.tag, rts.bytes};
  r.state = ReqState::WaitBulk;

  Envelope cts;
  cts.kind = Envelope::Kind::Cts;
  cts.src = wrank_;
  cts.dst = rts.src;
  cts.context = rts.context;
  cts.tag = rts.tag;
  cts.bytes = rts.bytes;
  cts.match_id = rts.match_id;        // sender request
  cts.peer_match_id = pack_match(rh); // this (receiver) request
  world_.ship(std::move(cts), now() + cpu_cost);
  if (world_.lossy() && rs.node != world_.ranks_[rts.src].node &&
      rts.tag < kReliableTagBase) {
    // Track the CTS for retransmission; stash the sender's match id (the
    // receive side does not otherwise use the field) so the control
    // message can be rebuilt on RTO expiry.
    const fault::FaultPlan& plan = world_.injector()->plan();
    r.match_id = rts.match_id;
    r.rexmit = RexmitKind::Cts;
    r.retries_left = plan.retries;
    r.rto = plan.rto;
    world_.arm_retransmit(wrank_, rh);
  }
}

void Ctx::handle_envelope(Envelope& env, double& cpu_cost) {
  RankState& rs = st();
  if (env.kind == Envelope::Kind::Cts) {
    // Route to the sending request.
    Request& r = rs.pool.at(match_index(env.match_id));
    if (r.generation != match_gen(env.match_id)) return;
    // Under a lossy plan a CTS can land after the bulk already started
    // (retransmit raced the ack); ignore anything but the first.
    if (r.state != ReqState::RtsSent) return;
    // The CTS proves the RTS arrived: stop retransmitting it.
    if (r.timer_id != 0) {
      world_.engine().cancel(r.timer_id);
      r.timer_id = 0;
    }
    r.rexmit = RexmitKind::None;
    r.acked = true;
    r.peer_match_id = env.peer_match_id;
    const auto& p = world_.platform();
    cpu_cost += p.ctrl_overhead;
    const bool same_node = rs.node == world_.ranks_[env.src].node;
    const bool cpu_driven = p.cpu_driven_bulk || same_node;
    if (cpu_driven) {
      // Bulk pushed by this CPU in chunks from subsequent progress passes.
      r.state = ReqState::BulkCpu;
      r.xfer_seq = ++world_.next_msg_seq_;
      Req h{match_index(env.match_id), match_gen(env.match_id)};
      rs.cpu_bulk_sends.push_back(h);
    } else {
      r.state = ReqState::BulkNic;
      Req h{match_index(env.match_id), match_gen(env.match_id)};
      world_.start_nic_bulk(wrank_, env.src, h, env.peer_match_id, r.bytes,
                            r.send_buf, now() + cpu_cost);
    }
    return;
  }

  // Eager data or RTS: match against posted receives.
  Req matched{};
  bool have = false;
  auto exact_it = rs.exact_posted.find(MatchKey{env.context, env.tag, env.src});
  std::uint64_t exact_seq = UINT64_MAX;
  if (exact_it != rs.exact_posted.end() && !exact_it->second.empty()) {
    exact_seq = rs.pool.get(exact_it->second.front()).post_seq;
  }
  std::size_t wild_pos = SIZE_MAX;
  std::uint64_t wild_seq = UINT64_MAX;
  for (std::size_t i = 0; i < rs.wildcard_posted.size(); ++i) {
    Request& r = rs.pool.get(rs.wildcard_posted[i]);
    if (r.context != env.context) continue;
    if (r.tag != kAnyTag && r.tag != env.tag) continue;
    if (r.peer != kAnySource && r.peer != env.src) continue;
    wild_pos = i;
    wild_seq = r.post_seq;
    break;  // wildcard_posted is in posting order
  }
  if (exact_seq != UINT64_MAX && exact_seq <= wild_seq) {
    matched = exact_it->second.front();
    exact_it->second.pop_front();
    if (exact_it->second.empty()) rs.exact_posted.erase(exact_it);
    have = true;
  } else if (wild_pos != SIZE_MAX) {
    matched = rs.wildcard_posted[wild_pos];
    rs.wildcard_posted.erase(rs.wildcard_posted.begin() +
                             static_cast<std::ptrdiff_t>(wild_pos));
    have = true;
  }

  if (!have) {
    rs.unexpected[MatchKey{env.context, env.tag, env.src}].push_back(
        std::move(env));
    return;
  }

  Request& r = rs.pool.get(matched);
  if (env.bytes > r.bytes) {
    throw std::length_error(
        "recv buffer smaller than incoming message (dst=" +
        std::to_string(wrank_) + " src=" + std::to_string(env.src) +
        " tag=" + std::to_string(env.tag) + " ctx=" +
        std::to_string(env.context) + " kind=" +
        std::to_string(int(env.kind)) + " env.bytes=" +
        std::to_string(env.bytes) + " posted.bytes=" +
        std::to_string(r.bytes) + ")");
  }
  if (env.kind == Envelope::Kind::Eager) {
    const auto& p = world_.platform();
    cpu_cost += (rs.node == world_.ranks_[env.src].node
                     ? p.intra.recv_overhead
                     : p.inter.recv_overhead) +
                static_cast<double>(env.bytes) * p.copy_byte_time;
    if (r.recv_buf != nullptr && !env.payload.empty()) {
      std::memcpy(r.recv_buf, env.payload.data(), env.payload.size());
    }
    r.peer = env.src;
    r.status = Status{env.src, env.tag, env.bytes};
    r.complete = true;
    r.state = ReqState::Complete;
  } else {
    send_cts(env, matched, cpu_cost);
  }
}

void Ctx::push_chunks(double& cpu_cost) {
  RankState& rs = st();
  if (rs.cpu_bulk_sends.empty()) return;
  const auto& p = world_.platform();
  auto& v = rs.cpu_bulk_sends;
  for (std::size_t i = 0; i < v.size();) {
    if (!rs.pool.live(v[i])) {
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    Request& r = rs.pool.get(v[i]);
    if (r.state != ReqState::BulkCpu || r.chunk_in_flight) {
      ++i;
      continue;
    }
    const std::size_t chunk = std::min(p.bulk_chunk, r.bytes - r.cursor);
    cpu_cost += bulk_chunk_cost(chunk);
    const int dst = r.peer;
    const int dst_node = world_.ranks_[dst].node;
    const bool same_node = rs.node == dst_node;
    world_.machine().add_inflight(dst_node);
    sim::Time drain_end, arrival;
    trace::count(trace::Ctr::MsgsBulkChunks);
    if (same_node) {
      const double factor =
          world_.machine().congestion_factor(dst_node, /*intra=*/true);
      auto slot = world_.machine().reserve_mem(
          rs.node, now() + cpu_cost,
          static_cast<double>(chunk) * p.mem_byte_time * factor,
          trace::Kind::WireChunk, chunk, r.xfer_seq);
      drain_end = slot.end;
      arrival = slot.end + p.intra.latency;
    } else {
      const int nics = p.nics_per_node;
      const int nic = r.rail >= 0 ? r.rail % nics
                                  : world_.machine().nic_for(rs.node, dst_node);
      const int rnic = r.rail >= 0
                           ? r.rail % nics
                           : world_.machine().nic_for(dst_node, rs.node);
      double lat_mult = 1.0;
      double bt_mult = 1.0;
      if (fault::Injector* inj = world_.injector()) {
        lat_mult = inj->latency_mult(now() + cpu_cost);
        bt_mult = inj->byte_time_mult(now() + cpu_cost);
        if (lat_mult != 1.0 || bt_mult != 1.0) {
          trace::count(trace::Ctr::FaultDegradedMsgs);
        }
      }
      auto tx = world_.machine().reserve_tx(
          rs.node, nic, now() + cpu_cost,
          static_cast<double>(chunk) * p.inter.byte_time * bt_mult +
              p.inter.msg_gap,
          trace::Kind::WireChunk, chunk, r.xfer_seq);
      const double factor =
          world_.machine().congestion_factor(dst_node, /*intra=*/false);
      auto rx = world_.machine().reserve_rx(
          dst_node, rnic,
          tx.start + world_.machine().latency(rs.node, dst_node) * lat_mult,
          (static_cast<double>(chunk) * p.inter.byte_time * bt_mult +
           p.inter.msg_gap) *
              factor,
          trace::Kind::WireChunk, chunk, r.xfer_seq);
      drain_end = tx.end;
      arrival = rx.end;
    }
    world_.engine().schedule_at(arrival, [w = &world_, dst_node] {
      w->machine().remove_inflight(dst_node);
    });
    ++rs.data_msgs;
    r.cursor += chunk;
    r.chunk_in_flight = true;
    const bool last = r.cursor == r.bytes;
    const Req h = v[i];
    const int self = wrank_;
    world_.engine().schedule_at(drain_end, [w = &world_, self, h] {
      RankState& s = w->ranks_[self];
      if (!s.pool.live(h)) return;
      s.pool.get(h).chunk_in_flight = false;
      w->notify(self);  // wake to push the next chunk if blocked in wait
    });
    if (last) {
      const std::uint64_t dst_match = r.peer_match_id;
      const void* sbuf = r.send_buf;
      const std::uint64_t xfer = r.xfer_seq;
      world_.engine().schedule_at(arrival, [w = &world_, self, h, dst,
                                            dst_match, sbuf, xfer] {
        if (trace::active()) {
          trace::instant(w->engine_.now(), dst, trace::Kind::MsgComplete,
                         static_cast<std::uint64_t>(self), 0, xfer);
        }
        // Receiver gets the data...
        w->complete_request(dst, dst_match, sbuf);
        // ...and the sender completes (socket drained / copy done).
        RankState& s = w->ranks_[self];
        if (!s.pool.live(h)) return;
        Request& rr = s.pool.get(h);
        rr.complete = true;
        rr.state = ReqState::Complete;
        w->notify(self);
      });
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

double Ctx::progress_work(bool explicit_call) {
  RankState& rs = st();
  const auto& p = world_.platform();
  trace::count(trace::Ctr::ProgressPasses);
  if (explicit_call) trace::count(trace::Ctr::ProgressCallsExplicit);
  double cost = explicit_call ? p.progress_cost : 0.0;
  cost += p.per_req_poll_cost * static_cast<double>(rs.outstanding);
  if (fault::Injector* inj = world_.injector()) {
    const double penalty = inj->starvation_penalty(wrank_, now());
    if (penalty > 0.0) {
      cost += penalty;
      trace::count(trace::Ctr::FaultStarvedPasses);
    }
  }
  if (!rs.inbound.empty()) {
    std::vector<Envelope> batch;
    batch.swap(rs.inbound);
    for (auto& env : batch) handle_envelope(env, cost);
  }
  push_chunks(cost);
  // Clients may post operations and advance schedules.
  for (std::size_t i = 0; i < rs.clients.size(); ++i) {
    cost += rs.clients[i]->poke(*this);
  }
  return cost;
}

void Ctx::progress_pass(bool explicit_call) {
  const sim::Time t0 = now();
  const double cost = progress_work(explicit_call);
  charge(cost);
  if (cost > 0.0 && trace::active()) {
    trace::span(t0, now() - t0, wrank_,
                explicit_call ? trace::Kind::ProgressCall
                              : trace::Kind::ProgressPass);
  }
}

// ---- public point-to-point ----

Req Ctx::isend(const Comm& comm, const void* buf, std::size_t bytes, int dst,
               int tag) {
  if (world_.ft_ != nullptr) check_ft();
  progress_pass(false);
  double cost = 0.0;
  Req h = post_isend(comm, buf, bytes, dst, tag, cost, 0.0);
  charge(cost);
  return h;
}

Req Ctx::irecv(const Comm& comm, void* buf, std::size_t bytes, int src,
               int tag) {
  if (world_.ft_ != nullptr) check_ft();
  progress_pass(false);
  double cost = 0.0;
  Req h = post_irecv(comm, buf, bytes, src, tag, cost);
  charge(cost);
  return h;
}

bool Ctx::peek_complete(Req h) {
  if (h.null()) return true;
  return st().pool.get(h).complete;
}

Request* Ctx::request_ptr(Req h) { return st().pool.ptr(h); }

void Ctx::observe(Req& h, Status* status) {
  if (h.null()) return;
  RankState& rs = st();
  Request& r = rs.pool.get(h);
  assert(r.complete);
  if (status != nullptr) *status = r.status;
  --rs.outstanding;
  rs.pool.release(h);
  h = Req{};
}

template <typename Pred>
void Ctx::block_until(Pred&& pred) {
  check_ft();
  progress_pass(false);
  while (!pred()) {
    st().process->suspend();
    check_ft();
    progress_pass(false);
  }
}

void Ctx::check_ft() {
  if (st().dead) throw RankKilled{};
  RecoveryService* ft = world_.ft_.get();
  if (ft != nullptr && !in_recovery_ && ft->detectable() > ft_acked_) {
    throw RanksFailed();
  }
}

void Ctx::wait_until(const std::function<bool()>& pred) {
  block_until([&] { return pred(); });
}

namespace {
[[noreturn]] void throw_send_failed(int wrank) {
  throw std::runtime_error("mpi: send failed after retries exhausted (rank " +
                           std::to_string(wrank) + ")");
}
}  // namespace

bool Ctx::test(Req& h, Status* status) {
  if (h.null()) return true;
  if (world_.ft_ != nullptr) check_ft();
  progress_pass(false);
  Request& r = st().pool.get(h);
  if (r.failed) {
    cancel_request(h);
    throw_send_failed(wrank_);
  }
  if (!r.complete) return false;
  observe(h, status);
  return true;
}

void Ctx::wait(Req& h, Status* status) {
  if (h.null()) return;
  block_until([&] {
    const Request& r = st().pool.get(h);
    return r.complete || r.failed;
  });
  if (st().pool.get(h).failed) {
    cancel_request(h);
    throw_send_failed(wrank_);
  }
  observe(h, status);
}

void Ctx::wait_all(std::vector<Req>& hs) {
  block_until([&] {
    for (const Req& h : hs) {
      if (h.null()) continue;
      const Request& r = st().pool.get(h);
      if (!r.complete && !r.failed) return false;
    }
    return true;
  });
  bool any_failed = false;
  for (Req& h : hs) {
    if (!h.null() && st().pool.get(h).failed) {
      cancel_request(h);
      any_failed = true;
    }
  }
  if (any_failed) {
    for (Req& h : hs) {
      if (!h.null() && st().pool.get(h).complete) observe(h, nullptr);
    }
    throw_send_failed(wrank_);
  }
  for (Req& h : hs) observe(h, nullptr);
}

void Ctx::cancel_request(Req& h) {
  if (h.null()) return;
  RankState& rs = st();
  if (!rs.pool.live(h)) {
    h = Req{};
    return;
  }
  Request& r = rs.pool.get(h);
  if (r.timer_id != 0) {
    world_.engine().cancel(r.timer_id);
    r.timer_id = 0;
  }
  const auto is_h = [&](const Req& q) {
    return q.index == h.index && q.generation == h.generation;
  };
  if (r.kind == ReqKind::Recv && r.state == ReqState::Posted) {
    if (r.peer != kAnySource && r.tag != kAnyTag) {
      auto it = rs.exact_posted.find(MatchKey{r.context, r.tag, r.peer});
      if (it != rs.exact_posted.end()) {
        auto& dq = it->second;
        for (auto qi = dq.begin(); qi != dq.end(); ++qi) {
          if (is_h(*qi)) {
            dq.erase(qi);
            break;
          }
        }
        if (dq.empty()) rs.exact_posted.erase(it);
      }
    } else {
      auto& v = rs.wildcard_posted;
      v.erase(std::remove_if(v.begin(), v.end(), is_h), v.end());
    }
  }
  auto& bulks = rs.cpu_bulk_sends;
  bulks.erase(std::remove_if(bulks.begin(), bulks.end(), is_h), bulks.end());
  // Any in-flight transport event for this request (NIC bulk completion,
  // chunk drain, RTO) is generation-checked and becomes a no-op.
  --rs.outstanding;
  rs.pool.release(h);
  h = Req{};
}

// ---- fail-stop recovery ----

FtDecision Ctx::ft_recover(int iteration) { return ft_wait(iteration, false); }

FtDecision Ctx::ft_finish() {
  return ft_wait(RecoveryService::kFinishedIteration, true);
}

FtDecision Ctx::ft_wait(int iteration, bool finished) {
  RecoveryService* ft = world_.ft_.get();
  if (ft == nullptr) {
    throw std::logic_error("mpi: ft_recover/ft_finish without a kill plan");
  }
  // A dead rank unwinds here instead of arriving (only the self-death
  // check: the caller arrives precisely BECAUSE a failure is detectable,
  // so the peer-failure check must not re-throw).
  if (st().dead) throw RankKilled{};
  const int target = ft->arrive(wrank_, iteration, finished);
  // The wait itself must block through further detections: the agreement
  // round folds them in (completion waits for every dead rank to become
  // detectable), so suppress RanksFailed until the decision lands.
  in_recovery_ = true;
  try {
    block_until([&] { return ft->epoch() >= target; });
  } catch (...) {
    in_recovery_ = false;  // RankKilled mid-wait: unwind as usual
    throw;
  }
  in_recovery_ = false;
  FtDecision d = ft->decision();
  ft_cleanup(d);
  return d;
}

void Ctx::ft_cleanup(const FtDecision& d) {
  RankState& rs = st();
  // Cancel leaked control-plane requests: a bootstrap collective
  // interrupted mid-round leaves posted receives and un-observed sends
  // behind, and the new epoch never matches their tags again.  Data-plane
  // requests stay — the NBC layer aborts its own handles.
  std::vector<Req> leaked;
  rs.pool.for_each_live([&](Req h) {
    if (rs.pool.get(h).tag >= kReliableTagBase) leaked.push_back(h);
  });
  for (Req h : leaked) cancel_request(h);

  // Purge stale receive-side state: anything from a dead peer, plus
  // control-plane traffic from before the shrink.  New-epoch control
  // messages from faster survivors carry tags at or above the resynced
  // floor and must survive this purge.
  const int floor_tag =
      kReliableTagBase + ((d.epoch << 16) % (1 << 20)) * kCollEpochSpan;
  const auto stale = [&](const Envelope& e) {
    if (world_.ranks_[static_cast<std::size_t>(e.src)].dead) return true;
    return e.tag >= kReliableTagBase && e.tag < floor_tag;
  };
  for (auto it = rs.unexpected.begin(); it != rs.unexpected.end();) {
    auto& dq = it->second;
    for (auto qi = dq.begin(); qi != dq.end();) {
      qi = stale(*qi) ? dq.erase(qi) : std::next(qi);
    }
    it = dq.empty() ? rs.unexpected.erase(it) : std::next(it);
  }
  auto& inb = rs.inbound;
  inb.erase(std::remove_if(inb.begin(), inb.end(), stale), inb.end());
  // Dedup entries keyed by a dead sender can never match again: reclaim.
  for (auto it = rs.seen_msgs.begin(); it != rs.seen_msgs.end();) {
    const bool dead =
        world_.ranks_[static_cast<std::size_t>(std::get<1>(*it))].dead;
    it = dead ? rs.seen_msgs.erase(it) : std::next(it);
  }

  // Resync the collective/tag counters: every survivor enters the new
  // epoch with identical counters no matter where it was interrupted.
  epoch_counter_ = d.epoch << 16;
  nbc_tag_counter_ = d.epoch << 12;
  op_corr_counter_ = static_cast<std::uint64_t>(d.epoch) << 32;

  // Acknowledge every failure folded into this decision; later deaths
  // re-raise RanksFailed at the next interruption point.
  ft_acked_ = world_.ft_->decision_detectable();
}

std::uint64_t Ctx::schedule_wake(double dt) {
  const int self = wrank_;
  return world_.engine().schedule_after(
      dt, [w = &world_, self] { w->notify(self); });
}

void Ctx::cancel_event(std::uint64_t id) { world_.engine().cancel(id); }

void Ctx::send(const Comm& comm, const void* buf, std::size_t bytes, int dst,
               int tag) {
  Req h = isend(comm, buf, bytes, dst, tag);
  wait(h);
}

Status Ctx::recv(const Comm& comm, void* buf, std::size_t bytes, int src,
                 int tag) {
  Req h = irecv(comm, buf, bytes, src, tag);
  Status status;
  wait(h, &status);
  return status;
}

}  // namespace nbctune::mpi
