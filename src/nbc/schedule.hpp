#pragma once

// LibNBC-style collective schedules.
//
// A schedule is the per-process recipe of one collective operation: a list
// of rounds, each round a list of actions (send, receive, local copy,
// reduction op).  A "barrier" separates rounds: every action of round k
// must complete locally before round k+1 starts — exactly LibNBC's design
// (Hoefler et al., SC'07), which the paper builds its function-sets on.
//
// Schedules are built once against fixed buffers (persistent-operation
// semantics) and can be executed many times by an nbc::Handle.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpi/types.hpp"
#include "trace/trace.hpp"

namespace nbctune::nbc {

/// Element type of reduction actions.
enum class DType : std::uint8_t { F64, I32 };

[[nodiscard]] constexpr std::size_t dtype_size(DType t) noexcept {
  return t == DType::F64 ? sizeof(double) : sizeof(int);
}

/// One schedule action.  Buffers are captured as raw pointers: the caller
/// guarantees they outlive the schedule (persistent-request contract).
struct Action {
  enum class Kind : std::uint8_t { Send, Recv, Copy, Op } kind;
  // Send: src = buffer, peer = destination (communicator rank)
  // Recv: dst = buffer, peer = source (communicator rank)
  // Copy: src -> dst, bytes
  // Op:   fold src into dst, count elements of dtype
  const void* src = nullptr;
  void* dst = nullptr;
  std::size_t bytes = 0;  ///< bytes (Send/Recv/Copy) or element count (Op)
  int peer = -1;
  DType dtype = DType::F64;
  mpi::ReduceOp op = mpi::ReduceOp::Sum;
  /// NIC rail this transfer is pinned to (-1 = transport's default
  /// per-peer spreading).  A pinned rail also sub-tags the message, so a
  /// Send's matching Recv must carry the same rail — that is what lets a
  /// striped transfer's same-peer same-tag segments match pairwise even
  /// when different rails reorder their arrivals (topology.hpp).
  int rail = -1;
};

/// A complete schedule: rounds of actions plus owned scratch memory.
class Schedule {
 public:
  Schedule() { rounds_.emplace_back(); }

  // ---- builder interface ----
  void send(const void* buf, std::size_t bytes, int peer) {
    rounds_.back().push_back(
        Action{Action::Kind::Send, buf, nullptr, bytes, peer, {}, {}});
  }
  void recv(void* buf, std::size_t bytes, int peer) {
    rounds_.back().push_back(
        Action{Action::Kind::Recv, nullptr, buf, bytes, peer, {}, {}});
  }
  /// Rail-pinned transfers (multi-NIC striping; see Action::rail).  The
  /// sender and its matching receiver must agree on `rail`.
  void send_rail(const void* buf, std::size_t bytes, int peer, int rail) {
    rounds_.back().push_back(
        Action{Action::Kind::Send, buf, nullptr, bytes, peer, {}, {}, rail});
  }
  void recv_rail(void* buf, std::size_t bytes, int peer, int rail) {
    rounds_.back().push_back(
        Action{Action::Kind::Recv, nullptr, buf, bytes, peer, {}, {}, rail});
  }
  void copy(const void* src, void* dst, std::size_t bytes) {
    rounds_.back().push_back(
        Action{Action::Kind::Copy, src, dst, bytes, -1, {}, {}});
  }
  void op(const void* src, void* dst, std::size_t count, DType dtype,
          mpi::ReduceOp o) {
    rounds_.back().push_back(
        Action{Action::Kind::Op, src, dst, count, -1, dtype, o});
  }
  /// End the current round (local barrier).  Empty rounds are elided.
  void barrier() {
    if (!rounds_.back().empty()) rounds_.emplace_back();
  }

  /// Allocate schedule-owned scratch memory (stable address).
  std::byte* scratch(std::size_t bytes) {
    scratch_.push_back(std::make_unique<std::byte[]>(bytes));
    return scratch_.back().get();
  }

  /// Drop a trailing empty round left by the builder.
  void finalize() {
    if (rounds_.size() > 1 && rounds_.back().empty()) rounds_.pop_back();
  }

  // ---- execution interface ----
  [[nodiscard]] std::size_t num_rounds() const noexcept {
    return rounds_.size();
  }
  [[nodiscard]] const std::vector<Action>& round(std::size_t i) const {
    return rounds_.at(i);
  }

  /// Diagnostics: total messages / bytes this process sends.
  [[nodiscard]] std::size_t total_sends() const noexcept {
    std::size_t n = 0;
    for (const auto& r : rounds_)
      for (const auto& a : r) n += a.kind == Action::Kind::Send;
    return n;
  }
  [[nodiscard]] std::size_t total_send_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : rounds_)
      for (const auto& a : r)
        if (a.kind == Action::Kind::Send) n += a.bytes;
    return n;
  }

 private:
  std::vector<std::vector<Action>> rounds_;
  std::vector<std::unique_ptr<std::byte[]>> scratch_;
};

/// Record construction of a finalized schedule.  Every collective builder
/// calls this just before returning; `what` is the algorithm's kind (a
/// Cat::Coll row) and `me` is the building rank's track.  Construction
/// happens outside simulated time, so the instant lands at t = 0.
inline void trace_built(const Schedule& s, trace::Kind what, int me) {
  trace::count(trace::Ctr::CollSchedulesBuilt);
  trace::record(trace::Hist::ScheduleRounds, s.num_rounds());
  if (trace::active()) {
    trace::instant(0.0, me, what, s.num_rounds(), s.total_sends());
  }
}

}  // namespace nbctune::nbc
