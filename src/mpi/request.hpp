#pragma once

// Internal request objects and the per-rank request pool.
//
// Requests track the state machine of one non-blocking point-to-point
// operation.  They live in a per-rank arena; handles (mpi::Req) carry an
// index plus generation so stale handles are detected after slot reuse.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mpi/types.hpp"

namespace nbctune::mpi {

enum class ReqKind : std::uint8_t { Send, Recv };

enum class ReqState : std::uint8_t {
  // --- send side ---
  EagerInFlight,  ///< payload handed to NIC; local completion event pending
  RtsSent,        ///< rendezvous handshake started, waiting for CTS
  BulkNic,        ///< NIC-driven bulk in flight; completion event pending
  BulkCpu,        ///< CPU-driven bulk; chunks pushed from the progress engine
  // --- receive side ---
  Posted,         ///< waiting for a matching envelope
  WaitBulk,       ///< matched an RTS, CTS sent, bulk data pending
  // --- both ---
  Complete,       ///< done; waiting to be observed by test/wait
};

/// Which control/eager message this request retransmits on RTO expiry
/// (lossy fault plans only; None everywhere else).
enum class RexmitKind : std::uint8_t { None, Eager, Rts, Cts };

/// One pending operation (internal; see mpi::Req for the public handle).
struct Request {
  std::uint32_t generation = 0;  // even = free, odd = live
  ReqKind kind = ReqKind::Send;
  ReqState state = ReqState::Complete;
  bool chunk_in_flight = false;  // CPU-driven bulk: a push is on the wire

  int peer = -1;  ///< world rank of the peer
  int context = 0;
  int tag = 0;
  int rail = -1;  ///< pinned NIC rail (-1 = transport default spreading)
  std::size_t bytes = 0;
  std::size_t cursor = 0;  ///< bytes pushed so far (CPU-driven bulk)

  const void* send_buf = nullptr;
  void* recv_buf = nullptr;

  /// For rendezvous: identifies this request to the peer (packed handle).
  std::uint64_t match_id = 0;
  /// For senders: the receiver-side request the bulk completes (from CTS).
  std::uint64_t peer_match_id = 0;
  /// Trace correlation of the bulk data transfer (CPU-chunked or NIC);
  /// links its wire spans to the receiver-side completion instant.
  std::uint64_t xfer_seq = 0;

  // --- resilience (active only under a lossy fault plan) ---
  bool failed = false;        ///< retries exhausted; wait() throws, NBC
                              ///< handles fall back
  bool acked = false;         ///< peer acknowledged the tracked message
  RexmitKind rexmit = RexmitKind::None;
  int retries_left = 0;
  double rto = 0.0;           ///< current timeout (doubles per retransmit)
  std::uint64_t timer_id = 0; ///< pending RTO engine event (0 = none)

  Status status;  ///< filled on receive completion
};

/// Per-rank arena of requests with free-list reuse and generation counting.
/// Storage is chunked (256-request blocks): addresses stay stable across
/// growth (hot paths cache Request*) with vector-like locality.
class RequestPool {
 public:
  // The first chunk is deliberately tiny: collective rounds keep only a
  // handful of requests in flight per rank, and at 100k+ ranks a 256-slot
  // first chunk per pool would dominate world memory.  Pools that do grow
  // past it switch to full-size chunks.
  static constexpr std::uint32_t kFirstChunkSize = 8;
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  /// Allocate a live request; the returned handle's generation is odd.
  Req allocate() {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = size_++;
      if (chunk_of(idx) >= chunks_.size()) {
        chunks_.push_back(std::make_unique<Request[]>(
            chunks_.empty() ? kFirstChunkSize : kChunkSize));
      }
    }
    Request& r = slot(idx);
    r = Request{};
    r.generation = next_gen_;
    next_gen_ += 2;  // keep parity stable; 0 is reserved for "null"
    return Req{idx, r.generation};
  }

  /// Release an observed request back to the pool.
  void release(Req h) {
    Request& r = get(h);
    r.generation = 0;
    free_.push_back(h.index);
  }

  /// Dereference a handle; throws on stale or null handles.
  Request& get(Req h) {
    if (h.generation == 0 || h.index >= size_) {
      throw std::out_of_range("stale or null request handle");
    }
    Request& r = slot(h.index);
    if (r.generation != h.generation) {
      throw std::out_of_range("stale or null request handle");
    }
    return r;
  }

  /// True if the handle still refers to a live request.
  [[nodiscard]] bool live(Req h) const noexcept {
    return h.generation != 0 && h.index < size_ &&
           slot(h.index).generation == h.generation;
  }

  /// Direct access by index (transport events); caller checks generation.
  Request& at(std::uint32_t idx) {
    if (idx >= size_) throw std::out_of_range("request index out of range");
    return slot(idx);
  }

  /// Stable pointer for a live handle (chunked storage: growth never
  /// relocates).  Hot paths cache this to avoid repeated checked lookups.
  Request* ptr(Req h) { return &get(h); }

  [[nodiscard]] std::size_t live_count() const noexcept {
    return size_ - free_.size();
  }

  /// Visit every live request's handle in ascending slot order.  The
  /// callback must not allocate or release from the pool while iterating.
  template <typename F>
  void for_each_live(F&& f) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Request& r = slot(i);
      if ((r.generation & 1u) != 0) f(Req{i, r.generation});
    }
  }

  /// Bytes held by allocated request slots (arena accounting).
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    if (chunks_.empty()) return 0;
    return (kFirstChunkSize + (chunks_.size() - 1) * kChunkSize) *
           sizeof(Request);
  }

 private:
  static constexpr std::uint32_t chunk_of(std::uint32_t idx) noexcept {
    return idx < kFirstChunkSize
               ? 0
               : 1 + ((idx - kFirstChunkSize) >> kChunkShift);
  }
  Request& slot(std::uint32_t idx) noexcept {
    return idx < kFirstChunkSize
               ? chunks_[0][idx]
               : chunks_[chunk_of(idx)][(idx - kFirstChunkSize) &
                                        (kChunkSize - 1)];
  }
  const Request& slot(std::uint32_t idx) const noexcept {
    return idx < kFirstChunkSize
               ? chunks_[0][idx]
               : chunks_[chunk_of(idx)][(idx - kFirstChunkSize) &
                                        (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Request[]>> chunks_;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_gen_ = 1;
};

}  // namespace nbctune::mpi
