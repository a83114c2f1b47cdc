#include "coll/iallreduce.hpp"

#include <algorithm>
#include <stdexcept>

#include "coll/iallgather.hpp"  // is_pow2

namespace nbctune::coll {

namespace {
std::byte* off(std::byte* base, std::size_t elems, std::size_t esz) {
  return base == nullptr ? nullptr : base + elems * esz;
}
}  // namespace

nbc::Schedule build_iallreduce_recursive_doubling(int me, int n,
                                                  const void* sbuf, void* rbuf,
                                                  std::size_t count,
                                                  nbc::DType dtype,
                                                  mpi::ReduceOp op) {
  if (!is_pow2(n)) {
    throw std::invalid_argument(
        "recursive doubling allreduce requires a power-of-two size");
  }
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const std::size_t bytes = count * esz;
  const bool real = sbuf != nullptr || rbuf != nullptr;
  auto* acc = static_cast<std::byte*>(rbuf);
  std::byte* tmp = real ? s.scratch(bytes) : nullptr;

  // Round for mask m: fold the previous exchange, then swap full vectors
  // with peer me^m.  The fold-before-send ordering makes each send carry
  // the partial reduction of the subcube handled so far.  The initial
  // copy shares the first exchange round: local actions execute when the
  // round is posted, before its sends go out, so the first send already
  // carries the copied vector — log2(n) exchange rounds plus the final
  // fold, matching LibNBC's round count (copy + log2(n) exchanges).
  s.copy(sbuf, acc, bytes);
  bool pending_fold = false;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (pending_fold) s.op(tmp, acc, count, dtype, op);
    const int peer = me ^ mask;
    s.recv(tmp, bytes, peer);
    s.send(acc, bytes, peer);
    s.barrier();
    pending_fold = true;
  }
  if (pending_fold) s.op(tmp, acc, count, dtype, op);
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallreduceRecursiveDoubling, me);
  return s;
}

nbc::Schedule build_iallreduce_reduce_bcast(int me, int n, const void* sbuf,
                                            void* rbuf, std::size_t count,
                                            nbc::DType dtype,
                                            mpi::ReduceOp op) {
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const std::size_t bytes = count * esz;
  const bool real = sbuf != nullptr || rbuf != nullptr;
  auto* acc = static_cast<std::byte*>(rbuf);  // everyone reduces in place

  s.copy(sbuf, acc, bytes);
  // --- binomial reduce towards rank 0 ---
  std::byte* in = nullptr;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (me & mask) {
      s.barrier();
      s.send(acc, bytes, me - mask);
      break;
    }
    if (me + mask < n) {
      if (in == nullptr && real) in = s.scratch(bytes);
      s.recv(in, bytes, me + mask);
      s.barrier();
      s.op(in, acc, count, dtype, op);
    }
  }
  s.barrier();
  // --- binomial broadcast of the result from rank 0 ---
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      s.recv(acc, bytes, me - mask);
      s.barrier();
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((me & (mask - 1)) == 0 && (me | mask) < n && !(me & mask)) {
      s.send(acc, bytes, me | mask);
      s.barrier();
    }
    mask >>= 1;
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallreduceReduceBcast, me);
  return s;
}

nbc::Schedule build_iallreduce_ring(int me, int n, const void* sbuf,
                                    void* rbuf, std::size_t count,
                                    nbc::DType dtype, mpi::ReduceOp op) {
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const bool real = sbuf != nullptr || rbuf != nullptr;
  auto* acc = static_cast<std::byte*>(rbuf);
  const std::size_t q = n > 0 ? (count + n - 1) / n : count;  // chunk elems
  auto chunk_off = [&](int c) { return std::min<std::size_t>(c * q, count); };
  auto chunk_len = [&](int c) {
    return std::min<std::size_t>(q, count - chunk_off(c));
  };
  std::byte* tmp = real && q > 0 ? s.scratch(q * esz) : nullptr;
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;

  s.copy(sbuf, acc, count * esz);
  s.barrier();
  if (n == 1) {
    s.finalize();
    nbc::trace_built(s, trace::Kind::IallreduceRing, me);
    return s;
  }
  // --- reduce-scatter: after step s every rank has folded one more
  //     neighbour contribution into chunk (me - s - 1); after n-1 steps
  //     rank me owns the fully reduced chunk (me + 1) mod n. ---
  for (int step = 0; step < n - 1; ++step) {
    const int send_c = (me - step + n) % n;
    const int recv_c = (me - step - 1 + n) % n;
    if (step > 0) {
      // Fold the chunk received in the previous step; it is also the
      // chunk forwarded below, so the order op -> send matters.
      const int prev_c = (me - step + n) % n;
      s.op(tmp, off(acc, chunk_off(prev_c), esz), chunk_len(prev_c), dtype,
           op);
    }
    s.recv(tmp, chunk_len(recv_c) * esz, left);
    s.send(off(acc, chunk_off(send_c), esz), chunk_len(send_c) * esz, right);
    s.barrier();
  }
  // --- allgather: circulate the reduced chunks. ---
  for (int step = 0; step < n - 1; ++step) {
    const int send_c = (me + 1 - step + n) % n;
    const int recv_c = (me - step + n) % n;
    if (step == 0) {
      // Final fold of the reduce-scatter, producing my owned chunk.
      s.op(tmp, off(acc, chunk_off(send_c), esz), chunk_len(send_c), dtype,
           op);
    }
    s.recv(off(acc, chunk_off(recv_c), esz), chunk_len(recv_c) * esz, left);
    s.send(off(acc, chunk_off(send_c), esz), chunk_len(send_c) * esz, right);
    s.barrier();
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallreduceRing, me);
  return s;
}

}  // namespace nbctune::coll
