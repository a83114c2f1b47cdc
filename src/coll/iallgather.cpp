#include "coll/iallgather.hpp"

#include <stdexcept>

namespace nbctune::coll {

namespace {
// Null-propagating block addressing: cost-model runs pass null buffers.
std::byte* blk(void* base, std::size_t block, int i) {
  if (base == nullptr) return nullptr;
  return static_cast<std::byte*>(base) + std::size_t(i) * block;
}
}  // namespace

nbc::Schedule build_iallgather_linear(int me, int n, const void* sbuf,
                                      void* rbuf, std::size_t block) {
  nbc::Schedule s;
  s.copy(sbuf, blk(rbuf, block, me), block);
  for (int off = 1; off < n; ++off) {
    const int to = (me + off) % n;
    const int from = (me - off + n) % n;
    s.recv(blk(rbuf, block, from), block, from);
    s.send(sbuf, block, to);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallgatherLinear, me);
  return s;
}

nbc::Schedule build_iallgather_ring(int me, int n, const void* sbuf,
                                    void* rbuf, std::size_t block) {
  nbc::Schedule s;
  s.copy(sbuf, blk(rbuf, block, me), block);
  s.barrier();
  const int to = (me + 1) % n;
  const int from = (me - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const int send_block = (me - step + n) % n;
    const int recv_block = (me - step - 1 + n) % n;
    s.recv(blk(rbuf, block, recv_block), block, from);
    s.send(blk(rbuf, block, send_block), block, to);
    s.barrier();
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallgatherRing, me);
  return s;
}

nbc::Schedule build_iallgather_recursive_doubling(int me, int n,
                                                  const void* sbuf, void* rbuf,
                                                  std::size_t block) {
  if (!is_pow2(n)) {
    throw std::invalid_argument(
        "recursive doubling allgather requires a power-of-two size");
  }
  nbc::Schedule s;
  s.copy(sbuf, blk(rbuf, block, me), block);
  s.barrier();
  // After step k this rank owns the 2^(k+1) blocks of its aligned group.
  for (int mask = 1; mask < n; mask <<= 1) {
    const int peer = me ^ mask;
    const int my_base = me & ~(mask - 1);      // start of my owned run
    const int peer_base = peer & ~(mask - 1);  // start of the run I get
    s.recv(blk(rbuf, block, peer_base), std::size_t(mask) * block, peer);
    s.send(blk(rbuf, block, my_base), std::size_t(mask) * block, peer);
    s.barrier();
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallgatherRecursiveDoubling, me);
  return s;
}

}  // namespace nbctune::coll
