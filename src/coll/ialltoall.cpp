#include "coll/ialltoall.hpp"

#include <vector>

namespace nbctune::coll {

nbc::Schedule build_ialltoall_linear(int me, int n, const void* sbuf,
                                     void* rbuf, std::size_t block) {
  nbc::Schedule s;
  s.copy(nbc::offset(sbuf, me * block), nbc::offset(rbuf, me * block), block);
  // Stagger peers (me+1, me+2, ...) so everyone does not dogpile rank 0.
  for (int off = 1; off < n; ++off) {
    const int to = (me + off) % n;
    const int from = (me - off + n) % n;
    s.recv(nbc::offset(rbuf, from * block), block, from);
    s.send(nbc::offset(sbuf, to * block), block, to);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IalltoallLinear, me);
  return s;
}

nbc::Schedule build_ialltoall_pairwise(int me, int n, const void* sbuf,
                                       void* rbuf, std::size_t block) {
  nbc::Schedule s;
  s.copy(nbc::offset(sbuf, me * block), nbc::offset(rbuf, me * block), block);
  s.barrier();
  for (int r = 1; r < n; ++r) {
    const int to = (me + r) % n;
    const int from = (me - r + n) % n;
    s.recv(nbc::offset(rbuf, from * block), block, from);
    s.send(nbc::offset(sbuf, to * block), block, to);
    s.barrier();
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IalltoallPairwise, me);
  return s;
}

nbc::Schedule build_ialltoall_bruck(int me, int n, const void* sbuf,
                                    void* rbuf, std::size_t block) {
  nbc::Schedule s;
  // Cost-model runs (null buffers) skip scratch allocation entirely; the
  // null pointers propagate through the copy/send actions, which charge
  // modeled time but move no bytes.
  const bool real = sbuf != nullptr || rbuf != nullptr;
  // Working array tmp[i] = block currently "destined i hops ahead of me";
  // initial rotation tmp[i] = sbuf[(me + i) mod n].
  std::byte* tmp = real ? s.scratch(std::size_t(n) * block) : nullptr;
  for (int i = 0; i < n; ++i) {
    s.copy(nbc::offset(sbuf, ((me + i) % n) * block),
           nbc::offset(tmp, i * block), block);
  }
  // Steps: in step k (delta = 2^k) every block whose index has bit k set
  // moves delta ranks forward, packed into one message.
  std::vector<int> moved;
  for (int delta = 1; delta < n; delta <<= 1) {
    moved.clear();
    for (int i = 0; i < n; ++i) {
      if (i & delta) moved.push_back(i);
    }
    if (moved.empty()) continue;
    const int to = (me + delta) % n;
    const int from = (me - delta + n) % n;
    std::byte* pack = real ? s.scratch(moved.size() * block) : nullptr;
    std::byte* unpack = real ? s.scratch(moved.size() * block) : nullptr;
    for (std::size_t j = 0; j < moved.size(); ++j) {
      s.copy(nbc::offset(tmp, moved[j] * block),
             nbc::offset(pack, j * block), block);
    }
    s.send(pack, moved.size() * block, to);
    s.recv(unpack, moved.size() * block, from);
    s.barrier();
    for (std::size_t j = 0; j < moved.size(); ++j) {
      s.copy(nbc::offset(unpack, j * block),
             nbc::offset(tmp, moved[j] * block), block);
    }
  }
  // Final inverse rotation: tmp[i] now holds the block sent by rank
  // (me - i + n) mod n.
  for (int i = 0; i < n; ++i) {
    s.copy(nbc::offset(tmp, i * block),
           nbc::offset(rbuf, ((me - i + n) % n) * block), block);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IalltoallBruck, me);
  return s;
}

}  // namespace nbctune::coll
