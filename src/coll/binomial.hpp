#pragma once

// The binomial reduce and broadcast phases behind the flat reduce and
// allreduce builders and the two-level allreduce (internal to src/coll).
//
// Both phases run over virtual ranks 0..vcount-1 with the tree rooted at
// virtual rank 0; `peer(v)` maps a virtual rank to the communicator rank
// the schedule addresses (identity, a root rotation, or a node's member
// list).  Either phase is safe to append to other phases: every send
// follows a barrier, and every fold runs when its round is posted.

#include <cstddef>

#include "mpi/types.hpp"
#include "nbc/schedule.hpp"

namespace nbctune::coll {

/// Binomial reduce of `acc` towards virtual rank 0: virtual rank `v`
/// folds each child's subtotal into `acc` as it arrives (one round per
/// child, through one scratch buffer when `real`), then sends `acc` to
/// its parent.
template <class Peer>
void binomial_reduce(nbc::Schedule& s, int vcount, int v, Peer peer,
                     std::byte* acc, std::size_t bytes, std::size_t count,
                     nbc::DType dtype, mpi::ReduceOp op, bool real) {
  std::byte* in = nullptr;
  for (int mask = 1; mask < vcount; mask <<= 1) {
    if (v & mask) {
      s.barrier();
      s.send(acc, bytes, peer(v - mask));
      break;
    }
    if (v + mask < vcount) {
      if (in == nullptr && real) in = s.scratch(bytes);
      s.recv(in, bytes, peer(v + mask));
      s.barrier();
      s.op(in, acc, count, dtype, op);
    }
  }
}

/// Binomial broadcast of `acc` from virtual rank 0: receive from the
/// parent, then send to each child, largest subtree first, one round
/// per child.
template <class Peer>
void binomial_bcast(nbc::Schedule& s, int vcount, int v, Peer peer,
                    std::byte* acc, std::size_t bytes) {
  int mask = 1;
  while (mask < vcount) {
    if (v & mask) {
      s.recv(acc, bytes, peer(v - mask));
      s.barrier();
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if ((v & (mask - 1)) == 0 && (v | mask) < vcount && !(v & mask)) {
      s.send(acc, bytes, peer(v | mask));
      s.barrier();
    }
  }
}

}  // namespace nbctune::coll
