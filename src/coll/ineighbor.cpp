#include "coll/ineighbor.hpp"

#include <stdexcept>

namespace nbctune::coll {

std::vector<int> cart_coords(const CartTopo& topo, int rank) {
  std::vector<int> coords(topo.dims.size());
  for (int d = topo.ndims() - 1; d >= 0; --d) {
    coords[d] = rank % topo.dims[d];
    rank /= topo.dims[d];
  }
  return coords;
}

int cart_rank(const CartTopo& topo, const std::vector<int>& coords) {
  if (static_cast<int>(coords.size()) != topo.ndims()) {
    throw std::invalid_argument("cart_rank: wrong dimensionality");
  }
  int rank = 0;
  for (int d = 0; d < topo.ndims(); ++d) {
    if (coords[d] < 0 || coords[d] >= topo.dims[d]) {
      throw std::invalid_argument("cart_rank: coordinate out of range");
    }
    rank = rank * topo.dims[d] + coords[d];
  }
  return rank;
}

int cart_neighbor(const CartTopo& topo, int rank, int dim, int disp) {
  if (dim < 0 || dim >= topo.ndims()) {
    throw std::invalid_argument("cart_neighbor: bad dimension");
  }
  std::vector<int> coords = cart_coords(topo, rank);
  int c = coords[dim] + disp;
  if (topo.periodic) {
    c = (c % topo.dims[dim] + topo.dims[dim]) % topo.dims[dim];
  } else if (c < 0 || c >= topo.dims[dim]) {
    return -1;
  }
  coords[dim] = c;
  return cart_rank(topo, coords);
}

namespace {

struct Dir {
  int neighbor;  // communicator rank, or -1
  int slot;      // block index in sbuf/rbuf
};

Dir dir_of(const CartTopo& topo, int me, int dim, int disp) {
  return Dir{cart_neighbor(topo, me, dim, disp),
             2 * dim + (disp > 0 ? 1 : 0)};
}

// Per-dimension posting convention: both receives first (low slot, high
// slot), then both sends (high face, low face).  The asymmetric send
// order matters when a periodic dimension has size 2 and both faces
// connect to the SAME peer: tag-order matching then pairs my high-face
// message with the peer's low-slot receive, which is the correct halo.
void post_dim(nbc::Schedule& s, const CartTopo& topo, int me, int dim,
              const void* sbuf, void* rbuf, std::size_t block) {
  const Dir lo = dir_of(topo, me, dim, -1);
  const Dir hi = dir_of(topo, me, dim, +1);
  for (const Dir& d : {lo, hi}) {
    if (d.neighbor < 0) continue;
    s.recv(nbc::offset(rbuf, d.slot * block), block, d.neighbor);
  }
  for (const Dir& d : {hi, lo}) {
    if (d.neighbor < 0) continue;
    s.send(nbc::offset(sbuf, d.slot * block), block, d.neighbor);
  }
}
}  // namespace

nbc::Schedule build_ineighbor_all_at_once(const CartTopo& topo, int me,
                                          const void* sbuf, void* rbuf,
                                          std::size_t block) {
  nbc::Schedule s;
  for (int dim = 0; dim < topo.ndims(); ++dim) {
    post_dim(s, topo, me, dim, sbuf, rbuf, block);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IneighborAllAtOnce, me);
  return s;
}

nbc::Schedule build_ineighbor_dimension_ordered(const CartTopo& topo, int me,
                                                const void* sbuf, void* rbuf,
                                                std::size_t block) {
  nbc::Schedule s;
  for (int dim = 0; dim < topo.ndims(); ++dim) {
    post_dim(s, topo, me, dim, sbuf, rbuf, block);
    s.barrier();  // finish this dimension before starting the next
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IneighborDimensionOrdered, me);
  return s;
}

nbc::Schedule build_ineighbor_even_odd(const CartTopo& topo, int me,
                                       const void* sbuf, void* rbuf,
                                       std::size_t block) {
  nbc::Schedule s;
  const std::vector<int> coords = cart_coords(topo, me);
  for (int dim = 0; dim < topo.ndims(); ++dim) {
    if (topo.dims[dim] == 1) {
      // Degenerate periodic dimension: both neighbours are myself, the
      // even/odd pairing is meaningless — use the plain convention.
      post_dim(s, topo, me, dim, sbuf, rbuf, block);
      s.barrier();
      continue;
    }
    const bool even = coords[dim] % 2 == 0;
    // Two paired phases per dimension: evens exchange with their high
    // neighbour first, then with their low neighbour.
    for (int phase = 0; phase < 2; ++phase) {
      const int disp = (phase == 0) == even ? +1 : -1;
      const Dir d = dir_of(topo, me, dim, disp);
      if (d.neighbor >= 0) {
        s.recv(nbc::offset(rbuf, d.slot * block), block, d.neighbor);
        s.send(nbc::offset(sbuf, d.slot * block), block, d.neighbor);
      }
      s.barrier();
    }
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IneighborEvenOdd, me);
  return s;
}

}  // namespace nbctune::coll
