#include "coll/ibcast.hpp"

#include <algorithm>
#include <stdexcept>

namespace nbctune::coll {

std::vector<int> bcast_children(int v, int n, int fanout) {
  std::vector<int> kids;
  if (fanout == kFanoutLinear) {
    if (v == 0) {
      for (int i = 1; i < n; ++i) kids.push_back(i);
    }
  } else if (fanout == kFanoutBinomial) {
    // Binomial: v's children are v | (1 << j) for bits above v's highest
    // set bit (v == 0 owns every power of two).
    for (int mask = 1; mask < n; mask <<= 1) {
      if (v & mask) break;  // bits below the lowest set bit only
      const int child = v | mask;
      if (child < n && child != v) kids.push_back(child);
    }
  } else if (fanout >= 1) {
    // k-ary tree (fanout 1 degenerates to a chain).
    for (int j = 1; j <= fanout; ++j) {
      const long long child = 1LL * v * fanout + j;
      if (child < n) kids.push_back(static_cast<int>(child));
    }
  } else {
    throw std::invalid_argument("bcast_children: bad fanout");
  }
  return kids;
}

int bcast_parent(int v, int n, int fanout) {
  if (v == 0) return -1;
  if (fanout == kFanoutLinear) return 0;
  if (fanout == kFanoutBinomial) {
    // Clear the lowest set bit.
    return v & (v - 1) ? (v & ~(v & -v)) : 0;
  }
  if (fanout >= 1) return (v - 1) / fanout;
  (void)n;
  throw std::invalid_argument("bcast_parent: bad fanout");
}

nbc::Schedule build_ibcast(int me, int n, void* buf, std::size_t bytes,
                           int root, int fanout, std::size_t seg_bytes) {
  if (root < 0 || root >= n) throw std::invalid_argument("ibcast: bad root");
  nbc::Schedule s;
  if (n == 1 || bytes == 0) {
    s.finalize();
    nbc::trace_built(s, trace::Kind::Ibcast, me);
    return s;
  }
  const int v = (me - root + n) % n;
  const int vparent = bcast_parent(v, n, fanout);
  const int parent = vparent < 0 ? -1 : (vparent + root) % n;
  std::vector<int> children;
  for (int c : bcast_children(v, n, fanout)) {
    children.push_back((c + root) % n);
  }

  const std::size_t seg = seg_bytes == 0 ? bytes : std::min(seg_bytes, bytes);
  const std::size_t nseg = (bytes + seg - 1) / seg;
  auto* base = static_cast<std::byte*>(buf);

  auto seg_ptr = [&](std::size_t i) -> std::byte* {
    return base == nullptr ? nullptr : base + i * seg;
  };
  auto seg_len = [&](std::size_t i) {
    return std::min(seg, bytes - i * seg);
  };

  if (parent < 0) {
    // Root: one round per segment, pushing to all children.
    for (std::size_t i = 0; i < nseg; ++i) {
      for (int c : children) s.send(seg_ptr(i), seg_len(i), c);
      s.barrier();
    }
  } else if (children.empty()) {
    // Leaf: receive all segments; pipeline by one outstanding segment.
    for (std::size_t i = 0; i < nseg; ++i) {
      s.recv(seg_ptr(i), seg_len(i), parent);
      s.barrier();
    }
  } else {
    // Interior node: forward segment i while receiving segment i+1.
    s.recv(seg_ptr(0), seg_len(0), parent);
    s.barrier();
    for (std::size_t i = 1; i < nseg; ++i) {
      for (int c : children) s.send(seg_ptr(i - 1), seg_len(i - 1), c);
      s.recv(seg_ptr(i), seg_len(i), parent);
      s.barrier();
    }
    for (int c : children) s.send(seg_ptr(nseg - 1), seg_len(nseg - 1), c);
    s.barrier();
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::Ibcast, me);
  return s;
}

}  // namespace nbctune::coll
