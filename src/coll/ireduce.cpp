#include "coll/ireduce.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace nbctune::coll {

nbc::Schedule build_ireduce_binomial(int me, int n, const void* sbuf,
                                     void* rbuf, std::size_t count,
                                     nbc::DType dtype, mpi::ReduceOp op,
                                     int root) {
  if (root < 0 || root >= n) throw std::invalid_argument("ireduce: bad root");
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const std::size_t bytes = count * esz;
  const int v = (me - root + n) % n;

  // Accumulator: root folds into rbuf, others into scratch.  Cost-model
  // runs (null sbuf) elide scratch allocation; nulls propagate.
  const bool real = sbuf != nullptr;
  std::byte* acc;
  if (v == 0 && rbuf != nullptr) {
    acc = static_cast<std::byte*>(rbuf);
  } else {
    acc = real ? s.scratch(bytes) : nullptr;
  }
  s.copy(sbuf, acc, bytes);

  // Children in virtual-rank space: v + mask while mask bits below v's
  // lowest set bit.  Receive child subtotals one round each (a child with
  // a bigger subtree arrives later), folding as they come.
  std::vector<int> children;
  for (int mask = 1; mask < n; mask <<= 1) {
    if (v & mask) break;
    if (v + mask < n) children.push_back(v + mask);
  }
  for (int cv : children) {
    std::byte* in = real ? s.scratch(bytes) : nullptr;
    s.recv(in, bytes, (cv + root) % n);
    s.barrier();
    s.op(in, acc, count, dtype, op);
  }
  if (v != 0) {
    const int parent = ((v & ~(v & -v)) + root) % n;
    s.barrier();
    s.send(acc, bytes, parent);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IreduceBinomial, me);
  return s;
}

nbc::Schedule build_ireduce_chain(int me, int n, const void* sbuf, void* rbuf,
                                  std::size_t count, nbc::DType dtype,
                                  mpi::ReduceOp op, int root,
                                  std::size_t seg_elems) {
  if (root < 0 || root >= n) throw std::invalid_argument("ireduce: bad root");
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const std::size_t bytes = count * esz;
  const int v = (me - root + n) % n;  // chain: v receives from v+1
  const bool have_child = v + 1 < n;
  const bool is_root = v == 0;

  const bool real = sbuf != nullptr;
  std::byte* acc;
  if (is_root && rbuf != nullptr) {
    acc = static_cast<std::byte*>(rbuf);
  } else {
    acc = real ? s.scratch(bytes) : nullptr;
  }
  s.copy(sbuf, acc, bytes);
  s.barrier();

  const std::size_t seg =
      seg_elems == 0 ? count : std::min(seg_elems, count);
  const std::size_t nseg = count == 0 ? 0 : (count + seg - 1) / seg;
  std::byte* in = have_child && real ? s.scratch(seg * esz) : nullptr;

  for (std::size_t i = 0; i < nseg; ++i) {
    const std::size_t off = i * seg;
    const std::size_t len = std::min(seg, count - off);
    if (have_child) {
      s.recv(in, len * esz, (v + 1 + root) % n);
      s.barrier();
      s.op(in, acc == nullptr ? nullptr : acc + off * esz, len, dtype, op);
    }
    if (!is_root) {
      s.send(acc == nullptr ? nullptr : acc + off * esz, len * esz,
             (v - 1 + root) % n);
      s.barrier();
    }
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IreduceChain, me);
  return s;
}

}  // namespace nbctune::coll
