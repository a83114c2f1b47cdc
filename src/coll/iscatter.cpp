#include "coll/iscatter.hpp"

#include <stdexcept>

namespace nbctune::coll {

namespace {

void check_args(int n, int root) {
  if (root < 0 || root >= n) throw std::invalid_argument("iscatter: bad root");
}

/// Common shape: one round of root-side sends (rail chosen per (dst,
/// stripe) by `rail_of`, -1 for the transport's default), plus the
/// root's local copy of its own block.
template <typename RailOf>
nbc::Schedule build(int me, int n, const void* sbuf, void* rbuf,
                    std::size_t bytes, int root,
                    const std::vector<net::Stripe>& stripes, RailOf rail_of,
                    trace::Kind what) {
  check_args(n, root);
  nbc::Schedule s;
  if (bytes > 0 && n > 1) {
    if (me == root) {
      for (int d = 0; d < n; ++d) {
        if (d == root) continue;
        for (const net::Stripe& st : stripes) {
          s.send(nbc::offset(sbuf, d * bytes + st.offset), st.bytes, d,
                 rail_of(d, st));
        }
      }
    } else {
      for (const net::Stripe& st : stripes) {
        s.recv(nbc::offset(rbuf, st.offset), st.bytes, root, rail_of(me, st));
      }
    }
  }
  if (me == root && bytes > 0) {
    s.copy(nbc::offset(sbuf, root * bytes), rbuf, bytes);
  }
  s.finalize();
  nbc::trace_built(s, what, me);
  return s;
}

/// A degenerate one-stripe plan covering the whole block.
std::vector<net::Stripe> whole_block(std::size_t bytes) {
  return {net::Stripe{0, 0, bytes}};
}

}  // namespace

nbc::Schedule build_iscatter_linear(int me, int n, const void* sbuf,
                                    void* rbuf, std::size_t bytes, int root) {
  return build(me, n, sbuf, rbuf, bytes, root, whole_block(bytes),
               [](int, const net::Stripe&) { return -1; },
               trace::Kind::IscatterLinear);
}

nbc::Schedule build_iscatter_fan(int me, int n, const void* sbuf, void* rbuf,
                                 std::size_t bytes, int root, int rail) {
  if (rail < 0) throw std::invalid_argument("iscatter fan: bad rail");
  return build(me, n, sbuf, rbuf, bytes, root, whole_block(bytes),
               [rail](int, const net::Stripe&) { return rail; },
               trace::Kind::IscatterFan);
}

nbc::Schedule build_iscatter_rail(int me, int n, const void* sbuf, void* rbuf,
                                  std::size_t bytes, int root, int nrails) {
  if (nrails <= 0) throw std::invalid_argument("iscatter rail: bad nrails");
  return build(me, n, sbuf, rbuf, bytes, root, whole_block(bytes),
               [nrails](int d, const net::Stripe&) { return d % nrails; },
               trace::Kind::IscatterRail);
}

nbc::Schedule build_iscatter_striped(int me, int n, const void* sbuf,
                                     void* rbuf, std::size_t bytes, int root,
                                     const std::vector<net::Stripe>& stripes) {
  if (stripes.empty() && bytes > 0) {
    throw std::invalid_argument("iscatter striped: empty stripe plan");
  }
  std::size_t covered = 0;
  for (const net::Stripe& st : stripes) covered += st.bytes;
  if (covered != bytes) {
    throw std::invalid_argument("iscatter striped: stripes do not tile block");
  }
  return build(me, n, sbuf, rbuf, bytes, root, stripes,
               [](int, const net::Stripe& st) { return st.rail; },
               trace::Kind::IscatterStriped);
}

}  // namespace nbctune::coll
