#include "coll/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "coll/binomial.hpp"
#include "coll/ibcast.hpp"

namespace nbctune::coll {

namespace {

void check_args(int n, int root, const std::vector<int>& node_of,
                const char* what) {
  if (root < 0 || root >= n) {
    throw std::invalid_argument(std::string(what) + ": bad root");
  }
  if (node_of.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument(std::string(what) +
                                ": node_of size != comm size");
  }
}

/// Distinct leader ranks in ascending order, rotated so `root_leader`
/// (which must be a leader) sits at virtual rank 0.
std::vector<int> leader_list(const std::vector<int>& leader_of,
                             int root_leader) {
  std::vector<int> leaders(leader_of);
  std::sort(leaders.begin(), leaders.end());
  leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());
  const auto it = std::find(leaders.begin(), leaders.end(), root_leader);
  std::rotate(leaders.begin(), it, leaders.end());
  return leaders;
}

/// Node-local virtual order: the leader at virtual rank 0, the remaining
/// members ascending.  Identical on every member, so the intra-node trees
/// agree without communication.
std::vector<int> local_list(const std::vector<int>& leader_of, int leader) {
  std::vector<int> local{leader};
  for (std::size_t r = 0; r < leader_of.size(); ++r) {
    const int rank = static_cast<int>(r);
    if (rank != leader && leader_of[r] == leader) local.push_back(rank);
  }
  return local;
}

int virtual_rank(const std::vector<int>& ranks, int me) {
  return static_cast<int>(std::find(ranks.begin(), ranks.end(), me) -
                          ranks.begin());
}

}  // namespace

std::vector<int> node_leaders(const std::vector<int>& node_of, int root) {
  std::vector<int> leader_of(node_of.size(), -1);
  // First (= lowest) rank seen on each node leads it; the root's node is
  // re-pointed at the root so its data needs no extra intra-node hop.
  std::vector<std::pair<int, int>> first;  // (node, rank)
  for (std::size_t r = 0; r < node_of.size(); ++r) {
    const int node = node_of[r];
    auto it = std::find_if(first.begin(), first.end(),
                           [node](const auto& p) { return p.first == node; });
    if (it == first.end()) first.emplace_back(node, static_cast<int>(r));
  }
  for (auto& [node, rank] : first) {
    if (node == node_of[static_cast<std::size_t>(root)]) rank = root;
  }
  for (std::size_t r = 0; r < node_of.size(); ++r) {
    const int node = node_of[r];
    leader_of[r] = std::find_if(first.begin(), first.end(),
                                [node](const auto& p) {
                                  return p.first == node;
                                })->second;
  }
  return leader_of;
}

nbc::Schedule build_ibcast_two_level(int me, int n, void* buf,
                                     std::size_t bytes, int root,
                                     const std::vector<int>& node_of) {
  check_args(n, root, node_of, "ibcast two-level");
  nbc::Schedule s;
  if (n == 1 || bytes == 0) {
    s.finalize();
    nbc::trace_built(s, trace::Kind::IbcastTwoLevel, me);
    return s;
  }
  const std::vector<int> leader_of = node_leaders(node_of, root);
  const int my_leader = leader_of[static_cast<std::size_t>(me)];
  const std::vector<int> local = local_list(leader_of, my_leader);
  const int lv = virtual_rank(local, me);
  const int lcount = static_cast<int>(local.size());

  if (me == my_leader) {
    // Inter-node phase: binomial over the leader list, root at v = 0.
    const std::vector<int> leaders = leader_list(leader_of, root);
    const int vcount = static_cast<int>(leaders.size());
    const int v = virtual_rank(leaders, me);
    const int vparent = bcast_parent(v, vcount, kFanoutBinomial);
    if (vparent >= 0) {
      s.recv(buf, bytes, leaders[static_cast<std::size_t>(vparent)]);
      s.barrier();
    }
    for (int c : bcast_children(v, vcount, kFanoutBinomial)) {
      s.send(buf, bytes, leaders[static_cast<std::size_t>(c)]);
    }
  } else {
    // Non-leader: binomial tree inside the node, rooted at the leader.
    const int lparent = bcast_parent(lv, lcount, kFanoutBinomial);
    s.recv(buf, bytes, local[static_cast<std::size_t>(lparent)]);
    s.barrier();
  }
  // Intra-node fan-out (leaders start it concurrently with their
  // inter-node children sends — the long poles go first on the wire).
  for (int c : bcast_children(lv, lcount, kFanoutBinomial)) {
    s.send(buf, bytes, local[static_cast<std::size_t>(c)]);
  }
  s.finalize();
  nbc::trace_built(s, trace::Kind::IbcastTwoLevel, me);
  return s;
}

nbc::Schedule build_iallreduce_two_level(int me, int n, const void* sbuf,
                                         void* rbuf, std::size_t count,
                                         nbc::DType dtype, mpi::ReduceOp op,
                                         const std::vector<int>& node_of) {
  check_args(n, /*root=*/0, node_of, "iallreduce two-level");
  nbc::Schedule s;
  const std::size_t esz = nbc::dtype_size(dtype);
  const std::size_t bytes = count * esz;
  const bool real = sbuf != nullptr || rbuf != nullptr;
  auto* acc = static_cast<std::byte*>(rbuf);

  s.copy(sbuf, acc, bytes);
  if (n == 1 || bytes == 0) {
    s.finalize();
    nbc::trace_built(s, trace::Kind::IallreduceTwoLevel, me);
    return s;
  }
  // Rank 0's node leader is rank 0 itself (the lowest rank of its node),
  // so the leader phase reduces towards v = 0 = comm rank 0.
  const std::vector<int> leader_of = node_leaders(node_of, /*root=*/0);
  const int my_leader = leader_of[static_cast<std::size_t>(me)];
  const std::vector<int> local = local_list(leader_of, my_leader);
  const int lv = virtual_rank(local, me);

  const int lcount = static_cast<int>(local.size());
  const auto local_peer = [&](int v) { return local[std::size_t(v)]; };

  // Intra-node binomial reduce to the leader.
  binomial_reduce(s, lcount, lv, local_peer, acc, bytes, count, dtype, op,
                  real);

  if (me == my_leader) {
    // Inter-node phase over virtual leader ranks: binomial reduce to
    // v = 0, binomial broadcast back (the flat reduce_bcast shape).
    const std::vector<int> leaders = leader_list(leader_of, leader_of[0]);
    const int vcount = static_cast<int>(leaders.size());
    const int v = virtual_rank(leaders, me);
    const auto leader = [&](int u) { return leaders[std::size_t(u)]; };
    binomial_reduce(s, vcount, v, leader, acc, bytes, count, dtype, op, real);
    s.barrier();
    binomial_bcast(s, vcount, v, leader, acc, bytes);
  }

  // Intra-node result broadcast from the leader.
  s.barrier();
  binomial_bcast(s, lcount, lv, local_peer, acc, bytes);
  s.finalize();
  nbc::trace_built(s, trace::Kind::IallreduceTwoLevel, me);
  return s;
}

}  // namespace nbctune::coll
