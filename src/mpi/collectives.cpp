// Bootstrap collectives: simple, blocking, built on the point-to-point
// layer.  These form the control plane used by the harness and by the
// tuner's decision synchronization — they are NOT the tuned collectives
// (those live in src/coll as LibNBC-style schedules).

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mpi/world.hpp"

namespace nbctune::mpi {

namespace {
// Internal tag space, far above anything user code passes; doubles as
// the reliable-channel marker (see kReliableTagBase in world.hpp).
constexpr int kInternalTagBase = kReliableTagBase;
// Sub-tags per epoch (slots 0..3 below); shared with the fail-stop
// recovery tag-floor computation in Ctx::ft_cleanup.
constexpr int kEpochSpan = kCollEpochSpan;

void fold(double* acc, const double* in, std::size_t n, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}
}  // namespace

void Ctx::barrier(const Comm& comm) {
  const int n = comm.size();
  const int me = comm.rank_of_world(wrank_);
  const int tag =
      kInternalTagBase + (epoch_counter_++ % (1 << 20)) * kEpochSpan;
  if (n == 1) return;
  // Dissemination barrier: log2(n) rounds of 0-byte exchanges.
  for (int mask = 1; mask < n; mask <<= 1) {
    const int to = (me + mask) % n;
    const int from = (me - mask + n) % n;
    Req r = irecv(comm, nullptr, 0, from, tag);
    send(comm, nullptr, 0, to, tag);
    wait(r);
  }
}

void Ctx::bcast(const Comm& comm, void* buf, std::size_t bytes, int root) {
  const int n = comm.size();
  const int me = comm.rank_of_world(wrank_);
  const int tag =
      kInternalTagBase + (epoch_counter_++ % (1 << 20)) * kEpochSpan + 1;
  if (n == 1) return;
  const int vrank = (me - root + n) % n;
  // Binomial tree on virtual ranks.
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      recv(comm, buf, bytes, parent, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      send(comm, buf, bytes, child, tag);
    }
    mask >>= 1;
  }
}

void Ctx::allreduce(const Comm& comm, const double* in, double* out,
                    std::size_t n_elems, ReduceOp op) {
  const int n = comm.size();
  const int me = comm.rank_of_world(wrank_);
  const int tag =
      kInternalTagBase + (epoch_counter_++ % (1 << 20)) * kEpochSpan + 2;
  std::memcpy(out, in, n_elems * sizeof(double));
  if (n == 1) return;
  // Binomial reduce to rank 0 ...
  std::vector<double> tmp(n_elems);
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      send(comm, out, n_elems * sizeof(double), me - mask, tag);
      break;
    }
    if (me + mask < n) {
      recv(comm, tmp.data(), n_elems * sizeof(double), me + mask, tag);
      fold(out, tmp.data(), n_elems, op);
    }
    mask <<= 1;
  }
  // ... then broadcast the result.
  bcast(comm, out, n_elems * sizeof(double), 0);
}

double Ctx::allreduce(const Comm& comm, double value, ReduceOp op) {
  double out = 0.0;
  allreduce(comm, &value, &out, 1, op);
  return out;
}

void Ctx::allgather(const Comm& comm, const void* in, void* out,
                    std::size_t bytes_each) {
  const int n = comm.size();
  const int me = comm.rank_of_world(wrank_);
  const int tag =
      kInternalTagBase + (epoch_counter_++ % (1 << 20)) * kEpochSpan + 3;
  auto* o = static_cast<std::byte*>(out);
  if (in != nullptr && out != nullptr) {
    std::memcpy(o + static_cast<std::size_t>(me) * bytes_each, in, bytes_each);
  }
  if (n == 1) return;
  // Ring: in step s we forward the block of rank (me - s).
  const int to = (me + 1) % n;
  const int from = (me - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_block = (me - s + n) % n;
    const int recv_block = (me - s - 1 + n) % n;
    std::byte* sp = o ? o + static_cast<std::size_t>(send_block) * bytes_each
                      : nullptr;
    std::byte* rp = o ? o + static_cast<std::size_t>(recv_block) * bytes_each
                      : nullptr;
    Req r = irecv(comm, rp, bytes_each, from, tag);
    send(comm, sp, bytes_each, to, tag);
    wait(r);
  }
}

Comm Ctx::dup(const Comm& comm) {
  const int epoch = split_epochs_[comm.context()]++;
  const int ctx_id = world_.alloc_context(comm.context(), epoch, 0);
  auto data = std::make_shared<CommData>(comm.data());
  data->context = ctx_id;
  data->split_epoch = 0;
  return Comm(&world_, std::move(data));
}

Comm Ctx::split(const Comm& comm, int color, int key) {
  const int n = comm.size();
  const int epoch = split_epochs_[comm.context()]++;
  // Gather everyone's (color, key).
  std::vector<int> mine{color, key};
  std::vector<int> all(static_cast<std::size_t>(n) * 2);
  allgather(comm, mine.data(), all.data(), 2 * sizeof(int));
  // Collect members of my color, ordered by (key, parent rank).
  struct Member {
    int key;
    int parent_rank;
  };
  std::vector<Member> members;
  for (int r = 0; r < n; ++r) {
    if (all[static_cast<std::size_t>(r) * 2] == color) {
      members.push_back({all[static_cast<std::size_t>(r) * 2 + 1], r});
    }
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const Member& a, const Member& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.parent_rank < b.parent_rank;
                   });
  const int ctx_id = world_.alloc_context(comm.context(), epoch, color);
  std::vector<int> wranks;
  wranks.reserve(members.size());
  for (const Member& m : members) {
    wranks.push_back(comm.world_rank(m.parent_rank));
  }
  return Comm(&world_, std::make_shared<CommData>(ctx_id, std::move(wranks)));
}

}  // namespace nbctune::mpi
