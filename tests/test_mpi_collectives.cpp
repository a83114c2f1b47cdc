// Bootstrap (blocking, control-plane) collectives and communicator
// management: barrier, bcast, allreduce, allgather, dup, split.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

namespace {
const net::Platform kIb = net::whale();
}

class BootstrapCollectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, BootstrapCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 33));

TEST_P(BootstrapCollectives, BarrierHoldsEveryoneBack) {
  const int n = GetParam();
  std::vector<double> after(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    // Rank r computes r milliseconds; after the barrier everyone's clock
    // must be at least the slowest rank's compute time.
    ctx.compute(1e-3 * (ctx.world_rank() + 1));
    ctx.barrier(comm);
    after[ctx.world_rank()] = ctx.now();
  });
  for (int r = 0; r < n; ++r) EXPECT_GE(after[r], 1e-3 * n);
}

TEST_P(BootstrapCollectives, BcastFromEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; root += (n > 4 ? 3 : 1)) {
    std::vector<int> got(n, -1);
    t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      int value = ctx.world_rank() == root ? 4242 + root : -1;
      ctx.bcast(comm, &value, sizeof value, root);
      got[ctx.world_rank()] = value;
    });
    for (int r = 0; r < n; ++r) EXPECT_EQ(got[r], 4242 + root) << r;
  }
}

TEST_P(BootstrapCollectives, AllreduceSumMaxMin) {
  const int n = GetParam();
  std::vector<double> sums(n), maxs(n), mins(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const double v = ctx.world_rank() + 1.0;
    sums[ctx.world_rank()] = ctx.allreduce(comm, v, mpi::ReduceOp::Sum);
    maxs[ctx.world_rank()] = ctx.allreduce(comm, v, mpi::ReduceOp::Max);
    mins[ctx.world_rank()] = ctx.allreduce(comm, v, mpi::ReduceOp::Min);
  });
  const double expect_sum = n * (n + 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(sums[r], expect_sum);
    EXPECT_DOUBLE_EQ(maxs[r], n);
    EXPECT_DOUBLE_EQ(mins[r], 1.0);
  }
}

TEST_P(BootstrapCollectives, AllreduceVector) {
  const int n = GetParam();
  std::vector<std::vector<double>> out(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    std::vector<double> in{1.0 * ctx.world_rank(), -1.0 * ctx.world_rank(),
                           1.0};
    std::vector<double> res(3);
    ctx.allreduce(comm, in.data(), res.data(), 3, mpi::ReduceOp::Sum);
    out[ctx.world_rank()] = res;
  });
  const double s = n * (n - 1) / 2.0;
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ(out[r][0], s);
    EXPECT_DOUBLE_EQ(out[r][1], -s);
    EXPECT_DOUBLE_EQ(out[r][2], n);
  }
}

TEST_P(BootstrapCollectives, AllgatherCollectsInRankOrder) {
  const int n = GetParam();
  std::vector<std::vector<int>> out(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int mine = 100 + ctx.world_rank();
    std::vector<int> all(n);
    ctx.allgather(comm, &mine, all.data(), sizeof(int));
    out[ctx.world_rank()] = all;
  });
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < n; ++i) EXPECT_EQ(out[r][i], 100 + i);
  }
}

TEST(CommManagement, DupIsolatesTagSpace) {
  // A message sent on the dup'ed communicator must not match a receive
  // posted on the world communicator with the same tag.
  int got_world = -1, got_dup = -1;
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto world = ctx.world().comm_world();
    auto dup = ctx.dup(world);
    ASSERT_NE(dup.context(), world.context());
    if (ctx.world_rank() == 0) {
      int a = 1, b = 2;
      ctx.send(dup, &a, sizeof a, 1, 9);
      ctx.send(world, &b, sizeof b, 1, 9);
    } else {
      // Post the world receive first; the dup message must not land in it.
      ctx.recv(world, &got_world, sizeof(int), 0, 9);
      ctx.recv(dup, &got_dup, sizeof(int), 0, 9);
    }
  });
  EXPECT_EQ(got_world, 2);
  EXPECT_EQ(got_dup, 1);
}

TEST(CommManagement, SplitByParity) {
  const int n = 8;
  std::vector<int> sizes(n), ranks(n);
  std::vector<double> sums(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto world = ctx.world().comm_world();
    const int color = ctx.world_rank() % 2;
    auto sub = ctx.split(world, color, ctx.world_rank());
    sizes[ctx.world_rank()] = sub.size();
    ranks[ctx.world_rank()] = sub.rank_of_world(ctx.world_rank());
    // A reduction inside the sub-communicator only sees members.
    sums[ctx.world_rank()] =
        ctx.allreduce(sub, ctx.world_rank(), mpi::ReduceOp::Sum);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(sizes[r], 4);
    EXPECT_EQ(ranks[r], r / 2);
    EXPECT_DOUBLE_EQ(sums[r], r % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7);
  }
}

TEST(CommManagement, SplitKeyReordersRanks) {
  const int n = 4;
  std::vector<int> ranks(n);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto world = ctx.world().comm_world();
    // Reverse order: world rank 3 becomes sub rank 0.
    auto sub = ctx.split(world, 0, n - ctx.world_rank());
    ranks[ctx.world_rank()] = sub.rank_of_world(ctx.world_rank());
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(ranks[r], n - 1 - r);
}

TEST(CommManagement, RankOfWorldInvertsTheMemberList) {
  // The inverse map against a scan of the member list: the identity, a
  // permutation, strided and sparse member sets, a single member.
  std::vector<std::vector<int>> sets;
  std::vector<int> identity(1000);
  for (int r = 0; r < 1000; ++r) identity[r] = r;
  sets.push_back(identity);
  std::vector<int> perm(identity);
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t i = perm.size(); i > 1; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(perm[i - 1], perm[x % i]);
  }
  sets.push_back(perm);
  std::vector<int> strided;
  for (int r = 3; r < 131072; r += 16) strided.push_back(r);
  sets.push_back(strided);
  sets.push_back({131071, 5, 70000, 0});
  sets.push_back({42});
  for (const std::vector<int>& members : sets) {
    const mpi::CommData d(7, members);
    ASSERT_EQ(d.members(), members);
    std::vector<bool> member(131072 + 64);
    for (std::size_t r = 0; r < members.size(); ++r) {
      EXPECT_EQ(d.rank_of(members[r]), static_cast<int>(r));
      member[static_cast<std::size_t>(members[r])] = true;
    }
    // Every non-member world rank maps to -1.
    for (std::size_t w = 0; w < member.size(); ++w) {
      if (!member[w]) {
        EXPECT_EQ(d.rank_of(static_cast<int>(w)), -1) << w;
      }
    }
    // Copies (dup) carry the same inverse.
    const mpi::CommData copy = d;
    EXPECT_EQ(copy.rank_of(members.back()),
              static_cast<int>(members.size()) - 1);
  }
}

TEST(CommManagement, CollectivesOnSubCommunicator) {
  const int n = 6;
  std::vector<int> got(n, -1);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto world = ctx.world().comm_world();
    auto sub = ctx.split(world, ctx.world_rank() < 3 ? 0 : 1, 0);
    int v = sub.rank_of_world(ctx.world_rank()) == 0 ? ctx.world_rank() : -1;
    ctx.bcast(sub, &v, sizeof v, 0);
    got[ctx.world_rank()] = v;
  });
  for (int r = 0; r < 3; ++r) EXPECT_EQ(got[r], 0);
  for (int r = 3; r < 6; ++r) EXPECT_EQ(got[r], 3);
}
