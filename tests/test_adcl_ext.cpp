// Extended tuning-layer features: allreduce and neighborhood requests,
// the co-tuned progress-call attribute (paper §III-C), the 2^k factorial
// policy end-to-end through a Request, and block placement.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "adcl/adcl.hpp"
#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

namespace {
const net::Platform kIb = net::whale();
}

TEST(AllreduceRequest, TunesAndStaysCorrect) {
  const int n = 8;
  const std::size_t count = 500;
  int bad = 0;
  std::string winner;
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    std::vector<double> in(count), out(count);
    adcl::TuningOptions opts;
    opts.tests_per_function = 2;
    auto req = adcl::iallreduce_init(ctx, comm, in.data(), out.data(), count,
                                     nbc::DType::F64, mpi::ReduceOp::Sum,
                                     opts);
    for (int it = 0; it < 9; ++it) {  // 3 algorithms x 2 tests + extra
      for (std::size_t i = 0; i < count; ++i) in[i] = me + it + i * 0.5;
      req->init();
      ctx.compute(1e-3);
      req->progress();
      req->wait();
      for (std::size_t i = 0; i < count; ++i) {
        const double expect =
            n * (n - 1) / 2.0 + n * (it + i * 0.5);
        if (out[i] != expect) ++bad;
      }
    }
    if (me == 0 && req->selection().decided()) {
      winner = req->current_function().name;
    }
  });
  EXPECT_EQ(bad, 0);
  EXPECT_FALSE(winner.empty());
}

TEST(NeighborRequest, TunesHaloExchange) {
  coll::CartTopo topo{{4, 4}, true};
  const std::size_t block = 2048;
  std::string winner;
  int bad = 0;
  t::run_world(kIb, topo.size(), [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    const int slots = 2 * topo.ndims();
    std::vector<std::byte> sbuf(slots * block), rbuf(slots * block);
    for (int sl = 0; sl < slots; ++sl)
      for (std::size_t i = 0; i < block; ++i)
        sbuf[sl * block + i] = t::pattern_byte(me * 8 + sl, i);
    adcl::TuningOptions opts;
    opts.tests_per_function = 2;
    auto req = adcl::ineighbor_init(ctx, comm, topo, sbuf.data(), rbuf.data(),
                                    block, opts);
    for (int it = 0; it < 8; ++it) {
      req->init();
      ctx.compute(5e-4);
      req->progress();
      req->wait();
    }
    // Spot-check the final iteration's low-x halo.
    const int nbr = coll::cart_neighbor(topo, me, 0, -1);
    for (std::size_t i = 0; i < block; ++i) {
      if (rbuf[i] != t::pattern_byte(nbr * 8 + 1, i)) ++bad;
    }
    if (me == 0 && req->selection().decided()) {
      winner = req->current_function().name;
    }
  });
  EXPECT_EQ(bad, 0);
  EXPECT_FALSE(winner.empty());
}

TEST(NeighborRequest, TopologyMismatchThrows) {
  t::run_world(kIb, 4, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    coll::CartTopo wrong{{3, 3}, true};  // 9 != 4
    auto req = adcl::ineighbor_init(ctx, comm, wrong, nullptr, nullptr, 64);
    EXPECT_THROW(req->init(), std::invalid_argument);
  });
}

TEST(ProgressTuning, FunctionSetShape) {
  auto fs = adcl::make_ialltoall_progress_functionset({1, 5, 100});
  EXPECT_EQ(fs->size(), 9u);  // 3 algorithms x 3 counts
  EXPECT_EQ(fs->attributes().index_of("progress"), 1);
  EXPECT_GE(fs->find_by_name("pairwise/pc5"), 0);
  auto fsb = adcl::make_ialltoall_progress_functionset({1, 5}, true);
  EXPECT_EQ(fsb->size(), 12u);  // 6 functions x 2 counts
  EXPECT_THROW(adcl::make_ialltoall_progress_functionset({}),
               std::invalid_argument);
}

TEST(ProgressTuning, RecommendationFollowsSelection) {
  // The application reads the tuned progress count each iteration; during
  // learning it varies with the candidate, afterwards it is the winner's.
  std::set<int> seen;
  int final_pc = -1;
  bool decided = false;
  t::run_world(kIb, 8, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    adcl::OpArgs args;
    args.comm = comm;
    args.bytes = 64 * 1024;
    adcl::TuningOptions opts;
    opts.tests_per_function = 1;
    auto req = adcl::request_create(
        ctx, adcl::make_ialltoall_progress_functionset({1, 8}), args, opts);
    for (int it = 0; it < 8; ++it) {  // 6 combos x 1 test + extra
      const int pc = req->recommended_progress_calls(3);
      if (ctx.world_rank() == 0) seen.insert(pc);
      req->init();
      for (int p = 0; p < pc; ++p) {
        ctx.compute(2e-3 / pc);
        req->progress();
      }
      req->wait();
    }
    if (ctx.world_rank() == 0) {
      decided = req->selection().decided();
      final_pc = req->recommended_progress_calls(3);
    }
  });
  EXPECT_TRUE(decided);
  // Both candidate counts were exercised during learning...
  EXPECT_TRUE(seen.count(1) == 1 && seen.count(8) == 1) << seen.size();
  // ... and the recommendation settled on one of them.
  EXPECT_TRUE(final_pc == 1 || final_pc == 8);
}

TEST(ProgressTuning, FallbackWithoutAttribute) {
  t::run_world(kIb, 2, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    auto req = adcl::ialltoall_init(ctx, comm, nullptr, nullptr, 64);
    EXPECT_EQ(req->recommended_progress_calls(7), 7);
  });
}

TEST(TwoKFactorial, EndToEndThroughRequest) {
  // The 2^k policy drives a real tuned Ibcast: corners of the
  // fanout x segsize space first, then refinement; decision lands on a
  // valid function and data keeps flowing.
  std::string winner;
  int iterations = 0;
  t::run_world(kIb, 16, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    std::vector<std::byte> buf(256 * 1024);
    adcl::TuningOptions opts;
    opts.policy = adcl::PolicyKind::TwoKFactorial;
    opts.tests_per_function = 1;
    auto req = adcl::ibcast_init(ctx, comm, buf.data(), buf.size(), 0, opts);
    for (int it = 0; it < 24; ++it) {
      req->init();
      ctx.compute(1e-3);
      req->progress();
      req->wait();
      if (req->selection().decided() && iterations == 0 &&
          ctx.world_rank() == 0) {
        iterations = it + 1;
      }
    }
    if (ctx.world_rank() == 0 && req->selection().decided()) {
      winner = req->current_function().name;
    }
  });
  EXPECT_FALSE(winner.empty());
  // Far fewer measurements than the 21-function brute force.
  EXPECT_LT(iterations, 21);
  EXPECT_GT(iterations, 0);
}

TEST(Placement, AffectsCommunicationCost) {
  // Ping-pong between rank 0 and `peer` on whale under block placement.
  auto run = [](int peer) {
    sim::Engine engine(1);
    net::Machine machine(net::whale());
    mpi::WorldOptions opts;
    opts.nprocs = 9;
    opts.noise_scale = 0;
    mpi::World world(engine, machine, opts);
    EXPECT_EQ(world.node_of(peer), peer / 8);
    double elapsed = 0;
    world.launch([&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      std::vector<std::byte> buf(1024);
      if (ctx.world_rank() == 0) {
        const double t0 = ctx.now();
        ctx.send(comm, buf.data(), buf.size(), peer, 0);
        ctx.recv(comm, buf.data(), buf.size(), peer, 0);
        elapsed = ctx.now() - t0;
      } else if (ctx.world_rank() == peer) {
        ctx.recv(comm, buf.data(), buf.size(), 0, 0);
        ctx.send(comm, buf.data(), buf.size(), 0, 0);
      }
    });
    engine.run();
    return elapsed;
  };
  // whale packs 8 ranks per node: ranks 0 and 1 share a node (cheap
  // shared memory), ranks 0 and 8 do not (network).
  EXPECT_LT(run(1), run(8));
}
