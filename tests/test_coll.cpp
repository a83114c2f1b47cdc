// Property tests for the collective algorithm library: every algorithm,
// across rank counts (including non-powers-of-two), message sizes spanning
// the eager/rendezvous boundary, and roots, must deliver bit-identical
// payloads to the trivial reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include "coll/blocking.hpp"
#include "coll/hierarchical.hpp"
#include "coll/iallgather.hpp"
#include "coll/iallreduce.hpp"
#include "coll/ialltoall.hpp"
#include "coll/ibcast.hpp"
#include "coll/ineighbor.hpp"
#include "coll/ireduce.hpp"
#include "coll/iscatter.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"

using namespace nbctune;
namespace t = nbctune::testing;

namespace {
const net::Platform kIb = net::whale();

// Payload byte for the block sent from rank s to rank d.
std::byte a2a_byte(int s, int d, std::size_t i) {
  return static_cast<std::byte>((s * 37 + d * 101 + int(i) * 3 + 5) & 0xff);
}
}  // namespace

// ------------------------------------------------------------- Ialltoall

enum class A2A { Linear, Pairwise, Bruck };

class AlltoallCorrectness
    : public ::testing::TestWithParam<std::tuple<A2A, int, std::size_t>> {};

static std::string a2a_name(
    const ::testing::TestParamInfo<std::tuple<A2A, int, std::size_t>>& info) {
  static const char* names[] = {"linear", "pairwise", "bruck"};
  return std::string(names[int(std::get<0>(info.param))]) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_b" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlltoallCorrectness,
    ::testing::Combine(::testing::Values(A2A::Linear, A2A::Pairwise,
                                         A2A::Bruck),
                       ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17),
                       ::testing::Values(std::size_t{1}, std::size_t{64},
                                         std::size_t{1024},
                                         std::size_t{20000})),
    a2a_name);

TEST_P(AlltoallCorrectness, DeliversAllBlocks) {
  const auto [algo, n, block] = GetParam();
  std::vector<std::vector<std::byte>> results(n);
  t::run_world(kIb, n, [&, n = n, block = block, algo = algo](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    std::vector<std::byte> sbuf(std::size_t(n) * block);
    std::vector<std::byte> rbuf(std::size_t(n) * block,
                                std::byte{0xee});
    for (int d = 0; d < n; ++d)
      for (std::size_t i = 0; i < block; ++i)
        sbuf[std::size_t(d) * block + i] = a2a_byte(me, d, i);
    nbc::Schedule s;
    switch (algo) {
      case A2A::Linear:
        s = coll::build_ialltoall_linear(me, n, sbuf.data(), rbuf.data(),
                                         block);
        break;
      case A2A::Pairwise:
        s = coll::build_ialltoall_pairwise(me, n, sbuf.data(), rbuf.data(),
                                           block);
        break;
      case A2A::Bruck:
        s = coll::build_ialltoall_bruck(me, n, sbuf.data(), rbuf.data(),
                                        block);
        break;
    }
    nbc::Handle h(ctx, comm, &s, ctx.alloc_nbc_tag());
    h.start();
    h.wait();
    results[me] = rbuf;
  });
  for (int d = 0; d < n; ++d) {
    for (int src = 0; src < n; ++src) {
      for (std::size_t i = 0; i < block; ++i) {
        ASSERT_EQ(results[d][std::size_t(src) * block + i],
                  a2a_byte(src, d, i))
            << "dst=" << d << " src=" << src << " i=" << i;
      }
    }
  }
}

TEST(Alltoall, RestartedScheduleStaysCorrect) {
  // Persistent semantics: the same schedule re-executed with fresh data.
  const int n = 5;
  const std::size_t block = 512;
  std::vector<int> failures(n, 0);
  t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    std::vector<std::byte> sbuf(n * block), rbuf(n * block);
    nbc::Schedule s =
        coll::build_ialltoall_bruck(me, n, sbuf.data(), rbuf.data(), block);
    nbc::Handle h(ctx, comm, &s, ctx.alloc_nbc_tag());
    for (int it = 0; it < 3; ++it) {
      for (int d = 0; d < n; ++d)
        for (std::size_t i = 0; i < block; ++i)
          sbuf[d * block + i] = a2a_byte(me + it, d, i);
      h.start();
      h.wait();
      for (int src = 0; src < n; ++src)
        for (std::size_t i = 0; i < block; ++i)
          if (rbuf[src * block + i] != a2a_byte(src + it, me, i))
            ++failures[me];
    }
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ(failures[r], 0);
}

TEST(Alltoall, BlockingComparatorCorrect) {
  for (std::size_t block : {std::size_t{128}, std::size_t{4096},
                            std::size_t{64 * 1024}}) {
    const int n = 6;
    std::vector<std::vector<std::byte>> results(n);
    t::run_world(kIb, n, [&](mpi::Ctx& ctx) {
      auto comm = ctx.world().comm_world();
      const int me = ctx.world_rank();
      std::vector<std::byte> sbuf(n * block), rbuf(n * block);
      for (int d = 0; d < n; ++d)
        for (std::size_t i = 0; i < block; ++i)
          sbuf[d * block + i] = a2a_byte(me, d, i);
      coll::blocking_alltoall(ctx, comm, sbuf.data(), rbuf.data(), block);
      results[me] = rbuf;
    });
    for (int d = 0; d < n; ++d)
      for (int src = 0; src < n; ++src)
        for (std::size_t i = 0; i < block; ++i)
          ASSERT_EQ(results[d][src * block + i], a2a_byte(src, d, i));
  }
}

// --------------------------------------------------------------- Ibcast

class BcastCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

static std::string bcast_name(
    const ::testing::TestParamInfo<std::tuple<int, int, std::size_t>>& info) {
  const int f = std::get<0>(info.param);
  std::string fs = f == coll::kFanoutBinomial ? "binomial"
                   : f == 0                   ? "linear"
                                              : "k" + std::to_string(f);
  return fs + "_n" + std::to_string(std::get<1>(info.param)) + "_seg" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcastCorrectness,
    ::testing::Combine(
        ::testing::Values(coll::kFanoutLinear, 1, 2, 3, 5,
                          coll::kFanoutBinomial),
        ::testing::Values(1, 2, 5, 8, 16, 23),
        ::testing::Values(std::size_t{0}, std::size_t{1000},
                          std::size_t{32768})),
    bcast_name);

TEST_P(BcastCorrectness, EveryoneGetsRootData) {
  const auto [fanout, n, seg] = GetParam();
  const std::size_t bytes = 100 * 1000;  // multiple segments at seg=1000
  const int root = n > 2 ? 2 : 0;
  std::vector<std::vector<std::byte>> results(n);
  t::run_world(kIb, n,
               [&, fanout = fanout, n = n, seg = seg](mpi::Ctx& ctx) {
                 auto comm = ctx.world().comm_world();
                 const int me = ctx.world_rank();
                 std::vector<std::byte> buf =
                     me == root ? t::make_pattern(root, bytes)
                                : std::vector<std::byte>(bytes);
                 nbc::Schedule s = coll::build_ibcast(
                     me, n, buf.data(), bytes, root, fanout, seg);
                 nbc::Handle h(ctx, comm, &s, ctx.alloc_nbc_tag());
                 h.start();
                 h.wait();
                 results[me] = buf;
               });
  const auto expect = t::make_pattern(root, bytes);
  for (int r = 0; r < n; ++r) EXPECT_EQ(results[r], expect) << "rank " << r;
}

TEST(Bcast, TreeShapesAreConsistent) {
  // parent/children must agree across every fanout and rank count.
  for (int fanout : {coll::kFanoutLinear, 1, 2, 3, 4, 5,
                     coll::kFanoutBinomial}) {
    for (int n : {1, 2, 3, 7, 8, 16, 33}) {
      std::vector<int> seen(n, 0);
      for (int v = 0; v < n; ++v) {
        for (int c : coll::bcast_children(v, n, fanout)) {
          ASSERT_LT(c, n);
          ASSERT_GT(c, 0);
          EXPECT_EQ(coll::bcast_parent(c, n, fanout), v)
              << "fanout=" << fanout << " n=" << n << " child=" << c;
          ++seen[c];
        }
      }
      // Every non-root is someone's child exactly once.
      for (int v = 1; v < n; ++v) EXPECT_EQ(seen[v], 1) << "fanout=" << fanout;
      EXPECT_EQ(coll::bcast_parent(0, n, fanout), -1);
    }
  }
}

TEST(Bcast, SegmentationControlsRoundCount) {
  // A chain broadcast of k segments has ~k+1 rounds on interior nodes.
  const std::size_t bytes = 8 * 1024;
  int buf_storage[2048];
  auto s1 = coll::build_ibcast(1, 4, buf_storage, bytes, 0, 1, 0);
  auto s4 = coll::build_ibcast(1, 4, buf_storage, bytes, 0, 1, 2048);
  EXPECT_EQ(s1.num_rounds(), 2u);   // recv, send
  EXPECT_EQ(s4.num_rounds(), 5u);   // 4 segments pipelined
  EXPECT_EQ(s4.total_send_bytes(), bytes);
}

// ------------------------------------------------------------ Iallgather

enum class AG { Linear, Ring, RecDbl };

class AllgatherCorrectness
    : public ::testing::TestWithParam<std::tuple<AG, int>> {};

static std::string ag_name(
    const ::testing::TestParamInfo<std::tuple<AG, int>>& info) {
  static const char* names[] = {"linear", "ring", "recdbl"};
  return std::string(names[int(std::get<0>(info.param))]) + "_n" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllgatherCorrectness,
                         ::testing::Combine(::testing::Values(AG::Linear,
                                                              AG::Ring,
                                                              AG::RecDbl),
                                            ::testing::Values(2, 3, 4, 7, 8,
                                                              16)),
                         ag_name);

TEST_P(AllgatherCorrectness, CollectsEveryBlock) {
  const auto [algo, n] = GetParam();
  if (algo == AG::RecDbl && !coll::is_pow2(n)) GTEST_SKIP();
  const std::size_t block = 600;
  std::vector<std::vector<std::byte>> results(n);
  t::run_world(kIb, n, [&, algo = algo, n = n](mpi::Ctx& ctx) {
    auto comm = ctx.world().comm_world();
    const int me = ctx.world_rank();
    auto mine = t::make_pattern(me, block);
    std::vector<std::byte> rbuf(std::size_t(n) * block);
    nbc::Schedule s;
    switch (algo) {
      case AG::Linear:
        s = coll::build_iallgather_linear(me, n, mine.data(), rbuf.data(),
                                          block);
        break;
      case AG::Ring:
        s = coll::build_iallgather_ring(me, n, mine.data(), rbuf.data(),
                                        block);
        break;
      case AG::RecDbl:
        s = coll::build_iallgather_recursive_doubling(
            me, n, mine.data(), rbuf.data(), block);
        break;
    }
    nbc::Handle h(ctx, comm, &s, ctx.alloc_nbc_tag());
    h.start();
    h.wait();
    results[me] = rbuf;
  });
  for (int r = 0; r < n; ++r) {
    for (int src = 0; src < n; ++src) {
      const auto expect = t::make_pattern(src, block);
      ASSERT_TRUE(std::memcmp(results[r].data() + std::size_t(src) * block,
                              expect.data(), block) == 0)
          << "rank " << r << " block " << src;
    }
  }
}

TEST(Allgather, RecursiveDoublingRejectsNonPow2) {
  int x;
  EXPECT_THROW(
      coll::build_iallgather_recursive_doubling(0, 6, &x, &x, sizeof x),
      std::invalid_argument);
}

// --------------------------------------------------------------- Ireduce

class ReduceCorrectness : public ::testing::TestWithParam<std::tuple<int, int>> {
};

INSTANTIATE_TEST_SUITE_P(Sweep, ReduceCorrectness,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                                            ::testing::Values(0, 1, 2)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>&
                                info) {
                           return "n" + std::to_string(std::get<0>(info.param)) +
                                  "_root" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(ReduceCorrectness, BinomialSumsDoubles) {
  const auto [n, root_sel] = GetParam();
  const int root = root_sel % n;
  const std::size_t count = 1000;
  std::vector<double> result(count, -1);
  t::run_world(kIb, n, [&, n = n](mpi::Ctx& ctx) {
    const int me = ctx.world_rank();
    std::vector<double> in(count);
    for (std::size_t i = 0; i < count; ++i) in[i] = me + i * 0.5;
    std::vector<double> out(me == root ? count : 0);
    nbc::Schedule s = coll::build_ireduce_binomial(
        me, n, in.data(), me == root ? out.data() : nullptr, count,
        nbc::DType::F64, mpi::ReduceOp::Sum, root);
    nbc::Handle h(ctx, ctx.world().comm_world(), &s, ctx.alloc_nbc_tag());
    h.start();
    h.wait();
    if (me == root) result = out;
  });
  for (std::size_t i = 0; i < count; ++i) {
    const double expect = n * (n - 1) / 2.0 + n * (i * 0.5);
    EXPECT_DOUBLE_EQ(result[i], expect) << i;
  }
}

TEST_P(ReduceCorrectness, ChainSegmentedMax) {
  const auto [n, root_sel] = GetParam();
  const int root = root_sel % n;
  const std::size_t count = 777;
  std::vector<int> result(count, -1);
  t::run_world(kIb, n, [&, n = n](mpi::Ctx& ctx) {
    const int me = ctx.world_rank();
    std::vector<int> in(count);
    for (std::size_t i = 0; i < count; ++i)
      in[i] = int((me * 131 + i * 17) % 1000);
    std::vector<int> out(me == root ? count : 0);
    nbc::Schedule s = coll::build_ireduce_chain(
        me, n, in.data(), me == root ? out.data() : nullptr, count,
        nbc::DType::I32, mpi::ReduceOp::Max, root, /*seg_elems=*/100);
    nbc::Handle h(ctx, ctx.world().comm_world(), &s, ctx.alloc_nbc_tag());
    h.start();
    h.wait();
    if (me == root) result = out;
  });
  for (std::size_t i = 0; i < count; ++i) {
    int expect = 0;
    for (int r = 0; r < n; ++r)
      expect = std::max(expect, int((r * 131 + i * 17) % 1000));
    EXPECT_EQ(result[i], expect) << i;
  }
}

// --------------------------------------------------- volume diagnostics

TEST(AlgorithmShape, DataVolumesMatchTheory) {
  // The tradeoff the paper's Fig. 4 rests on: bruck sends fewer messages
  // but more bytes; linear/pairwise send n-1 messages of exactly one block.
  const int n = 16;
  const std::size_t block = 1000;
  std::vector<std::byte> sb(n * block), rb(n * block);
  auto lin = coll::build_ialltoall_linear(3, n, sb.data(), rb.data(), block);
  auto pw = coll::build_ialltoall_pairwise(3, n, sb.data(), rb.data(), block);
  auto br = coll::build_ialltoall_bruck(3, n, sb.data(), rb.data(), block);
  EXPECT_EQ(lin.total_sends(), std::size_t(n - 1));
  EXPECT_EQ(pw.total_sends(), std::size_t(n - 1));
  EXPECT_EQ(br.total_sends(), 4u);  // log2(16)
  EXPECT_EQ(lin.total_send_bytes(), std::size_t(n - 1) * block);
  EXPECT_EQ(pw.total_send_bytes(), std::size_t(n - 1) * block);
  EXPECT_EQ(br.total_send_bytes(), std::size_t(n / 2) * block * 4);
  // Round counts drive progress sensitivity (Fig. 7).
  EXPECT_EQ(lin.num_rounds(), 1u);
  EXPECT_EQ(pw.num_rounds(), std::size_t(n));      // copy + n-1 exchanges
  EXPECT_EQ(br.num_rounds(), 5u);                  // rotate+4 steps
}

// ------------------------------------------------------- schedule oracle
//
// Every builder's schedule, fingerprinted over n = 1..40, every rank and
// every root, with null (cost-model) and real buffers.  The fingerprint
// covers round boundaries and each action's kind, peer, bytes, rail,
// dtype, op and buffer: null, an offset into the send or receive buffer,
// or schedule scratch.  The constants pin the schedules exactly, so a
// refactor of the builders must leave every one of them unchanged.

namespace {

constexpr int kOracleMaxRanks = 40;
constexpr std::size_t kOracleArena = 1 << 16;

class ScheduleFingerprint {
 public:
  ScheduleFingerprint()
      : sbuf_(kOracleArena), rbuf_(kOracleArena) {}

  /// Send/receive buffers: null for cost-model runs, else the arenas.
  [[nodiscard]] void* sbuf(bool real) { return real ? sbuf_.data() : nullptr; }
  [[nodiscard]] void* rbuf(bool real) { return real ? rbuf_.data() : nullptr; }

  void add(const nbc::Schedule& s) {
    mix(0x5c4ed01eULL);
    mix(s.num_rounds());
    for (std::size_t r = 0; r < s.num_rounds(); ++r) {
      mix(0x40a4dULL);
      mix(s.round(r).size());
      for (const nbc::Action& a : s.round(r)) {
        mix(static_cast<std::uint64_t>(a.kind));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.peer)));
        mix(a.bytes);
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(a.rail)));
        mix(static_cast<std::uint64_t>(a.dtype));
        mix(static_cast<std::uint64_t>(a.op));
        mix(where(a.src));
        mix(where(a.dst));
      }
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  // FNV-1a over the eight little-endian bytes of v.
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }

  // 0 = null, (offset << 2) | 1 = send arena, | 2 = receive arena,
  // 3 = anywhere else (schedule scratch).
  [[nodiscard]] std::uint64_t where(const void* p) const {
    if (p == nullptr) return 0;
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const auto in = [a](const std::vector<std::byte>& v) {
      const auto base = reinterpret_cast<std::uintptr_t>(v.data());
      return a >= base && a < base + v.size();
    };
    if (in(sbuf_)) {
      return ((a - reinterpret_cast<std::uintptr_t>(sbuf_.data())) << 2) | 1;
    }
    if (in(rbuf_)) {
      return ((a - reinterpret_cast<std::uintptr_t>(rbuf_.data())) << 2) | 2;
    }
    return 3;
  }

  std::vector<std::byte> sbuf_;
  std::vector<std::byte> rbuf_;
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Fold build(fp, n, me, real) over every n, rank and buffer mode.
template <class Build>
std::uint64_t fingerprint_all(Build build) {
  ScheduleFingerprint fp;
  for (int real = 0; real < 2; ++real) {
    for (int n = 1; n <= kOracleMaxRanks; ++n) {
      for (int me = 0; me < n; ++me) build(fp, n, me, real != 0);
    }
  }
  return fp.value();
}

/// As fingerprint_all, also over every root.
template <class Build>
std::uint64_t fingerprint_rooted(Build build) {
  return fingerprint_all([&](ScheduleFingerprint& fp, int n, int me,
                             bool real) {
    for (int root = 0; root < n; ++root) build(fp, n, me, root, real);
  });
}

/// Node layouts for the two-level builders: blocks of four ranks, ranks
/// dealt round-robin over three nodes, and a single node.
std::vector<std::vector<int>> oracle_layouts(int n) {
  std::vector<std::vector<int>> out(3, std::vector<int>(n));
  for (int r = 0; r < n; ++r) {
    out[0][r] = r / 4;
    out[1][r] = r % 3;
    out[2][r] = 0;
  }
  return out;
}

}  // namespace

TEST(ScheduleOracle, Alltoall) {
  constexpr std::size_t kBlock = 24;
  EXPECT_EQ(fingerprint_all([](ScheduleFingerprint& fp, int n, int me,
                               bool real) {
              fp.add(coll::build_ialltoall_linear(me, n, fp.sbuf(real),
                                                  fp.rbuf(real), kBlock));
              fp.add(coll::build_ialltoall_pairwise(me, n, fp.sbuf(real),
                                                    fp.rbuf(real), kBlock));
              fp.add(coll::build_ialltoall_bruck(me, n, fp.sbuf(real),
                                                 fp.rbuf(real), kBlock));
            }),
            0x574a254d91f850e1ULL);
}

TEST(ScheduleOracle, Allgather) {
  constexpr std::size_t kBlock = 24;
  EXPECT_EQ(fingerprint_all([](ScheduleFingerprint& fp, int n, int me,
                               bool real) {
              fp.add(coll::build_iallgather_linear(me, n, fp.sbuf(real),
                                                   fp.rbuf(real), kBlock));
              fp.add(coll::build_iallgather_ring(me, n, fp.sbuf(real),
                                                 fp.rbuf(real), kBlock));
              if (coll::is_pow2(n)) {
                fp.add(coll::build_iallgather_recursive_doubling(
                    me, n, fp.sbuf(real), fp.rbuf(real), kBlock));
              }
            }),
            0xf5599a6f1829b357ULL);
}

TEST(ScheduleOracle, Allreduce) {
  EXPECT_EQ(fingerprint_all([](ScheduleFingerprint& fp, int n, int me,
                               bool real) {
              for (const auto& [count, dtype, op] :
                   {std::tuple{std::size_t{13}, nbc::DType::F64,
                               mpi::ReduceOp::Sum},
                    std::tuple{std::size_t{5}, nbc::DType::I32,
                               mpi::ReduceOp::Max}}) {
                if (coll::is_pow2(n)) {
                  fp.add(coll::build_iallreduce_recursive_doubling(
                      me, n, fp.sbuf(real), fp.rbuf(real), count, dtype, op));
                }
                fp.add(coll::build_iallreduce_reduce_bcast(
                    me, n, fp.sbuf(real), fp.rbuf(real), count, dtype, op));
                fp.add(coll::build_iallreduce_ring(
                    me, n, fp.sbuf(real), fp.rbuf(real), count, dtype, op));
              }
            }),
            0xd02f9186a84c2b85ULL);
}

TEST(ScheduleOracle, Reduce) {
  EXPECT_EQ(fingerprint_rooted([](ScheduleFingerprint& fp, int n, int me,
                                  int root, bool real) {
              fp.add(coll::build_ireduce_binomial(
                  me, n, fp.sbuf(real), fp.rbuf(real), 13, nbc::DType::F64,
                  mpi::ReduceOp::Sum, root));
              for (std::size_t seg : {std::size_t{0}, std::size_t{4}}) {
                fp.add(coll::build_ireduce_chain(
                    me, n, fp.sbuf(real), fp.rbuf(real), 13, nbc::DType::I32,
                    mpi::ReduceOp::Max, root, seg));
              }
            }),
            0xe7b5bd5ab0e01a64ULL);
}

TEST(ScheduleOracle, Bcast) {
  EXPECT_EQ(fingerprint_rooted([](ScheduleFingerprint& fp, int n, int me,
                                  int root, bool real) {
              for (int fanout : {coll::kFanoutLinear, coll::kFanoutBinomial,
                                 1, 2, 3}) {
                for (std::size_t seg : {std::size_t{0}, std::size_t{32}}) {
                  fp.add(coll::build_ibcast(me, n, fp.rbuf(real), 100, root,
                                            fanout, seg));
                }
              }
            }),
            0x397453d0eb215839ULL);
}

TEST(ScheduleOracle, Scatter) {
  constexpr std::size_t kBytes = 100;
  const std::vector<net::Stripe> stripes{{0, 0, 40}, {1, 40, 60}};
  EXPECT_EQ(fingerprint_rooted([&](ScheduleFingerprint& fp, int n, int me,
                                   int root, bool real) {
              void* s = fp.sbuf(real);
              void* r = fp.rbuf(real);
              fp.add(coll::build_iscatter_linear(me, n, s, r, kBytes, root));
              fp.add(coll::build_iscatter_fan(me, n, s, r, kBytes, root, 1));
              fp.add(coll::build_iscatter_rail(me, n, s, r, kBytes, root, 2));
              fp.add(coll::build_iscatter_striped(me, n, s, r, kBytes, root,
                                                  stripes));
            }),
            0x3f7de1b2965e922cULL);
}

TEST(ScheduleOracle, TwoLevel) {
  EXPECT_EQ(fingerprint_rooted([](ScheduleFingerprint& fp, int n, int me,
                                  int root, bool real) {
              for (const std::vector<int>& node_of : oracle_layouts(n)) {
                fp.add(coll::build_ibcast_two_level(me, n, fp.rbuf(real), 100,
                                                    root, node_of));
                if (root != 0) continue;
                fp.add(coll::build_iallreduce_two_level(
                    me, n, fp.sbuf(real), fp.rbuf(real), 13, nbc::DType::F64,
                    mpi::ReduceOp::Sum, node_of));
              }
            }),
            0xc68baaae29a177e1ULL);
}

TEST(ScheduleOracle, Neighbor) {
  constexpr std::size_t kBlock = 16;
  EXPECT_EQ(fingerprint_all([](ScheduleFingerprint& fp, int n, int me,
                               bool real) {
              std::vector<coll::CartTopo> topos;
              for (bool periodic : {true, false}) {
                topos.push_back({{n}, periodic});
                for (int a = 2; a * a <= n; ++a) {
                  if (n % a == 0) {
                    topos.push_back({{a, n / a}, periodic});
                    break;
                  }
                }
              }
              for (const coll::CartTopo& t : topos) {
                fp.add(coll::build_ineighbor_all_at_once(
                    t, me, fp.sbuf(real), fp.rbuf(real), kBlock));
                fp.add(coll::build_ineighbor_dimension_ordered(
                    t, me, fp.sbuf(real), fp.rbuf(real), kBlock));
                fp.add(coll::build_ineighbor_even_odd(
                    t, me, fp.sbuf(real), fp.rbuf(real), kBlock));
              }
            }),
            0xa492e496f847ee05ULL);
}
