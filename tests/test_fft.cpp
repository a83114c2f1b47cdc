// FFT library: serial transforms against the O(n^2) reference, algebraic
// properties, and the distributed 3-D kernel (all patterns x back-ends)
// against a serial 3-D reference.

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <vector>

#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "mpi/world.hpp"
#include "net/platform.hpp"
#include "testing_util.hpp"

using namespace nbctune;
using fft::cplx;
namespace t = nbctune::testing;

namespace {

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(d(gen), d(gen));
  return v;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// Serial 3-D FFT of A[z][y][x] (n^3), dimension-wise.
std::vector<cplx> fft3d_serial(std::vector<cplx> a, int n) {
  // x direction
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y)
      fft::fft(a.data() + (std::size_t(z) * n + y) * n, n);
  // y direction
  std::vector<cplx> col(n);
  for (int z = 0; z < n; ++z)
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) col[y] = a[(std::size_t(z) * n + y) * n + x];
      fft::fft(col.data(), n);
      for (int y = 0; y < n; ++y) a[(std::size_t(z) * n + y) * n + x] = col[y];
    }
  // z direction
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      for (int z = 0; z < n; ++z) col[z] = a[(std::size_t(z) * n + y) * n + x];
      fft::fft(col.data(), n);
      for (int z = 0; z < n; ++z) a[(std::size_t(z) * n + y) * n + x] = col[z];
    }
  return a;
}

}  // namespace

// --------------------------------------------------------------- serial

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(PowersAndOdd, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 3, 5, 6,
                                           7, 12, 15, 100, 243));

TEST_P(FftSizes, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  auto sig = random_signal(n, unsigned(n));
  auto expect = fft::dft_reference(sig.data(), n);
  fft::fft(sig.data(), n);
  EXPECT_LT(max_err(sig, expect), 1e-9 * double(n)) << "n=" << n;
}

TEST_P(FftSizes, InverseRoundTrips) {
  const std::size_t n = GetParam();
  auto sig = random_signal(n, unsigned(n) + 17);
  auto orig = sig;
  fft::fft(sig.data(), n, false);
  fft::fft(sig.data(), n, true);
  EXPECT_LT(max_err(sig, orig), 1e-10 * double(n + 1));
}

TEST(Fft1d, Pow2RejectsOddSizes) {
  std::vector<cplx> v(6);
  EXPECT_THROW(fft::fft_pow2(v.data(), 6), std::invalid_argument);
}

TEST(Fft1d, Linearity) {
  const std::size_t n = 32;
  auto a = random_signal(n, 1), b = random_signal(n, 2);
  std::vector<cplx> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft::fft(a.data(), n);
  fft::fft(b.data(), n);
  fft::fft(sum.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-10);
  }
}

TEST(Fft1d, ParsevalHolds) {
  const std::size_t n = 128;
  auto sig = random_signal(n, 5);
  double time_energy = 0;
  for (const auto& x : sig) time_energy += std::norm(x);
  fft::fft(sig.data(), n);
  double freq_energy = 0;
  for (const auto& x : sig) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / double(n), time_energy, 1e-9 * time_energy);
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> v(16, cplx(0));
  v[0] = cplx(1);
  fft::fft(v.data(), 16);
  for (const auto& x : v) EXPECT_LT(std::abs(x - cplx(1)), 1e-12);
}

TEST(Fft1d, NextPow2) {
  EXPECT_EQ(fft::next_pow2(1), 1u);
  EXPECT_EQ(fft::next_pow2(2), 2u);
  EXPECT_EQ(fft::next_pow2(3), 4u);
  EXPECT_EQ(fft::next_pow2(1023), 1024u);
  EXPECT_EQ(fft::next_pow2(1025), 2048u);
}

// ---------------------------------------------------------- distributed

class Fft3dCorrectness
    : public ::testing::TestWithParam<std::tuple<fft::Pattern, fft::Backend, int>> {
};

static std::string fft3d_name(
    const ::testing::TestParamInfo<std::tuple<fft::Pattern, fft::Backend, int>>&
        info) {
  std::string s = fft::pattern_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  std::string b = fft::backend_name(std::get<1>(info.param));
  for (auto& c : b)
    if (c == '(' || c == ')') c = '_';
  return s + "_" + b + "_p" + std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fft3dCorrectness,
    ::testing::Combine(::testing::Values(fft::Pattern::Pipelined,
                                         fft::Pattern::Tiled,
                                         fft::Pattern::Windowed,
                                         fft::Pattern::WindowTiled),
                       ::testing::Values(fft::Backend::Blocking,
                                         fft::Backend::LibNBC,
                                         fft::Backend::Adcl),
                       ::testing::Values(2, 4)),
    fft3d_name);

TEST_P(Fft3dCorrectness, MatchesSerialReference) {
  const auto [pattern, backend, nprocs] = GetParam();
  const int n = 8;
  // Global input and its serial transform.
  auto global = random_signal(std::size_t(n) * n * n, 99);
  auto expect = fft3d_serial(global, n);

  const int planes = n / nprocs;
  const int width = n / nprocs;
  std::vector<std::vector<cplx>> got(nprocs);
  t::run_world(net::whale(), nprocs,
               [&, pattern = pattern, backend = backend](mpi::Ctx& ctx) {
                 fft::Fft3dOptions opt;
                 opt.n = n;
                 opt.pattern = pattern;
                 opt.backend = backend;
                 opt.real_math = true;
                 opt.tuning.tests_per_function = 1;
                 fft::Fft3d kernel(ctx, ctx.world().comm_world(), opt);
                 const int me = ctx.world_rank();
                 std::vector<cplx> local(std::size_t(planes) * n * n);
                 std::copy(global.begin() + std::size_t(me) * planes * n * n,
                           global.begin() +
                               std::size_t(me + 1) * planes * n * n,
                           local.begin());
                 kernel.set_local_input(std::move(local));
                 kernel.run_iteration();
                 got[me] = kernel.pencils();
               });
  for (int r = 0; r < nprocs; ++r) {
    for (int xl = 0; xl < width; ++xl) {
      const int x = r * width + xl;
      for (int y = 0; y < n; ++y) {
        for (int z = 0; z < n; ++z) {
          const cplx have = got[r][(std::size_t(xl) * n + y) * n + z];
          const cplx want = expect[(std::size_t(z) * n + y) * n + x];
          ASSERT_LT(std::abs(have - want), 1e-9)
              << "rank " << r << " x=" << x << " y=" << y << " z=" << z;
        }
      }
    }
  }
}

TEST(Fft3d, RepeatedIterationsKeepTuning) {
  // ADCL back-end across many iterations: the co-tuned selection decides
  // and subsequent iterations use the winner.
  std::string winner;
  int iters = 0;
  t::run_world(net::whale(), 4, [&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = 16;
    opt.pattern = fft::Pattern::WindowTiled;
    opt.backend = fft::Backend::Adcl;
    opt.tuning.tests_per_function = 2;
    fft::Fft3d kernel(ctx, ctx.world().comm_world(), opt);
    for (int it = 0; it < 8; ++it) kernel.run_iteration();
    if (ctx.world_rank() == 0 && kernel.selection()->decided()) {
      winner =
          kernel.selection()->function_set().function(kernel.selection()->winner()).name;
      iters = kernel.selection()->iterations();
    }
  });
  EXPECT_FALSE(winner.empty());
  EXPECT_EQ(iters, 8);
}

TEST(Fft3d, GeometryAndValidation) {
  t::run_world(net::whale(), 4, [&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = 16;
    opt.pattern = fft::Pattern::WindowTiled;  // window 3, tile 10
    opt.backend = fft::Backend::LibNBC;
    fft::Fft3d k(ctx, ctx.world().comm_world(), opt);
    EXPECT_EQ(k.planes_per_rank(), 4);
    EXPECT_EQ(k.pencil_width(), 4);
    // tile=10 capped at 4 planes, then reduced to divide evenly.
    EXPECT_EQ(k.tile_planes(), 4);
    EXPECT_EQ(k.num_tiles(), 1);
    EXPECT_EQ(k.window(), 1);  // capped at tiles
    EXPECT_EQ(k.block_bytes(), std::size_t(4) * 16 * 4 * sizeof(cplx));
    // N not divisible by P:
    fft::Fft3dOptions bad = opt;
    bad.n = 18;
    EXPECT_THROW(fft::Fft3d(ctx, ctx.world().comm_world(), bad),
                 std::invalid_argument);
    // set_local_input misuse:
    EXPECT_THROW(k.set_local_input({}), std::logic_error);
    fft::Fft3dOptions real = opt;
    real.real_math = true;
    fft::Fft3d kr(ctx, ctx.world().comm_world(), real);
    EXPECT_THROW(kr.set_local_input(std::vector<cplx>(3)),
                 std::invalid_argument);
  });
}

TEST(Fft3d, PatternParamsMatchPaper) {
  EXPECT_EQ(fft::pattern_params(fft::Pattern::Pipelined),
            (std::pair<int, int>{2, 1}));
  EXPECT_EQ(fft::pattern_params(fft::Pattern::Tiled),
            (std::pair<int, int>{2, 10}));
  EXPECT_EQ(fft::pattern_params(fft::Pattern::Windowed),
            (std::pair<int, int>{3, 1}));
  EXPECT_EQ(fft::pattern_params(fft::Pattern::WindowTiled),
            (std::pair<int, int>{3, 10}));
}

TEST(Fft3d, CostModelModeMovesNoData) {
  // In cost-model mode (real_math = false) the kernel must run without
  // allocating grid buffers and still exchange the right message sizes.
  trace::Tracer tr("fft cost model");
  t::InstallTracer install(tr);
  sim::Engine engine(1);
  net::Machine machine(net::whale());
  mpi::WorldOptions wopts;
  wopts.nprocs = 4;
  wopts.noise_scale = 0;
  mpi::World world(engine, machine, wopts);
  world.launch([&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = 64;
    opt.pattern = fft::Pattern::Pipelined;
    opt.backend = fft::Backend::LibNBC;
    fft::Fft3d k(ctx, ctx.world().comm_world(), opt);
    k.run_iteration();
  });
  engine.run();
  // 16 tiles (64/4 planes, tile 1) x 4 ranks x 3 peers (linear alltoall).
  EXPECT_EQ(t::data_msgs(tr), 16u * 4u * 3u);
}
