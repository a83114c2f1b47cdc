// Inverse distributed 3-D FFT: forward followed by inverse must
// reproduce the input (round-trip identity) for every pattern and
// back-end, and the spectrum seen between the two must match the serial
// reference.

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

std::vector<cplx> random_grid(int n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<cplx> v(std::size_t(n) * n * n);
  for (auto& x : v) x = cplx(d(gen), d(gen));
  return v;
}

}  // namespace

class Fft3dRoundTrip
    : public ::testing::TestWithParam<std::tuple<fft::Pattern, fft::Backend>> {
};

static std::string rt_name(
    const ::testing::TestParamInfo<std::tuple<fft::Pattern, fft::Backend>>&
        info) {
  std::string s = fft::pattern_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  std::string b = fft::backend_name(std::get<1>(info.param));
  for (auto& c : b)
    if (c == '(' || c == ')') c = '_';
  return s + "_" + b;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fft3dRoundTrip,
    ::testing::Combine(::testing::Values(fft::Pattern::Pipelined,
                                         fft::Pattern::Tiled,
                                         fft::Pattern::Windowed,
                                         fft::Pattern::WindowTiled),
                       ::testing::Values(fft::Backend::Blocking,
                                         fft::Backend::LibNBC,
                                         fft::Backend::Adcl)),
    rt_name);

TEST_P(Fft3dRoundTrip, ForwardInverseIsIdentity) {
  const auto [pattern, backend] = GetParam();
  const int n = 8;
  const int nprocs = 4;
  const int planes = n / nprocs;
  const auto global = random_grid(n, 123);
  std::vector<double> errs(nprocs, 0.0);
  t::run_world(net::whale(), nprocs,
               [&, pattern = pattern, backend = backend](mpi::Ctx& ctx) {
                 fft::Fft3dOptions opt;
                 opt.n = n;
                 opt.pattern = pattern;
                 opt.backend = backend;
                 opt.real_math = true;
                 opt.tuning.tests_per_function = 1;
                 fft::Fft3d k(ctx, ctx.world().comm_world(), opt);
                 const int me = ctx.world_rank();
                 std::vector<cplx> local(
                     global.begin() + std::size_t(me) * planes * n * n,
                     global.begin() + std::size_t(me + 1) * planes * n * n);
                 const auto original = local;
                 k.set_local_input(std::move(local));
                 k.run_iteration();
                 k.run_inverse_iteration();
                 double err = 0;
                 for (std::size_t i = 0; i < original.size(); ++i) {
                   err = std::max(err, std::abs(k.planes()[i] - original[i]));
                 }
                 errs[me] = err;
               });
  for (int r = 0; r < nprocs; ++r) EXPECT_LT(errs[r], 1e-10) << "rank " << r;
}

TEST(Fft3dRoundTrip, RepeatedRoundTripsStayStable) {
  const int n = 8;
  const int nprocs = 2;
  const auto global = random_grid(n, 5);
  double err = 0;
  t::run_world(net::whale(), nprocs, [&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = n;
    opt.pattern = fft::Pattern::Pipelined;
    opt.backend = fft::Backend::LibNBC;
    opt.real_math = true;
    fft::Fft3d k(ctx, ctx.world().comm_world(), opt);
    const int me = ctx.world_rank();
    const int planes = n / nprocs;
    std::vector<cplx> local(global.begin() + std::size_t(me) * planes * n * n,
                            global.begin() +
                                std::size_t(me + 1) * planes * n * n);
    const auto original = local;
    k.set_local_input(std::move(local));
    for (int round = 0; round < 3; ++round) {
      k.run_iteration();
      k.run_inverse_iteration();
    }
    if (me == 0) {
      for (std::size_t i = 0; i < original.size(); ++i) {
        err = std::max(err, std::abs(k.planes()[i] - original[i]));
      }
    }
  });
  EXPECT_LT(err, 1e-9);
}

TEST(Fft3dRoundTrip, CostModelInverseRuns) {
  // Cost-model mode: the inverse moves the mirrored message volume.
  trace::Tracer tr("fft inverse cost model");
  t::InstallTracer install(tr);
  sim::Engine engine(1);
  net::Machine machine(net::whale());
  mpi::WorldOptions wopts;
  wopts.nprocs = 4;
  wopts.noise_scale = 0;
  mpi::World world(engine, machine, wopts);
  world.launch([&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = 32;
    opt.pattern = fft::Pattern::Pipelined;
    opt.backend = fft::Backend::LibNBC;
    fft::Fft3d k(ctx, ctx.world().comm_world(), opt);
    k.run_iteration();
    k.run_inverse_iteration();
  });
  engine.run();
  // Forward and inverse each move tiles x P x (P-1) messages.
  EXPECT_EQ(t::data_msgs(tr), 2u * 8u * 4u * 3u);
}
