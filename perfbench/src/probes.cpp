// Layer probes: one public call of a layer in a tight loop on a fixed
// small input, reported as the median unit cost of five repetitions.
// Also the real-math FFT check run outside the timed phase of fft_app.

#include <cmath>
#include <complex>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "adcl/filtering.hpp"
#include "adcl/functionsets.hpp"
#include "adcl/selection.hpp"
#include "bench.hpp"
#include "coll/ialltoall.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "mpi/world.hpp"
#include "nbc/handle.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace nbctune;

namespace {

/// Median over five repetitions of `body`'s seconds per unit.
double unit_cost(const std::function<double()>& body) {
  std::vector<double> v;
  for (int r = 0; r < 5; ++r) v.push_back(body());
  return median(v);
}

/// Host seconds per message of a 2-rank ping-pong across whale nodes;
/// null buffers keep payload copies out of the protocol cost.
double pingpong(std::size_t bytes, int rounds) {
  sim::Engine eng;
  net::Machine machine(net::whale());
  mpi::WorldOptions o;
  o.nprocs = 9;
  o.noise_scale = 0;
  mpi::World world(eng, machine, o);
  world.launch([&](mpi::Ctx& ctx) {
    const auto comm = ctx.world().comm_world();
    if (ctx.world_rank() == 0) {
      for (int i = 0; i < rounds; ++i) {
        ctx.send(comm, nullptr, bytes, 8, 0);
        ctx.recv(comm, nullptr, bytes, 8, 0);
      }
    } else if (ctx.world_rank() == 8) {
      for (int i = 0; i < rounds; ++i) {
        ctx.recv(comm, nullptr, bytes, 0, 0);
        ctx.send(comm, nullptr, bytes, 0, 0);
      }
    }
  });
  const double t = now_s();
  eng.run();
  return (now_s() - t) / (2.0 * rounds);
}

}  // namespace

std::map<std::string, double> run_probes() {
  std::map<std::string, double> out;
  out["sim.event_ns"] = 1e9 * unit_cost([] {
    constexpr int n = 65536;
    sim::Engine eng;
    const double t = now_s();
    for (int i = 0; i < n; ++i) eng.schedule_at(static_cast<double>(i), [] {});
    eng.run();
    return (now_s() - t) / n;
  });
  out["sim.switch_ns"] = 1e9 * unit_cost([] {
    constexpr int n = 100000;
    bool stop = false;
    sim::Fiber f([&] {
      while (!stop) sim::Fiber::current()->yield();
    });
    const double t = now_s();
    for (int i = 0; i < n; ++i) f.resume();  // one switch in, one out
    const double dt = now_s() - t;
    stop = true;
    f.resume();
    return dt / (2.0 * n);
  });
  out["mpi.eager_msg_ns"] = 1e9 * unit_cost([] { return pingpong(64, 2000); });
  out["mpi.rndv_msg_ns"] =
      1e9 * unit_cost([] { return pingpong(256 * 1024, 2000); });
  out["nbc.round_ns"] = 1e9 * unit_cost([] {
    constexpr int np = 8, ops = 200;
    sim::Engine eng;
    net::Machine machine(net::whale());
    mpi::WorldOptions o;
    o.nprocs = np;
    o.noise_scale = 0;
    mpi::World world(eng, machine, o);
    std::size_t rounds = 0;
    world.launch([&](mpi::Ctx& ctx) {
      const nbc::Schedule s = coll::build_ialltoall_pairwise(
          ctx.world_rank(), np, nullptr, nullptr, 64);
      if (ctx.world_rank() == 0) rounds = s.num_rounds();
      for (int i = 0; i < ops; ++i) {
        nbc::Handle h(ctx, ctx.world().comm_world(), &s, ctx.alloc_nbc_tag());
        h.start();
        h.wait();
      }
    });
    const double t = now_s();
    eng.run();
    return (now_s() - t) / double(np * ops * std::max<std::size_t>(1, rounds));
  });
  out["coll.build_us"] = 1e6 * unit_cost([] {
    constexpr int n = 2000;
    std::size_t sink = 0;
    const double t = now_s();
    for (int i = 0; i < n; ++i) {
      sink += coll::build_ialltoall_linear(i % 128, 128, nullptr, nullptr, 1024)
                  .num_rounds();
    }
    const double dt = now_s() - t;
    return sink > 0 ? dt / n : dt;
  });
  out["adcl.step_ns"] = 1e9 * unit_cost([] {
    // Score one batch of four samples, then advance the brute-force
    // policy over the 21-member Ibcast set until it decides.
    auto fset = adcl::make_ibcast_functionset();
    const std::vector<double> batch = {1.0, 1.01, 0.99, 1.3};
    std::size_t steps = 0;
    const double t = now_s();
    for (int rep = 0; rep < 2000; ++rep) {
      auto policy = adcl::make_policy(adcl::PolicyKind::BruteForce, *fset);
      int f = policy->first();
      while (f >= 0) {
        const double score =
            adcl::robust_score(batch, adcl::FilterKind::Iqr) + 0.01 * f;
        f = policy->next(f, score);
        ++steps;
      }
    }
    return (now_s() - t) / double(steps);
  });
  out["trace.emit_ns"] = 1e9 * unit_cost([] {
    constexpr int n = 200000;
    trace::Tracer tracer("probe");
    trace::Tracer* prev = trace::set_current(&tracer);
    const double t = now_s();
    for (int i = 0; i < n; ++i) {
      trace::instant(i * 1e-9, i & 7, trace::Cat::Msg, "probe", "bytes", 64);
    }
    const double dt = now_s() - t;
    trace::set_current(prev);
    return dt / n;
  });
  return out;
}

double fft_real_math_error() {
  constexpr int n = 8, nprocs = 4;
  using fft::cplx;
  std::vector<cplx> global(std::size_t(n) * n * n);
  std::uint64_t st = 99;
  for (cplx& c : global) {
    c = cplx(double(mix(st) % 2001) / 1000.0 - 1.0,
             double(mix(st) % 2001) / 1000.0 - 1.0);
  }
  // Serial reference: 1-D transforms along x, y, then z of A[z][y][x].
  std::vector<cplx> ref = global;
  std::vector<cplx> col(n);
  auto at = [&](int z, int y, int x) -> cplx& {
    return ref[(std::size_t(z) * n + y) * n + x];
  };
  for (int z = 0; z < n; ++z)
    for (int y = 0; y < n; ++y) fft::fft(&at(z, y, 0), n);
  for (int z = 0; z < n; ++z)
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) col[y] = at(z, y, x);
      fft::fft(col.data(), n);
      for (int y = 0; y < n; ++y) at(z, y, x) = col[y];
    }
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      for (int z = 0; z < n; ++z) col[z] = at(z, y, x);
      fft::fft(col.data(), n);
      for (int z = 0; z < n; ++z) at(z, y, x) = col[z];
    }

  const int planes = n / nprocs;
  std::vector<std::vector<cplx>> got(nprocs);
  sim::Engine eng(1);
  net::Machine machine(net::whale());
  mpi::WorldOptions o;
  o.nprocs = nprocs;
  o.noise_scale = 0;
  mpi::World world(eng, machine, o);
  world.launch([&](mpi::Ctx& ctx) {
    fft::Fft3dOptions opt;
    opt.n = n;
    opt.pattern = fft::Pattern::WindowTiled;
    opt.backend = fft::Backend::Adcl;
    opt.real_math = true;
    opt.tuning.tests_per_function = 1;
    fft::Fft3d kernel(ctx, ctx.world().comm_world(), opt);
    const int me = ctx.world_rank();
    kernel.set_local_input(std::vector<cplx>(
        global.begin() + std::ptrdiff_t(me) * planes * n * n,
        global.begin() + std::ptrdiff_t(me + 1) * planes * n * n));
    kernel.run_iteration();
    got[me] = kernel.pencils();
  });
  eng.run();
  double err = 0;
  const int width = n / nprocs;
  for (int r = 0; r < nprocs; ++r) {
    if (got[r].size() != std::size_t(width) * n * n) return INFINITY;
    for (int xl = 0; xl < width; ++xl)
      for (int y = 0; y < n; ++y)
        for (int z = 0; z < n; ++z) {
          const cplx have = got[r][(std::size_t(xl) * n + y) * n + z];
          err = std::max(err, std::abs(have - at(z, y, r * width + xl)));
        }
  }
  return err;
}

}  // namespace perfbench
