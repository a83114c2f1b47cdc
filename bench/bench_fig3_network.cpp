// Figure 3: influence of the network interconnect — the same Ialltoall
// scenario (32 processes, 128 KB per pair, 50 ms compute/iteration, 5
// progress calls) on whale over InfiniBand vs whale over Gigabit Ethernet.
//
// Expected shape (paper §IV-A-a): the linear algorithm is the best choice
// on InfiniBand (NIC-driven bulk overlaps once posted) and the worst (or
// near-worst) choice over TCP, where every bulk byte needs the CPU and
// 31 concurrent flows congest the link.

#include "bench_util.hpp"
#include "net/platform.hpp"

using namespace nbctune;
using namespace nbctune::harness;

int main(int argc, char** argv) {
  bench::Driver drv("fig3", argc, argv);
  for (const auto& platform : {net::whale(), net::whale_tcp()}) {
    MicroScenario s;
    s.platform = platform;
    s.nprocs = 32;
    s.op = OpKind::Ialltoall;
    s.bytes = 128 * 1024;
    s.compute_per_iter = 50e-3;
    s.progress_calls = 5;
    s.iterations = drv.full() ? 24 : 8;
    s.noise_scale = 0.0;  // systematic comparison: noise off
    drv.configure(s);
    bench::print_fixed_comparison(
        "Fig 3: network influence — Ialltoall implementations on " +
            platform.name,
        s, drv.pool());
  }
  return 0;
}
