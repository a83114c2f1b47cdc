#pragma once

// Shared helpers for tests: spin up a world, run a program on every rank,
// and return per-rank results.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "mpi/world.hpp"
#include "net/machine.hpp"
#include "net/platform.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace nbctune::testing {

struct RunResult {
  double end_time = 0.0;                 // simulated completion time
  std::vector<double> rank_end_times;    // per-rank program end
};

/// Run `program` on `nprocs` ranks of `platform`; noise disabled by
/// default so cost assertions are exact.
inline RunResult run_world(const net::Platform& platform, int nprocs,
                           const std::function<void(mpi::Ctx&)>& program,
                           double noise_scale = 0.0,
                           std::uint64_t seed = 1) {
  sim::Engine engine(seed);
  net::Machine machine(platform);
  mpi::WorldOptions opts;
  opts.nprocs = nprocs;
  opts.noise_scale = noise_scale;
  opts.seed = seed;
  mpi::World world(engine, machine, opts);
  RunResult result;
  result.rank_end_times.resize(nprocs, 0.0);
  world.launch([&](mpi::Ctx& ctx) {
    program(ctx);
    result.rank_end_times[ctx.world_rank()] = ctx.now();
  });
  engine.run();
  result.end_time = engine.now();
  return result;
}

/// Installs a tracer on this thread for the guard's lifetime.
class InstallTracer {
 public:
  explicit InstallTracer(trace::Tracer& tr) : prev_(trace::set_current(&tr)) {}
  ~InstallTracer() { trace::set_current(prev_); }
  InstallTracer(const InstallTracer&) = delete;
  InstallTracer& operator=(const InstallTracer&) = delete;

 private:
  trace::Tracer* prev_;
};

/// Data messages `tr` counted: eager payloads, NIC bulks and CPU-pushed
/// bulk chunks.
inline std::uint64_t data_msgs(const trace::Tracer& tr) {
  return tr.counter(trace::Ctr::MsgsEager) +
         tr.counter(trace::Ctr::MsgsNicBulks) +
         tr.counter(trace::Ctr::MsgsBulkChunks);
}

/// Control messages `tr` counted: RTS, CTS and acknowledgements.
inline std::uint64_t ctrl_msgs(const trace::Tracer& tr) {
  return tr.counter(trace::Ctr::MsgsRts) + tr.counter(trace::Ctr::MsgsCts) +
         tr.counter(trace::Ctr::MsgsAcks);
}

/// `platform` with one core per node: every rank gets a node of its own,
/// so all traffic of a small world is inter-node (fault injection, acks
/// and retransmits only act there).
inline net::Platform one_rank_per_node(net::Platform platform) {
  platform.cores_per_node = 1;
  platform.sockets_per_node = 1;
  return platform;
}

/// Deterministic per-(rank, index) payload byte for data-integrity checks.
inline std::byte pattern_byte(int rank, std::size_t i) {
  return static_cast<std::byte>((rank * 131 + i * 7 + 13) & 0xff);
}

inline std::vector<std::byte> make_pattern(int rank, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = pattern_byte(rank, i);
  return v;
}

}  // namespace nbctune::testing
