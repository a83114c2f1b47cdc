// Mega-scale execution sweep: ranks-vs-wall-clock/peak-memory trajectory
// of the fiberless (machine-mode) execution path on the synthetic `mega`
// platform (4096 nodes x 32 cores = 131072 ranks).
//
// Fiber mode allocates a fiber stack per rank (256 KiB default), so a
// 100k-rank world needs ~32 GB of stacks before a single message moves.
// Machine mode runs each rank as a flat state machine inside the World's
// contiguous arenas; this sweep demonstrates bounded memory up to the
// full 131072 ranks and writes the trajectory to BENCH_scale.json.
//
// Points run in ascending rank order, machine mode first: the process RSS
// high-water mark (VmHWM) is monotonic, so each machine point's reading
// is its own peak.  The trailing small-scale fiber points are for
// wall-clock comparison; their memory is reported as the World arena plus
// the fiber stacks they allocate (their VmHWM is masked by the larger
// machine runs).
//
//   bench_scale_sweep [--full] [--out FILE] [--max-ranks N]
//
// --full doubles iterations; --max-ranks caps the sweep (CI smoke boxes
// the runtime with --max-ranks 131072 and a tiny iteration budget).

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/machine_runner.hpp"
#include "net/platform.hpp"
#include "sim/fiber.hpp"

using namespace nbctune;

namespace {

/// VmHWM from /proc/self/status in KiB (0 if unavailable).
std::size_t rss_high_water_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::size_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

enum class Op { Ibcast, Iallreduce };

struct Point {
  Op op;
  harness::ExecMode exec;
  int nprocs;
  std::string impl;
  double loop_time = 0.0;   // simulated seconds
  double wall_s = 0.0;      // host seconds for the whole point
  std::size_t arena_bytes = 0;
  std::size_t fiber_stack_bytes = 0;  // fiber mode: nprocs * stack
  std::size_t rss_hwm_kb = 0;
};

struct Shape {
  int iterations;
  double compute_per_iter = 100e-6;
  int progress_calls = 2;
  std::size_t bcast_bytes = 1024;
  std::size_t allreduce_count = 256;  // doubles
};

/// One machine-mode point, driven through exec::MachineRunner directly so
/// the sweep can read the World arena footprint (iallreduce has no
/// MicroScenario op kind; both ops take the same path here).
Point run_machine_point(Op op, int nprocs, const Shape& shape) {
  Point pt{op, harness::ExecMode::Machine, nprocs, "", 0, 0, 0, 0, 0};
  const auto t_wall0 = std::chrono::steady_clock::now();

  sim::Engine engine(/*seed=*/7);
  net::Machine machine(net::mega());
  mpi::WorldOptions wopts;
  wopts.nprocs = nprocs;
  wopts.seed = 7;
  wopts.noise_scale = 0.0;
  mpi::World world(engine, machine, wopts);

  auto fset = op == Op::Ibcast ? adcl::make_ibcast_functionset()
                               : adcl::make_iallreduce_functionset();
  // Bcast: binomial tree (the 32k segment size is moot at 1 KiB payloads).
  const int pinned = fset->find_by_name(op == Op::Ibcast
                                            ? "binomial/seg32k"
                                            : "recursive-doubling");
  if (pinned < 0) throw std::runtime_error("scale: pinned impl not found");
  pt.impl = fset->function(pinned).name;

  exec::MachineSpec spec;
  spec.compute_per_iter = shape.compute_per_iter;
  spec.iterations = shape.iterations;
  spec.progress_calls = shape.progress_calls;
  spec.make_request = [&](mpi::Ctx& ctx, std::vector<std::byte>&,
                          std::vector<std::byte>&) {
    adcl::OpArgs args;
    args.comm = ctx.world().comm_world();
    if (op == Op::Ibcast) {
      args.bytes = shape.bcast_bytes;  // root 0, no payload buffers
    } else {
      args.count = shape.allreduce_count;
      args.dtype = nbc::DType::F64;
    }
    auto req = adcl::request_create(ctx, fset, std::move(args), {});
    req->selection().force_winner(pinned);
    return req;
  };

  exec::MachineRunner runner(world, std::move(spec));
  runner.start();
  engine.run();
  runner.check_finished();

  pt.loop_time = runner.outcome().loop_time;
  pt.arena_bytes = world.arena_bytes() + runner.arena_bytes();
  pt.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_wall0)
                  .count();
  pt.rss_hwm_kb = rss_high_water_kb();
  return pt;
}

/// A small-scale fiber-mode comparison point through the harness.
Point run_fiber_point(Op op, int nprocs, const Shape& shape) {
  Point pt{op, harness::ExecMode::Fiber, nprocs, "", 0, 0, 0, 0, 0};
  const auto t_wall0 = std::chrono::steady_clock::now();
  harness::MicroScenario s;
  s.platform = net::mega();
  s.nprocs = nprocs;
  s.op = harness::OpKind::Ibcast;  // fiber comparison: bcast only
  s.bytes = shape.bcast_bytes;
  s.compute_per_iter = shape.compute_per_iter;
  s.iterations = shape.iterations;
  s.progress_calls = shape.progress_calls;
  s.seed = 7;
  s.noise_scale = 0.0;
  auto fset = harness::scenario_functionset(s);
  const int pinned = fset->find_by_name("binomial/seg32k");
  const harness::RunOutcome out = harness::run_fixed(s, pinned);
  pt.impl = out.impl;
  pt.loop_time = out.loop_time;
  pt.fiber_stack_bytes =
      static_cast<std::size_t>(nprocs) * sim::default_fiber_stack_bytes();
  pt.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_wall0)
                  .count();
  pt.rss_hwm_kb = rss_high_water_kb();
  return pt;
}

const char* op_str(Op op) {
  return op == Op::Ibcast ? "ibcast" : "iallreduce";
}

void write_json(std::ostream& os, const std::vector<Point>& points,
                const Shape& shape) {
  os << "{\n";
  os << "  \"bench\": \"scale_sweep\",\n";
  os << "  \"platform\": \"mega\",\n";
  os << "  \"iterations\": " << shape.iterations << ",\n";
  os << "  \"compute_per_iter_s\": " << shape.compute_per_iter << ",\n";
  os << "  \"progress_calls\": " << shape.progress_calls << ",\n";
  os << "  \"rss_note\": \"rss_hwm_kb is the process VmHWM (monotonic); "
        "machine points run first in ascending rank order, so each reading "
        "is that point's own peak\",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"op\": \"" << op_str(p.op) << "\", \"exec\": \""
       << harness::exec_name(p.exec) << "\", \"nprocs\": " << p.nprocs
       << ", \"impl\": \"" << p.impl << "\", \"loop_time_s\": " << p.loop_time
       << ", \"wall_s\": " << p.wall_s << ", \"arena_bytes\": " << p.arena_bytes
       << ", \"fiber_stack_bytes\": " << p.fiber_stack_bytes
       << ", \"rss_hwm_kb\": " << p.rss_hwm_kb << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver drv("scale", argc, argv);
  std::string out_path = "BENCH_scale.json";
  int max_ranks = 131072;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--max-ranks") == 0 && i + 1 < argc) {
      max_ranks = std::atoi(argv[++i]);
    }
  }

  Shape shape;
  shape.iterations = drv.full() ? 4 : 2;

  std::vector<Point> points;
  const auto timer = drv.timer();

  // Machine mode, ascending (see the VmHWM note above).  Iallreduce is
  // capped at 32768: recursive doubling needs a power-of-two world and the
  // fold work per rank makes it the costlier op.
  for (int n : {1024, 4096, 16384, 32768, 65536, 131072}) {
    if (n > max_ranks) break;
    points.push_back(run_machine_point(Op::Ibcast, n, shape));
    std::cerr << "[scale] ibcast machine np" << n << ": wall "
              << points.back().wall_s << " s, rss "
              << points.back().rss_hwm_kb << " KiB\n";
    if (n <= 32768) {
      points.push_back(run_machine_point(Op::Iallreduce, n, shape));
      std::cerr << "[scale] iallreduce machine np" << n << ": wall "
                << points.back().wall_s << " s, rss "
                << points.back().rss_hwm_kb << " KiB\n";
    }
  }

  // Fiber comparison at small scale (stacks: nprocs x 256 KiB).
  for (int n : {256, 1024}) {
    if (n > max_ranks) break;
    points.push_back(run_fiber_point(Op::Ibcast, n, shape));
    std::cerr << "[scale] ibcast fiber np" << n << ": wall "
              << points.back().wall_s << " s\n";
  }

  harness::banner("Mega-scale sweep (machine mode, platform=mega)");
  harness::Table t({"op", "exec", "nprocs", "impl", "loop_time[s]", "wall[s]",
                    "arena[MB]", "rss_hwm[MB]"});
  for (const Point& p : points) {
    t.add_row({op_str(p.op), harness::exec_name(p.exec),
               std::to_string(p.nprocs), p.impl,
               harness::Table::num(p.loop_time),
               harness::Table::num(p.wall_s, 2),
               harness::Table::num(
                   static_cast<double>(p.arena_bytes + p.fiber_stack_bytes) /
                       (1024.0 * 1024.0),
                   1),
               harness::Table::num(static_cast<double>(p.rss_hwm_kb) / 1024.0,
                                   1)});
  }
  t.print();

  std::ofstream os(out_path);
  write_json(os, points, shape);
  std::cerr << "[scale] " << points.size() << " point(s) -> " << out_path
            << "\n";
  return 0;
}
