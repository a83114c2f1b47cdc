// Mega-scale sweep: ranks-vs-wall-clock/peak-memory trajectory of pinned
// collective loops on the synthetic `mega` platform (4096 nodes x 32 cores
// = 131072 ranks).
//
// Every point is an ordinary harness::run_fixed scenario: one fiber per
// rank, with 16 KiB stacks.  The pinned loop fits the 16 KiB floor, and the
// 256 KiB default would reserve 32 GiB of stacks at 131072 ranks.  Ibcast
// (binomial) climbs to 131072 ranks; Iallreduce (recursive doubling, which
// needs a power-of-two world) stops at 32768, as its fold work per rank
// makes it the costlier op.  The trajectory is written to BENCH_scale.json.
//
// Points run in ascending rank order: the process RSS high-water mark
// (VmHWM) is monotonic, so each reading is that point's own peak as long as
// peaks grow along the sweep, and the largest point's reading always is.
// The heap is trimmed between points so that a point's peak does not
// include pages an earlier point left resident.
//
//   bench_scale_sweep [--full] [--out FILE] [--max-ranks N]
//
// --full doubles iterations; --max-ranks caps the sweep.

#include <malloc.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/platform.hpp"

using namespace nbctune;
using harness::OpKind;

namespace {

/// Per-rank fiber stack for every point (the sim's floor).
constexpr std::size_t kStackBytes = 16 * 1024;

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

struct Point {
  OpKind op;
  int nprocs;
  std::string impl;
  double loop_time = 0.0;  // simulated seconds
  double wall_s = 0.0;     // host seconds for the whole point
  std::size_t rss_hwm_kb = 0;
};

/// The loop every point runs; only the op and world size vary.
harness::MicroScenario scale_scenario(OpKind op, int nprocs, bool full) {
  harness::MicroScenario s;
  s.platform = net::mega();
  s.nprocs = nprocs;
  s.op = op;
  // Ibcast: 1 KiB (the 32k segment size is moot); Iallreduce: 256 doubles.
  s.bytes = op == OpKind::Ibcast ? 1024 : 256 * sizeof(double);
  s.compute_per_iter = 100e-6;
  s.iterations = full ? 4 : 2;
  s.progress_calls = 2;
  s.seed = 7;
  s.noise_scale = 0.0;
  s.fiber_stack_bytes = kStackBytes;
  return s;
}

Point run_point(OpKind op, int nprocs, bool full) {
  const harness::MicroScenario s = scale_scenario(op, nprocs, full);
  const int pinned = harness::scenario_functionset(s)->find_by_name(
      op == OpKind::Ibcast ? "binomial/seg32k" : "recursive-doubling");
  if (pinned < 0) throw std::runtime_error("scale: pinned impl not found");
  const auto t0 = std::chrono::steady_clock::now();
  const harness::RunOutcome out = harness::run_fixed(s, pinned);
  Point pt{op, nprocs, out.impl, out.loop_time};
  pt.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  pt.rss_hwm_kb = rss_high_water_kb();
  // Hand the finished world's heap back to the OS: reused pages are
  // resident in full, so without this the next point's peak would count
  // the untouched parts of its stacks too.
  malloc_trim(0);
  std::cerr << "[scale] " << harness::op_name(op) << " np" << nprocs
            << ": wall " << pt.wall_s << " s, rss " << pt.rss_hwm_kb
            << " KiB\n";
  return pt;
}

void write_json(std::ostream& os, const std::vector<Point>& points,
                const harness::MicroScenario& shape) {
  os << "{\n";
  os << "  \"bench\": \"scale_sweep\",\n";
  os << "  \"platform\": \"mega\",\n";
  os << "  \"iterations\": " << shape.iterations << ",\n";
  os << "  \"compute_per_iter_s\": " << shape.compute_per_iter << ",\n";
  os << "  \"progress_calls\": " << shape.progress_calls << ",\n";
  os << "  \"fiber_stack_bytes\": " << kStackBytes << ",\n";
  os << "  \"rss_note\": \"rss_hwm_kb is the process VmHWM (monotonic); "
        "points run in ascending rank order with the heap trimmed between "
        "them, so each reading is that point's own peak while peaks grow "
        "along the sweep\",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "    {\"op\": \"" << harness::op_name(p.op)
       << "\", \"nprocs\": " << p.nprocs << ", \"impl\": \"" << p.impl
       << "\", \"loop_time_s\": " << p.loop_time
       << ", \"wall_s\": " << p.wall_s << ", \"rss_hwm_kb\": " << p.rss_hwm_kb
       << "}" << (i + 1 < points.size() ? "," : "") << "\n";
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
      max_ranks = obs::parse_flag("--max-ranks", argv[++i], 1);
    }
  }

  std::vector<Point> points;
  {
    const auto timer = drv.timer();
    for (int n : {1024, 4096, 16384, 32768, 65536, 131072}) {
      if (n > max_ranks) break;
      points.push_back(run_point(OpKind::Ibcast, n, drv.full()));
      if (n <= 32768) {
        points.push_back(run_point(OpKind::Iallreduce, n, drv.full()));
      }
    }
  }

  harness::banner("Mega-scale sweep (platform=mega, 16 KiB fiber stacks)");
  harness::Table t({"op", "nprocs", "impl", "loop_time[s]", "wall[s]",
                    "rss_hwm[MiB]", "rss/rank[KiB]"});
  for (const Point& p : points) {
    const double rss_kb = static_cast<double>(p.rss_hwm_kb);
    t.add_row({harness::op_name(p.op), std::to_string(p.nprocs), p.impl,
               harness::Table::num(p.loop_time),
               harness::Table::num(p.wall_s, 2),
               harness::Table::num(rss_kb / 1024.0, 1),
               harness::Table::num(rss_kb / p.nprocs, 1)});
  }
  t.print();

  std::ofstream os(out_path);
  write_json(os, points, scale_scenario(OpKind::Ibcast, 1, drv.full()));
  std::cerr << "[scale] " << points.size() << " point(s) -> " << out_path
            << "\n";
  return 0;
}
