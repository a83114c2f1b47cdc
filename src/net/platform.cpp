#include "net/platform.hpp"

#include <stdexcept>

namespace nbctune::net {

namespace {
constexpr double kUs = 1e-6;

NoiseParams default_noise() {
  // Mild gaussian jitter plus rare 3x outliers: enough to exercise the
  // tuner's statistical filtering without burying the signal.
  return NoiseParams{.rel_sigma = 0.005, .outlier_prob = 0.01,
                     .outlier_factor = 3.0};
}
}  // namespace

Platform crill() {
  Platform p;
  p.name = "crill";
  p.nodes = 16;
  p.cores_per_node = 48;
  p.nics_per_node = 2;  // two 4x DDR InfiniBand HCAs per node
  p.inter = LinkParams{.latency = 3.0 * kUs,
                       .byte_time = 1.0 / 1.5e9,
                       .send_overhead = 0.8 * kUs,
                       .recv_overhead = 0.6 * kUs,
                       .msg_gap = 1.0 * kUs};
  p.intra = LinkParams{.latency = 0.5 * kUs,
                       .byte_time = 1.0 / 3.0e9,
                       .send_overhead = 0.25 * kUs,
                       .recv_overhead = 0.25 * kUs,
                       .msg_gap = 0.1 * kUs};
  p.eager_limit = 12 * 1024;
  p.cpu_driven_bulk = false;  // RDMA: bulk moves on the HCA
  p.bulk_chunk = 512 * 1024;
  p.ctrl_overhead = 0.3 * kUs;
  p.progress_cost = 0.8 * kUs;
  p.per_req_poll_cost = 0.05 * kUs;
  p.copy_byte_time = 1.0 / 3.5e9;
  p.mem_byte_time = 1.0 / 24.0e9;  // 4 memory controllers per node
  p.congest_coef = 0.01;
  p.congest_free = 48;
  p.congest_cap = 3.0;
  p.mem_congest_coef = 0.002;
  p.mem_congest_free = 64;
  p.noise = default_noise();
  p.flops_per_sec = 1.5e9;
  // 4x 12-core Magny Cours per node; the 16 nodes span two 8-node racks.
  // Within a socket the HT links stay out of the picture entirely.
  p.sockets_per_node = 4;
  p.nodes_per_rack = 8;
  p.rack_extra_latency = 0.5 * kUs;
  p.socket = LinkParams{.latency = 0.3 * kUs,
                        .byte_time = 1.0 / 6.0e9,
                        .send_overhead = 0.2 * kUs,
                        .recv_overhead = 0.2 * kUs,
                        .msg_gap = 0.05 * kUs};
  return p;
}

Platform whale() {
  Platform p;
  p.name = "whale";
  p.nodes = 64;
  p.cores_per_node = 8;
  p.nics_per_node = 1;  // single DDR InfiniBand HCA per node
  p.inter = LinkParams{.latency = 3.2 * kUs,
                       .byte_time = 1.0 / 1.4e9,
                       .send_overhead = 0.9 * kUs,
                       .recv_overhead = 0.7 * kUs,
                       .msg_gap = 0.25 * kUs};
  p.intra = LinkParams{.latency = 0.6 * kUs,
                       .byte_time = 1.0 / 2.5e9,
                       .send_overhead = 0.3 * kUs,
                       .recv_overhead = 0.3 * kUs,
                       .msg_gap = 0.1 * kUs};
  p.eager_limit = 12 * 1024;
  p.cpu_driven_bulk = false;
  p.bulk_chunk = 512 * 1024;
  p.ctrl_overhead = 0.35 * kUs;
  p.progress_cost = 1.0 * kUs;
  p.per_req_poll_cost = 0.06 * kUs;
  p.copy_byte_time = 1.0 / 3.0e9;
  p.mem_byte_time = 1.0 / 7.0e9;
  p.congest_coef = 0.01;
  p.congest_free = 32;
  p.congest_cap = 1.2;  // shallow: single-HCA whale is volume-dominated
  p.mem_congest_coef = 0.003;
  p.mem_congest_free = 32;
  p.noise = default_noise();
  p.flops_per_sec = 1.2e9;
  // 2x quad-core Barcelona per node; 64 nodes in two 32-node racks.
  p.sockets_per_node = 2;
  p.nodes_per_rack = 32;
  p.rack_extra_latency = 0.8 * kUs;
  p.socket = LinkParams{.latency = 0.4 * kUs,
                        .byte_time = 1.0 / 4.0e9,
                        .send_overhead = 0.25 * kUs,
                        .recv_overhead = 0.25 * kUs,
                        .msg_gap = 0.05 * kUs};
  return p;
}

Platform whale_tcp() {
  Platform p = whale();
  p.name = "whale-tcp";
  p.nics_per_node = 1;
  // Gigabit Ethernet through the kernel TCP stack: high per-message cost,
  // ~117 MB/s, and the CPU has to feed the socket from the progress engine.
  p.inter = LinkParams{.latency = 48.0 * kUs,
                       .byte_time = 1.0 / 117.0e6,
                       .send_overhead = 5.0 * kUs,
                       .recv_overhead = 5.0 * kUs,
                       .msg_gap = 5.0 * kUs};
  p.eager_limit = 16 * 1024;
  p.cpu_driven_bulk = true;
  p.congest_coef = 0.10;   // TCP incast collapse under concurrent flows
  p.congest_free = 2;
  p.congest_cap = 8.0;     // lossy Ethernet really does collapse
  p.bulk_chunk = 64 * 1024;
  p.ctrl_overhead = 2.0 * kUs;
  p.progress_cost = 1.5 * kUs;
  p.per_req_poll_cost = 0.12 * kUs;
  return p;
}

Platform bluegene_p() {
  Platform p;
  p.name = "bgp";
  p.nodes = 256;
  p.cores_per_node = 4;  // VN mode: 1024 MPI processes
  p.nics_per_node = 1;   // torus DMA unit
  p.inter = LinkParams{.latency = 2.7 * kUs,
                       .byte_time = 1.0 / 425.0e6,
                       .send_overhead = 1.8 * kUs,
                       .recv_overhead = 1.4 * kUs,
                       .msg_gap = 1.5 * kUs};
  p.intra = LinkParams{.latency = 0.8 * kUs,
                       .byte_time = 1.0 / 1.6e9,
                       .send_overhead = 0.6 * kUs,
                       .recv_overhead = 0.6 * kUs,
                       .msg_gap = 0.2 * kUs};
  p.eager_limit = 1200;  // BG/P switches to rendezvous early
  p.cpu_driven_bulk = false;  // torus DMA moves bulk data
  p.bulk_chunk = 256 * 1024;
  p.ctrl_overhead = 0.8 * kUs;
  p.progress_cost = 1.6 * kUs;
  p.per_req_poll_cost = 0.12 * kUs;
  p.copy_byte_time = 1.0 / 1.2e9;
  p.mem_byte_time = 1.0 / 4.0e9;
  p.congest_coef = 0.01;
  p.congest_free = 8;
  p.mem_congest_coef = 0.004;
  p.mem_congest_free = 16;
  p.noise = NoiseParams{.rel_sigma = 0.001, .outlier_prob = 0.001,
                        .outlier_factor = 2.0};  // BG/P is famously quiet
  p.torus_x = 8;
  p.torus_y = 8;
  p.torus_z = 4;
  p.hop_latency = 0.1 * kUs;
  p.flops_per_sec = 0.4e9;
  // A midplane is 8x8x8 half-rack on real BG/P; this 256-node partition
  // groups into 32-node units purely descriptively (the torus hop model
  // already prices distance, so no extra rack latency on top).
  p.sockets_per_node = 1;
  p.nodes_per_rack = 32;
  p.rack_extra_latency = 0.0;
  return p;
}

Platform mega() {
  Platform p;
  p.name = "mega";
  // A synthetic petascale-class system for the 100k+-rank scaling sweeps:
  // 4096 nodes x 32 cores = 131072 ranks, modern HDR-InfiniBand-like
  // parameters.  At this scale run with 16 KiB fiber stacks (see
  // bench_scale_sweep); the 256 KiB default would need 32 GiB.
  p.nodes = 4096;
  p.cores_per_node = 32;
  p.nics_per_node = 1;
  p.inter = LinkParams{.latency = 1.1 * kUs,
                       .byte_time = 1.0 / 24.0e9,
                       .send_overhead = 0.4 * kUs,
                       .recv_overhead = 0.3 * kUs,
                       .msg_gap = 0.05 * kUs};
  p.intra = LinkParams{.latency = 0.3 * kUs,
                       .byte_time = 1.0 / 12.0e9,
                       .send_overhead = 0.15 * kUs,
                       .recv_overhead = 0.15 * kUs,
                       .msg_gap = 0.02 * kUs};
  p.eager_limit = 16 * 1024;
  p.cpu_driven_bulk = false;
  p.bulk_chunk = 1024 * 1024;
  p.ctrl_overhead = 0.15 * kUs;
  p.progress_cost = 0.4 * kUs;
  p.per_req_poll_cost = 0.02 * kUs;
  p.copy_byte_time = 1.0 / 12.0e9;
  p.mem_byte_time = 1.0 / 100.0e9;
  p.congest_coef = 0.005;
  p.congest_free = 64;
  p.congest_cap = 2.0;
  p.mem_congest_coef = 0.001;
  p.mem_congest_free = 128;
  p.noise = default_noise();
  p.flops_per_sec = 3.0e9;
  // Descriptive hierarchy only: the scale sweeps pin their trajectories,
  // so crossing racks costs nothing extra on this synthetic system.
  p.sockets_per_node = 4;
  p.nodes_per_rack = 128;
  p.rack_extra_latency = 0.0;
  return p;
}

Platform platform_by_name(const std::string& name) {
  if (name == "crill") return crill();
  if (name == "whale") return whale();
  if (name == "whale-tcp" || name == "whale_tcp") return whale_tcp();
  if (name == "bgp" || name == "bluegene_p" || name == "bluegene") {
    return bluegene_p();
  }
  if (name == "mega") return mega();
  throw std::invalid_argument("unknown platform: " + name);
}

}  // namespace nbctune::net
