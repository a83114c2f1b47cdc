#pragma once

// Platform descriptions: the hardware parameters of the simulated clusters.
//
// The evaluation platforms of the paper are modeled as LogGP-family
// parameter sets plus protocol behaviour (eager/rendezvous switch, whether
// bulk transfers are NIC-driven as with InfiniBand RDMA or CPU-driven as
// with TCP sockets), per-node NIC and memory-port resources, and a noise
// model so the auto-tuner's statistical filtering has something to do.
//
// Presets:
//   crill()      - 16 nodes x 48 cores (4x 12-core Magny Cours), 64 GB,
//                  2x DDR InfiniBand HCAs per node
//   whale()      - 64 nodes x 8 cores (2x quad-core Barcelona), 16 GB,
//                  1x DDR InfiniBand HCA per node
//   whale_tcp()  - same nodes over Gigabit Ethernet
//   bluegene_p() - IBM BlueGene/P rack: 3-D torus, 4 cores per node
//
// The absolute values are order-of-magnitude realistic for the ~2008-2012
// hardware in the paper; the reproduction targets relative behaviour.

#include <cstddef>
#include <string>

namespace nbctune::net {

/// Cost parameters of one communication path (LogGP-style).
struct LinkParams {
  double latency = 0.0;        ///< one-way wire/header latency L (s)
  double byte_time = 0.0;      ///< per-byte transmission time G (s/byte)
  double send_overhead = 0.0;  ///< CPU cost o_s per message on the sender (s)
  double recv_overhead = 0.0;  ///< CPU cost o_r per matched message (s)
  double msg_gap = 0.0;        ///< extra NIC occupancy g per message (s)
};

/// Measurement noise injected by the simulated OS/environment.
struct NoiseParams {
  double rel_sigma = 0.0;      ///< relative gaussian jitter on costs
  double outlier_prob = 0.0;   ///< probability a compute slice is disturbed
  double outlier_factor = 1.0; ///< multiplier applied to disturbed slices
};

/// Full description of a simulated cluster.
struct Platform {
  std::string name;

  int nodes = 1;
  int cores_per_node = 1;
  int nics_per_node = 1;

  LinkParams inter;  ///< network path between nodes
  LinkParams intra;  ///< shared-memory path within a node

  /// Messages up to this many bytes use the eager protocol (payload flies
  /// with the envelope, NIC-driven); larger ones use rendezvous.
  std::size_t eager_limit = 12 * 1024;

  /// TCP-style transports need the sender's CPU to push bulk data in
  /// chunks from inside the progress engine; RDMA-style transports move
  /// bulk data entirely on the NIC once the handshake is done.
  bool cpu_driven_bulk = false;
  std::size_t bulk_chunk = 64 * 1024;  ///< bytes per CPU push

  /// Congestion model: receive-side service time is inflated by
  ///   1 + coef * max(0, in-flight messages to the node - free)
  /// capturing incast/flooding collapse (TCP incast, memory-system
  /// thrashing when a linear all-to-all floods a fat node).  The
  /// inter-node path and the intra-node memory port have separate knobs.
  double congest_coef = 0.0;
  int congest_free = 16;
  double congest_cap = 3.0;  ///< max inflation factor (flow control limits
                             ///< collapse on lossless fabrics)
  double mem_congest_coef = 0.0;
  int mem_congest_free = 64;
  double mem_congest_cap = 3.0;

  double ctrl_overhead = 0.0;      ///< CPU cost to emit RTS/CTS (s)
  double progress_cost = 0.0;      ///< base CPU cost of one progress pass (s)
  double per_req_poll_cost = 0.0;  ///< CPU cost per outstanding request polled
  double copy_byte_time = 0.0;     ///< CPU memcpy cost (s/byte): packing, shm
  double mem_byte_time = 0.0;      ///< per-node memory-port serialization

  NoiseParams noise;

  /// Torus topology (BlueGene/P): when torus_x > 0, inter-node latency is
  /// latency + hops * hop_latency with hops measured on the 3-D torus.
  /// Axes beyond torus_x default to width 1 when left at 0.
  int torus_x = 0, torus_y = 0, torus_z = 0;
  double hop_latency = 0.0;

  /// Hierarchy (net/topology.hpp): how the cores of a node split into
  /// sockets and how the nodes group into racks.  sockets_per_node must
  /// divide cores_per_node; nodes_per_rack == 0 means a single rack.
  int sockets_per_node = 1;
  int nodes_per_rack = 0;
  /// Extra one-way latency a message crossing rack boundaries pays
  /// (added by Machine::latency when the endpoints' racks differ).
  double rack_extra_latency = 0.0;
  /// Intra-socket path; all-zero means "derive from intra" (the topology
  /// layer then reports the node-level link for the socket level too).
  LinkParams socket;

  /// Compute speed used by application cost models (useful FLOP/s).
  double flops_per_sec = 1e9;

  [[nodiscard]] int total_cores() const noexcept {
    return nodes * cores_per_node;
  }
};

/// The 16-node, 48-core AMD Magny Cours InfiniBand cluster of the paper.
Platform crill();
/// The 64-node, 8-core AMD Barcelona InfiniBand cluster of the paper.
Platform whale();
/// The whale cluster using its Gigabit Ethernet interconnect.
Platform whale_tcp();
/// An IBM BlueGene/P partition (3-D torus, 1024 cores).
Platform bluegene_p();
/// A synthetic 4096-node x 32-core system (131072 ranks) for the
/// mega-scale sweeps.
Platform mega();

/// Look up a preset by name ("crill", "whale", "whale-tcp", "bgp", "mega");
/// throws std::invalid_argument for unknown names.
Platform platform_by_name(const std::string& name);

}  // namespace nbctune::net
