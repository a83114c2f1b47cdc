#pragma once

// A Machine instantiates a Platform: it owns the contended resources
// (per-NIC transmit/receive engines, per-node memory ports) and answers
// topology queries (latency between nodes, NIC selection).

#include <vector>

#include "net/platform.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "trace/trace.hpp"

namespace nbctune::net {

/// Instantiated cluster: platform parameters plus live resource state.
class Machine {
 public:
  explicit Machine(Platform platform);

  [[nodiscard]] const Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] int nodes() const noexcept { return platform_.nodes; }
  /// The socket/node/rack hierarchy and rail/striping planner.
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  /// Transmit-side engine of NIC `nic` on `node` (FIFO serialization of
  /// outgoing transfers).
  sim::Resource& nic_tx(int node, int nic);
  /// Receive-side engine (incast serialization).
  sim::Resource& nic_rx(int node, int nic);
  /// Node memory port, contended by shared-memory copies.
  sim::Resource& mem(int node);

  // Traced reservations: identical to reserve() on the raw resource, but
  // emit a wire-track span (and, for the injecting side, byte counters)
  // when tracing is active.  `what` is the span's kind (a Cat::Wire
  // row); `corr` parents it under its message's causal chain (0 =
  // unlinked).
  sim::Resource::Slot reserve_tx(int node, int nic, double earliest,
                                 double seconds, trace::Kind what,
                                 std::uint64_t bytes, std::uint64_t corr = 0);
  sim::Resource::Slot reserve_rx(int node, int nic, double earliest,
                                 double seconds, trace::Kind what,
                                 std::uint64_t bytes, std::uint64_t corr = 0);
  sim::Resource::Slot reserve_mem(int node, double earliest, double seconds,
                                  trace::Kind what, std::uint64_t bytes,
                                  std::uint64_t corr = 0);

  /// Which NIC a message from `node` to remote `peer_node` uses; stripes
  /// across HCAs by peer so multi-rail platforms (crill) spread load while
  /// preserving per-peer ordering.
  [[nodiscard]] int nic_for(int node, int peer_node) const noexcept;

  /// One-way header latency between two nodes, including per-hop torus
  /// latency on torus platforms and the cross-rack premium on racked
  /// platforms.  `node_a == node_b` gives the intra-node (shared-memory)
  /// latency.
  [[nodiscard]] double latency(int node_a, int node_b) const noexcept;

  /// Hop count between nodes on the torus (0 when not a torus or same node).
  [[nodiscard]] int torus_hops(int node_a, int node_b) const noexcept;

  // ---- congestion model ----
  /// Count a data message in flight towards `node` (call at injection;
  /// pair with remove_inflight at arrival).
  void add_inflight(int node) { ++inflight_.at(node); }
  void remove_inflight(int node) { --inflight_.at(node); }
  [[nodiscard]] int inflight(int node) const { return inflight_.at(node); }

  /// Service-time multiplier for a message arriving at `node` right now:
  /// 1 + coef * max(0, inflight - free), with the inter-node (incast) or
  /// intra-node (memory thrashing) knobs.
  [[nodiscard]] double congestion_factor(int node, bool intra) const {
    const double coef =
        intra ? platform_.mem_congest_coef : platform_.congest_coef;
    const int free = intra ? platform_.mem_congest_free
                           : platform_.congest_free;
    const double cap =
        intra ? platform_.mem_congest_cap : platform_.congest_cap;
    const int over = inflight_.at(node) - free;
    const double f = over > 0 ? 1.0 + coef * over : 1.0;
    return f < cap ? f : cap;
  }

  /// Reset all resource bookings (between experiment repetitions).
  void reset();

 private:
  Platform platform_;
  Topology topology_{platform_};
  std::vector<int> inflight_;
  // [node][nic]
  std::vector<std::vector<sim::Resource>> tx_;
  std::vector<std::vector<sim::Resource>> rx_;
  std::vector<sim::Resource> mem_;
};

}  // namespace nbctune::net
