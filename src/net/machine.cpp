#include "net/machine.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "trace/trace.hpp"

namespace nbctune::net {

Machine::Machine(Platform platform) : platform_(std::move(platform)) {
  if (platform_.nodes <= 0 || platform_.nics_per_node <= 0) {
    throw std::invalid_argument("Machine: platform must have nodes and NICs");
  }
  const std::vector<sim::Resource> nics(platform_.nics_per_node);
  tx_.assign(platform_.nodes, nics);
  rx_.assign(platform_.nodes, nics);
  mem_.resize(platform_.nodes);
  inflight_.assign(platform_.nodes, 0);
}

sim::Resource& Machine::nic_tx(int node, int nic) { return tx_.at(node).at(nic); }
sim::Resource& Machine::nic_rx(int node, int nic) { return rx_.at(node).at(nic); }
sim::Resource& Machine::mem(int node) { return mem_.at(node); }

namespace {
// Emit the serialization interval on the node's wire track.  Injection
// sides (tx / mem) also account the payload bytes; receive sides do not,
// so each transfer is counted once.
void trace_slot(int node, const sim::Resource::Slot& slot, trace::Kind what,
                std::uint64_t bytes, bool injects, std::uint64_t corr) {
  if (!trace::active()) return;
  trace::span(slot.start, slot.end - slot.start, trace::wire_track(node),
              what, bytes, 0, corr);
  if (injects) {
    trace::count(trace::Ctr::BytesOnWire, bytes);
    trace::record(trace::Hist::WireBytes, bytes);
  }
}
}  // namespace

sim::Resource::Slot Machine::reserve_tx(int node, int nic, double earliest,
                                        double seconds, trace::Kind what,
                                        std::uint64_t bytes,
                                        std::uint64_t corr) {
  const auto slot = nic_tx(node, nic).reserve(earliest, seconds);
  trace_slot(node, slot, what, bytes, /*injects=*/true, corr);
  return slot;
}

sim::Resource::Slot Machine::reserve_rx(int node, int nic, double earliest,
                                        double seconds, trace::Kind what,
                                        std::uint64_t bytes,
                                        std::uint64_t corr) {
  const auto slot = nic_rx(node, nic).reserve(earliest, seconds);
  trace_slot(node, slot, what, bytes, /*injects=*/false, corr);
  return slot;
}

sim::Resource::Slot Machine::reserve_mem(int node, double earliest,
                                         double seconds, trace::Kind what,
                                         std::uint64_t bytes,
                                         std::uint64_t corr) {
  const auto slot = mem(node).reserve(earliest, seconds);
  trace_slot(node, slot, what, bytes, /*injects=*/true, corr);
  return slot;
}

int Machine::nic_for(int node, int peer_node) const noexcept {
  (void)node;
  return peer_node % platform_.nics_per_node;
}

namespace {
int ring_distance(int a, int b, int dim) noexcept {
  const int d = std::abs(a - b);
  return std::min(d, dim - d);
}
}  // namespace

int Machine::torus_hops(int node_a, int node_b) const noexcept {
  if (platform_.torus_x <= 0 || node_a == node_b) return 0;
  // Degenerate axes (declared 0 or negative alongside torus_x > 0) are
  // 1-wide rings: every coordinate is 0 and the axis contributes no hops.
  const int tx = platform_.torus_x;
  const int ty = platform_.torus_y > 0 ? platform_.torus_y : 1;
  const int tz = platform_.torus_z > 0 ? platform_.torus_z : 1;
  const int zplane = tx * ty;
  // Every coordinate is reduced modulo its own axis extent, so node ids
  // beyond tx*ty*tz wrap around the torus instead of producing
  // out-of-range coordinates (which made ring_distance go negative).
  const int ax = node_a % tx, ay = (node_a / tx) % ty,
            az = (node_a / zplane) % tz;
  const int bx = node_b % tx, by = (node_b / tx) % ty,
            bz = (node_b / zplane) % tz;
  return ring_distance(ax, bx, tx) + ring_distance(ay, by, ty) +
         ring_distance(az, bz, tz);
}

double Machine::latency(int node_a, int node_b) const noexcept {
  if (node_a == node_b) return platform_.intra.latency;
  double l = platform_.inter.latency +
             platform_.hop_latency * torus_hops(node_a, node_b);
  if (platform_.rack_extra_latency > 0 &&
      topology_.rack_of(node_a) != topology_.rack_of(node_b)) {
    l += platform_.rack_extra_latency;
  }
  return l;
}

void Machine::reset() {
  for (auto& node : tx_)
    for (auto& r : node) r.reset();
  for (auto& node : rx_)
    for (auto& r : node) r.reset();
  for (auto& r : mem_) r.reset();
  inflight_.assign(platform_.nodes, 0);
}

}  // namespace nbctune::net
