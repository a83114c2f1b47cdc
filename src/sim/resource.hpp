#pragma once

// FIFO time-reservation resources.
//
// Network interfaces and memory ports are modeled as serial servers: a
// transfer reserves the resource for a duration; concurrent requests are
// serialized in reservation order.  This captures NIC/memory contention
// (the reason flooding algorithms like a linear all-to-all degrade) without
// the cost of simulating preemption.

#include <algorithm>

#include "sim/engine.hpp"

namespace nbctune::sim {

/// A serial FIFO resource.
///
/// reserve(earliest, duration) books the next available slot that starts at
/// or after `earliest` and returns the slot's [start, end) interval.
class Resource {
 public:
  struct Slot {
    Time start;
    Time end;
  };

  /// Book the resource for `duration` seconds, no earlier than `earliest`.
  Slot reserve(Time earliest, Time duration) {
    const Time start = std::max(earliest, available_at_);
    const Time end = start + duration;
    available_at_ = end;
    return {start, end};
  }

  /// Time at which the resource next becomes free.
  [[nodiscard]] Time available_at() const noexcept { return available_at_; }

  /// Reset booking state (e.g. between benchmark repetitions).
  void reset() noexcept { available_at_ = 0.0; }

 private:
  Time available_at_ = 0.0;
};

}  // namespace nbctune::sim
