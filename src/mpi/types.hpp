#pragma once

// Shared constants and small value types of the message-passing layer.

#include <cstddef>
#include <cstdint>

namespace nbctune::mpi {

/// Reduction operators supported by the bootstrap collectives.
enum class ReduceOp { Sum, Max, Min };

/// Handle to a pending non-blocking operation.  Value type; owned by the
/// rank that created it.  A default-constructed handle is "null" and is
/// considered complete.
struct Req {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  [[nodiscard]] bool null() const noexcept { return generation == 0; }
  friend bool operator==(const Req&, const Req&) = default;
};

/// Completion information for a receive.
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

}  // namespace nbctune::mpi
