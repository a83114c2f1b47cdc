#pragma once

// Communicators: ordered groups of world ranks with an isolated tag space
// (context id), in the spirit of MPI communicators.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace nbctune::mpi {

class World;

/// Immutable communicator data shared by all member handles.
class CommData {
 public:
  /// `members` lists the world rank of each communicator rank; the
  /// inverse map is built here, once per communicator.
  CommData(int context_id, std::vector<int> members)
      : context(context_id), members_(std::move(members)) {
    // Open addressing at load factor <= 1/2: O(1) expected probes and
    // O(members) memory, whatever the world size.
    const int bits =
        std::bit_width(std::max<std::size_t>(members_.size(), 1) * 2 - 1);
    shift_ = 64 - bits;
    slots_.assign(std::size_t{1} << bits, -1);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t r = 0; r < members_.size(); ++r) {
      std::size_t i = slot(members_[r]);
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = static_cast<int>(r);
    }
  }

  int context = 0;
  int split_epoch = 0;  ///< per-comm counter for deterministic child ids

  /// World rank of each communicator rank.
  [[nodiscard]] const std::vector<int>& members() const noexcept {
    return members_;
  }

  /// Communicator rank of world rank `wrank`, or -1 if not a member.
  [[nodiscard]] int rank_of(int wrank) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot(wrank);; i = (i + 1) & mask) {
      const int r = slots_[i];
      if (r < 0 || members_[static_cast<std::size_t>(r)] == wrank) return r;
    }
  }

 private:
  /// Fibonacci hashing: the top bits of wrank times 2^64 / phi.
  [[nodiscard]] std::size_t slot(int wrank) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(wrank)) *
         0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  std::vector<int> members_;
  std::vector<int> slots_;  ///< a communicator rank, or -1 when empty
  int shift_ = 0;
};

/// Lightweight communicator handle (copyable; references world-owned data).
class Comm {
 public:
  Comm() = default;
  Comm(World* world, std::shared_ptr<const CommData> data)
      : world_(world), data_(std::move(data)) {}

  [[nodiscard]] bool valid() const noexcept { return data_ != nullptr; }
  [[nodiscard]] int size() const {
    return static_cast<int>(data_->members().size());
  }
  [[nodiscard]] int context() const { return data_->context; }

  /// World rank of communicator rank r.
  [[nodiscard]] int world_rank(int r) const { return data_->members().at(r); }

  /// Communicator rank of a world rank, or -1 if not a member (O(1)).
  [[nodiscard]] int rank_of_world(int wrank) const {
    return data_->rank_of(wrank);
  }

  [[nodiscard]] World* world() const noexcept { return world_; }
  [[nodiscard]] const CommData& data() const { return *data_; }

 private:
  World* world_ = nullptr;
  std::shared_ptr<const CommData> data_;
};

}  // namespace nbctune::mpi
