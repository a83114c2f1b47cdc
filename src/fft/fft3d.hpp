#pragma once

// Distributed 3-D FFT application kernel (paper §IV-B, [14]).
//
// Slab decomposition: the N^3 complex grid is split along z into L = N/P
// planes per rank.  One iteration performs
//
//   1. per-plane 2-D FFTs in (x, y), processed in *tiles* of planes;
//   2. a transpose to x-pencil distribution via one non-blocking
//      all-to-all per tile, with up to *window* operations outstanding
//      (each in its own buffer pair) while later tiles compute;
//   3. 1-D FFTs along z on the received pencils.
//
// The paper's four overlap patterns are (window, tile) choices:
//   pipelined    (2, 1)     tiled        (2, 10)
//   windowed     (3, 1)     window-tiled (3, 10)
//
// Communication back-ends:
//   Blocking  MPI_Alltoall-style blocking transpose (no overlap)
//   LibNBC    non-blocking, fixed linear algorithm (LibNBC's default)
//   Adcl      non-blocking, run-time tuned; the window's requests share
//             one SelectionState (co-tuned) and an adcl::Timer brackets
//             the whole iteration (§III-D)
//
// In real-math mode the kernel moves and transforms actual data (verified
// against the serial reference in the tests); in cost-model mode buffers
// are elided and only modeled compute/copy time is charged, which keeps
// 1000-rank simulations tractable.

#include <complex>
#include <memory>
#include <utility>
#include <vector>

#include "adcl/adcl.hpp"
#include "fft/fft1d.hpp"
#include "mpi/world.hpp"

namespace nbctune::fft {

enum class Pattern { Pipelined, Tiled, Windowed, WindowTiled };
enum class Backend { Blocking, LibNBC, Adcl };

[[nodiscard]] const char* pattern_name(Pattern p) noexcept;
[[nodiscard]] const char* backend_name(Backend b) noexcept;
/// (window, tile) of a pattern, per the paper's defaults.
[[nodiscard]] std::pair<int, int> pattern_params(Pattern p) noexcept;

struct Fft3dOptions {
  int n = 64;  ///< grid dimension (N^3 total); must be divisible by P
  Pattern pattern = Pattern::WindowTiled;
  Backend backend = Backend::LibNBC;
  bool real_math = false;  ///< move & transform actual data
  int progress_calls = 4;  ///< progress invocations per tile compute
  adcl::TuningOptions tuning;  ///< Adcl back-end only
  /// Adcl back-end: extend the function-set with blocking implementations
  /// (the modified function-set of the paper's §IV-B, Figs. 11/12).
  bool extended_set = false;
};

/// One rank's view of the distributed FFT.
class Fft3d {
 public:
  Fft3d(mpi::Ctx& ctx, mpi::Comm comm, Fft3dOptions opt);
  ~Fft3d();

  Fft3d(const Fft3d&) = delete;
  Fft3d& operator=(const Fft3d&) = delete;

  /// Execute one forward 3-D FFT (one application iteration).
  void run_iteration();

  /// Execute the inverse transform: from the pencil-resident spectrum
  /// (the state run_iteration() leaves behind) back to z-slab planes.
  /// Communication is the mirrored transpose through the same tuned
  /// requests; in real-math mode planes() afterwards reproduces the
  /// original input (round-trip identity, verified in the tests).
  void run_inverse_iteration();

  /// Local planes after an inverse transform, layout [zl][y][x].
  [[nodiscard]] const std::vector<cplx>& planes() const noexcept {
    return planes_data_;
  }

  // ---- geometry ----
  [[nodiscard]] int planes_per_rank() const noexcept { return planes_; }
  [[nodiscard]] int pencil_width() const noexcept { return width_; }
  [[nodiscard]] int tile_planes() const noexcept { return tile_planes_; }
  [[nodiscard]] int num_tiles() const noexcept { return tiles_; }
  [[nodiscard]] int window() const noexcept { return window_; }
  /// Bytes exchanged with each peer per tile transpose.
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_; }

  // ---- real-math data access ----
  /// Local input planes, layout [zl][y][x], zl in [0, planes_per_rank).
  void set_local_input(std::vector<cplx> planes);
  /// Result pencils after run_iteration(), layout [xl][y][z] with
  /// xl in [0, pencil_width): element (xl, ky, kz) holds the 3-D DFT
  /// coefficient G[kz][ky][kx = rank*width + xl].
  [[nodiscard]] const std::vector<cplx>& pencils() const noexcept {
    return pencils_;
  }

  // ---- tuning introspection (Adcl back-end) ----
  [[nodiscard]] const adcl::SelectionState* selection() const noexcept {
    return selection_.get();
  }

 private:
  void chunked_compute(double seconds, bool progress);
  /// Copy one tile between the z-slab planes and a transpose buffer
  /// (`to_buf`: planes -> buffer), charging the copy.  Forward packs
  /// send blocks with it; inverse unpacks received ones.
  void copy_planes(int tile, cplx* buf, bool to_buf);
  /// The same between the pencils and a buffer: forward unpacks,
  /// inverse packs.
  void copy_pencils(int tile, cplx* buf, bool to_buf);
  /// Simulated cost of one tile's 2-D FFTs and of the z pass.
  [[nodiscard]] std::pair<double, double> fft_costs() const;
  void wait_slot(int slot, bool inverse);
  void start_slot(int slot);
  double copy_cost(std::size_t bytes) const;

  mpi::Ctx& ctx_;
  mpi::Comm comm_;
  Fft3dOptions opt_;
  int nprocs_;
  int me_;
  int planes_;       // L = N / P
  int width_;        // M = N / P (x columns per rank after transpose)
  int tile_planes_;  // planes per tile (divides L)
  int tiles_;        // L / tile_planes
  int window_;       // concurrent transposes (capped at tiles_)
  std::size_t block_;  // bytes per peer per tile

  // Per-slot buffers and requests.
  std::vector<std::vector<cplx>> send_;
  std::vector<std::vector<cplx>> recv_;
  std::vector<std::unique_ptr<adcl::Request>> reqs_;
  std::vector<int> slot_tile_;  // tile occupying each slot, -1 if free

  std::shared_ptr<adcl::SelectionState> selection_;
  std::unique_ptr<adcl::Timer> timer_;

  std::vector<cplx> planes_data_;  // [zl][y][x] (real math)
  std::vector<cplx> pencils_;      // [xl][y][z] (real math)
};

}  // namespace nbctune::fft
