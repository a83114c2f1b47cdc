#include "fft/fft3d.hpp"

#include <cassert>
#include <stdexcept>

#include "coll/blocking.hpp"

namespace nbctune::fft {

namespace {

/// One element of a tile copy, in the direction `to_buf` names.
void transfer(cplx& local, cplx& buf, bool to_buf) {
  if (to_buf) {
    buf = local;
  } else {
    local = buf;
  }
}

}  // namespace

const char* pattern_name(Pattern p) noexcept {
  switch (p) {
    case Pattern::Pipelined:
      return "pipelined";
    case Pattern::Tiled:
      return "tiled";
    case Pattern::Windowed:
      return "windowed";
    case Pattern::WindowTiled:
      return "window-tiled";
  }
  return "?";
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::Blocking:
      return "MPI(blocking)";
    case Backend::LibNBC:
      return "LibNBC";
    case Backend::Adcl:
      return "ADCL";
  }
  return "?";
}

std::pair<int, int> pattern_params(Pattern p) noexcept {
  switch (p) {
    case Pattern::Pipelined:
      return {2, 1};
    case Pattern::Tiled:
      return {2, 10};
    case Pattern::Windowed:
      return {3, 1};
    case Pattern::WindowTiled:
      return {3, 10};
  }
  return {2, 1};
}

Fft3d::Fft3d(mpi::Ctx& ctx, mpi::Comm comm, Fft3dOptions opt)
    : ctx_(ctx), comm_(std::move(comm)), opt_(opt) {
  nprocs_ = comm_.size();
  me_ = comm_.rank_of_world(ctx_.world_rank());
  if (opt_.n % nprocs_ != 0) {
    throw std::invalid_argument("Fft3d: N must be divisible by P");
  }
  planes_ = opt_.n / nprocs_;
  width_ = opt_.n / nprocs_;
  auto [w, t] = pattern_params(opt_.pattern);
  tile_planes_ = std::min(t, planes_);
  while (planes_ % tile_planes_ != 0) --tile_planes_;  // keep blocks uniform
  tiles_ = planes_ / tile_planes_;
  window_ = std::min(w, tiles_);
  block_ = std::size_t(tile_planes_) * opt_.n * width_ * sizeof(cplx);
  slot_tile_.assign(window_, -1);

  const bool payload = opt_.real_math;
  send_.resize(window_);
  recv_.resize(window_);
  const std::size_t elems_per_buf =
      std::size_t(tile_planes_) * opt_.n * opt_.n;  // n blocks x tile*N*M
  for (int s = 0; s < window_; ++s) {
    if (payload) {
      send_[s].resize(elems_per_buf);
      recv_[s].resize(elems_per_buf);
    }
  }
  if (payload) {
    planes_data_.resize(std::size_t(planes_) * opt_.n * opt_.n);
    pencils_.resize(std::size_t(width_) * opt_.n * opt_.n);
  }

  if (opt_.backend != Backend::Blocking) {
    // One persistent request per window slot.  LibNBC uses the fixed
    // linear algorithm (its default implementation, paper §IV-B); ADCL
    // co-tunes all slots through a shared SelectionState.
    std::vector<adcl::Request*> raw;
    for (int s = 0; s < window_; ++s) {
      auto req = adcl::ialltoall_init(
          ctx_, comm_, payload ? send_[s].data() : nullptr,
          payload ? recv_[s].data() : nullptr, block_, opt_.tuning,
          selection_, opt_.extended_set);
      if (s == 0) selection_ = req->selection_ptr();
      if (opt_.backend == Backend::LibNBC) {
        req->selection().force_winner(
            req->selection().function_set().find_by_name("linear"));
      }
      raw.push_back(req.get());
      reqs_.push_back(std::move(req));
    }
    if (opt_.backend == Backend::Adcl) {
      timer_ = std::make_unique<adcl::Timer>(ctx_, raw);
    }
  }
}

Fft3d::~Fft3d() = default;

void Fft3d::set_local_input(std::vector<cplx> planes) {
  if (!opt_.real_math) {
    throw std::logic_error("set_local_input requires real_math");
  }
  if (planes.size() != planes_data_.size()) {
    throw std::invalid_argument("set_local_input: wrong size");
  }
  planes_data_ = std::move(planes);
}

double Fft3d::copy_cost(std::size_t bytes) const {
  return static_cast<double>(bytes) * ctx_.world().platform().copy_byte_time;
}

void Fft3d::chunked_compute(double seconds, bool progress) {
  const int pc = progress ? std::max(1, opt_.progress_calls) : 1;
  for (int p = 0; p < pc; ++p) {
    ctx_.compute(seconds / pc);
    if (progress) ctx_.progress();
  }
}

void Fft3d::copy_planes(int tile, cplx* buf, bool to_buf) {
  // The block for peer q is this tile's planes restricted to q's
  // x columns, layout [zl][y][xl], blocks ordered by q: the forward
  // transpose packs it, the inverse unpacks it.
  if (opt_.real_math) {
    const int n = opt_.n;
    for (int q = 0; q < nprocs_; ++q) {
      for (int zl = 0; zl < tile_planes_; ++zl) {
        cplx* plane = planes_data_.data() +
                      (std::size_t(tile) * tile_planes_ + zl) * n * n;
        for (int y = 0; y < n; ++y) {
          cplx* row = plane + std::size_t(y) * n + q * width_;
          for (int xl = 0; xl < width_; ++xl) {
            transfer(row[xl], *buf++, to_buf);
          }
        }
      }
    }
  }
  ctx_.compute(copy_cost(block_ * nprocs_));
}

void Fft3d::copy_pencils(int tile, cplx* buf, bool to_buf) {
  // The block of peer q is q's tile planes for my x range, at pencil
  // z = q * planes_ + tile offset, layout [zl][y][xl]: the forward
  // transpose unpacks it, the inverse packs it.
  if (opt_.real_math) {
    const int n = opt_.n;
    for (int q = 0; q < nprocs_; ++q) {
      for (int zl = 0; zl < tile_planes_; ++zl) {
        const int z = q * planes_ + tile * tile_planes_ + zl;
        for (int y = 0; y < n; ++y) {
          for (int xl = 0; xl < width_; ++xl) {
            transfer(pencils_[(std::size_t(xl) * n + y) * n + z], *buf++,
                     to_buf);
          }
        }
      }
    }
  }
  ctx_.compute(copy_cost(block_ * nprocs_));
}

void Fft3d::start_slot(int slot) {
  if (opt_.backend == Backend::Blocking) {
    coll::blocking_alltoall(ctx_, comm_,
                            opt_.real_math ? send_[slot].data() : nullptr,
                            opt_.real_math ? recv_[slot].data() : nullptr,
                            block_);
  } else {
    reqs_[slot]->init();
  }
}

void Fft3d::wait_slot(int slot, bool inverse) {
  if (slot_tile_[slot] < 0) return;
  if (opt_.backend != Backend::Blocking) reqs_[slot]->wait();
  if (inverse) {
    copy_planes(slot_tile_[slot], recv_[slot].data(), /*to_buf=*/false);
  } else {
    copy_pencils(slot_tile_[slot], recv_[slot].data(), /*to_buf=*/false);
  }
  slot_tile_[slot] = -1;
}

std::pair<double, double> Fft3d::fft_costs() const {
  const double rate = ctx_.world().platform().flops_per_sec;
  const int n = opt_.n;
  return {tile_planes_ * 2.0 * n * fft_flops(n) / rate,
          static_cast<double>(width_) * n * fft_flops(n) / rate};
}

void Fft3d::run_iteration() {
  const int n = opt_.n;
  const auto [tile_2d_cost, z_cost] = fft_costs();

  if (timer_) timer_->start();

  for (int tile = 0; tile < tiles_; ++tile) {
    // 2-D FFTs of this tile's planes, overlapped (via progress calls)
    // with the transposes of earlier tiles.
    const bool outstanding = tile > 0 && opt_.backend != Backend::Blocking;
    chunked_compute(tile_2d_cost, outstanding);
    if (opt_.real_math) {
      for (int zl = 0; zl < tile_planes_; ++zl) {
        cplx* plane = planes_data_.data() +
                      (std::size_t(tile) * tile_planes_ + zl) * n * n;
        for (int y = 0; y < n; ++y) fft(plane + std::size_t(y) * n, n);
        std::vector<cplx> col(n);
        for (int x = 0; x < n; ++x) {
          for (int y = 0; y < n; ++y) col[y] = plane[std::size_t(y) * n + x];
          fft(col.data(), n);
          for (int y = 0; y < n; ++y) plane[std::size_t(y) * n + x] = col[y];
        }
      }
    }
    const int slot = tile % window_;
    wait_slot(slot, false);  // free the buffers if an older tile holds them
    copy_planes(tile, send_[slot].data(), /*to_buf=*/true);
    slot_tile_[slot] = tile;
    start_slot(slot);
    if (opt_.backend == Backend::Blocking) wait_slot(slot, false);
  }
  for (int s = 0; s < window_; ++s) wait_slot(s, false);

  // 1-D FFTs along z on the assembled pencils.
  chunked_compute(z_cost, false);
  if (opt_.real_math) {
    for (int xl = 0; xl < width_; ++xl) {
      for (int y = 0; y < n; ++y) {
        fft(pencils_.data() + (std::size_t(xl) * n + y) * n, n);
      }
    }
  }

  if (timer_) timer_->stop();
}

void Fft3d::run_inverse_iteration() {
  const int n = opt_.n;
  const auto [tile_2d_cost, z_cost] = fft_costs();

  if (timer_) timer_->start();

  // 1-D inverse FFTs along z first (we start from the pencil spectrum).
  chunked_compute(z_cost, false);
  if (opt_.real_math) {
    for (int xl = 0; xl < width_; ++xl) {
      for (int y = 0; y < n; ++y) {
        fft(pencils_.data() + (std::size_t(xl) * n + y) * n, n,
            /*inverse=*/true);
      }
    }
  }

  // Mirrored transpose back to z-slabs, tile by tile, overlapping the
  // per-tile 2-D inverse FFTs with the next tile's communication.
  for (int tile = 0; tile < tiles_; ++tile) {
    const int slot = tile % window_;
    wait_slot(slot, true);
    copy_pencils(tile, send_[slot].data(), /*to_buf=*/true);
    slot_tile_[slot] = tile;
    start_slot(slot);
    if (opt_.backend == Backend::Blocking) wait_slot(slot, true);
  }
  for (int s = 0; s < window_; ++s) wait_slot(s, true);

  // 2-D inverse FFTs on the reassembled planes.
  chunked_compute(tiles_ * tile_2d_cost, false);
  if (opt_.real_math) {
    std::vector<cplx> col(n);
    for (int zl = 0; zl < planes_; ++zl) {
      cplx* plane = planes_data_.data() + std::size_t(zl) * n * n;
      for (int x = 0; x < n; ++x) {
        for (int y = 0; y < n; ++y) col[y] = plane[std::size_t(y) * n + x];
        fft(col.data(), n, /*inverse=*/true);
        for (int y = 0; y < n; ++y) plane[std::size_t(y) * n + x] = col[y];
      }
      for (int y = 0; y < n; ++y) {
        fft(plane + std::size_t(y) * n, n, /*inverse=*/true);
      }
    }
  }

  if (timer_) timer_->stop();
}

}  // namespace nbctune::fft
