#include "nbc/handle.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "trace/trace.hpp"

namespace nbctune::nbc {

namespace {

template <typename T>
void fold_elems(const void* src, void* dst, std::size_t n, mpi::ReduceOp op) {
  const T* s = static_cast<const T*>(src);
  T* d = static_cast<T*>(dst);
  switch (op) {
    case mpi::ReduceOp::Sum:
      for (std::size_t i = 0; i < n; ++i) d[i] += s[i];
      break;
    case mpi::ReduceOp::Max:
      for (std::size_t i = 0; i < n; ++i) d[i] = d[i] < s[i] ? s[i] : d[i];
      break;
    case mpi::ReduceOp::Min:
      for (std::size_t i = 0; i < n; ++i) d[i] = s[i] < d[i] ? s[i] : d[i];
      break;
  }
}

}  // namespace

Handle::Handle(mpi::Ctx& ctx, mpi::Comm comm, const Schedule* schedule,
               int tag)
    : ctx_(ctx), comm_(std::move(comm)), schedule_(schedule), tag_(tag) {
  if (schedule_ == nullptr) throw std::invalid_argument("Handle: no schedule");
  ctx_.register_client(this);
}

Handle::~Handle() { ctx_.unregister_client(this); }

void Handle::rebind(const Schedule* schedule) {
  if (active_) throw std::logic_error("rebind while operation in flight");
  if (schedule == nullptr) throw std::invalid_argument("rebind: no schedule");
  schedule_ = schedule;
}

void Handle::abort() {
  if (!active_) return;
  for (mpi::Req& h : pending_) ctx_.cancel_request(h);
  pending_.clear();
  pending_ptrs_.clear();
  active_ = false;
  done_ = true;
  // An aborted execution never emits its nbc.op completion span; the
  // redo after recovery starts a fresh logical execution.
  completion_emitted_ = true;
  trace::count(trace::Ctr::NbcOpsAborted);
  if (trace::active()) {
    trace::instant(ctx_.now(), ctx_.world_rank(), trace::Kind::NbcAbort,
                   round_, static_cast<std::uint64_t>(tag_), op_corr_);
  }
}

void Handle::rebind_comm(mpi::Comm comm, int tag) {
  if (active_) {
    throw std::logic_error("rebind_comm while operation in flight");
  }
  comm_ = std::move(comm);
  tag_ = tag;
}

void Handle::trace_completion() {
  if (completion_emitted_) return;
  completion_emitted_ = true;
  trace::count(trace::Ctr::NbcOpsCompleted);
  trace::record(trace::Hist::RoundsPerOp, round_);
  if (trace::active()) {
    trace::span(start_time_, ctx_.now() - start_time_, ctx_.world_rank(),
                trace::Kind::NbcOp, round_, static_cast<std::uint64_t>(tag_),
                op_corr_);
  }
}

double Handle::post_round(std::size_t r) {
  double cost = 0.0;
  const auto& p = ctx_.world().platform();
  trace::count(trace::Ctr::NbcRoundsPosted);
  if (trace::active()) {
    trace::instant(ctx_.now(), ctx_.world_rank(), trace::Kind::NbcRound, r,
                   schedule_->round(r).size(), op_corr_);
  }
  for (const Action& a : schedule_->round(r)) {
    switch (a.kind) {
      case Action::Kind::Send:
        pending_.push_back(ctx_.post_isend(comm_, a.src, a.bytes, a.peer,
                                           tag_, cost, cost, a.rail));
        pending_ptrs_.push_back(ctx_.request_ptr(pending_.back()));
        break;
      case Action::Kind::Recv:
        pending_.push_back(ctx_.post_irecv(comm_, a.dst, a.bytes, a.peer,
                                           tag_, cost, a.rail));
        pending_ptrs_.push_back(ctx_.request_ptr(pending_.back()));
        break;
      case Action::Kind::Copy:
        if (a.src != nullptr && a.dst != nullptr && a.bytes > 0) {
          std::memcpy(a.dst, a.src, a.bytes);
        }
        cost += static_cast<double>(a.bytes) * p.copy_byte_time;
        break;
      case Action::Kind::Op:
        if (a.src != nullptr && a.dst != nullptr) {
          if (a.dtype == DType::F64) {
            fold_elems<double>(a.src, a.dst, a.bytes, a.op);
          } else {
            fold_elems<int>(a.src, a.dst, a.bytes, a.op);
          }
        }
        // ~2 useful flops per element (load + op) on this platform's core.
        cost += 2.0 * static_cast<double>(a.bytes) / p.flops_per_sec;
        break;
    }
  }
  return cost;
}

void Handle::start() {
  if (active_) throw std::logic_error("start() while operation in flight");
  completion_emitted_ = false;
  start_time_ = ctx_.now();
  op_corr_ = ctx_.alloc_op_corr();
  trace::count(trace::Ctr::NbcOpsStarted);
  if (trace::active()) {
    trace::instant(start_time_, ctx_.world_rank(), trace::Kind::NbcStart,
                   schedule_->num_rounds(), static_cast<std::uint64_t>(tag_),
                   op_corr_);
  }
  begin();
}

void Handle::begin() {
  round_ = 0;
  done_ = schedule_->num_rounds() == 0;
  active_ = !done_;
  pending_.clear();
  pending_ptrs_.clear();
  if (!done_) {
    ctx_.charge(post_round(0));
    // A schedule whose first rounds are local-only completes them here;
    // their posting cost is a second charge.
    double extra = 0.0;
    if (!done_ && pending_.empty()) advance(extra);
    ctx_.charge(extra);
  }
  if (done_) trace_completion();
}

void Handle::advance(double& cost) {
  do {
    if (++round_ >= schedule_->num_rounds()) {
      done_ = true;
      active_ = false;
      return;
    }
    cost += post_round(round_);
  } while (pending_.empty());
}

double Handle::poke([[maybe_unused]] mpi::Ctx& ctx) {
  assert(&ctx == &ctx_);
  if (!active_ || done_) return 0.0;
  double cost = 0.0;
  for (;;) {
    // Is the current round finished?
    for (const mpi::Request* r : pending_ptrs_) {
      if (r->state != mpi::ReqState::Complete) return cost;
    }
    for (mpi::Req& h : pending_) ctx_.observe(h, nullptr);
    pending_.clear();
    pending_ptrs_.clear();
    // Advance to the next round.  Purely local rounds (copies/ops) and
    // rounds whose operations completed synchronously (e.g. intra-node
    // eager sends) cascade within one pass — like LibNBC, which tests the
    // freshly posted round before leaving NBC_Progress.  Rounds waiting on
    // wire traffic stop the loop, so multi-round schedules still need one
    // progress invocation per communication round.
    advance(cost);
    if (done_) {
      trace_completion();
      return cost;
    }
  }
}

bool Handle::test() {
  ctx_.progress_pass(false);
  return done_;
}

bool Handle::any_pending_failed() const {
  for (const mpi::Request* r : pending_ptrs_) {
    if (r->failed) return true;
  }
  return false;
}

void Handle::recover() {
  for (mpi::Req& h : pending_) ctx_.cancel_request(h);
  pending_.clear();
  pending_ptrs_.clear();
  ++fallbacks_;
  trace::count(trace::Ctr::NbcFallbacks);
  if (trace::active()) {
    trace::instant(ctx_.now(), ctx_.world_rank(), trace::Kind::NbcFallback,
                   static_cast<std::uint64_t>(fallbacks_),
                   static_cast<std::uint64_t>(tag_), op_corr_);
  }
  // Restart on the fallback schedule with a fresh tag.  Every rank
  // recovers the same number of times (the agreement in wait() is
  // collective), so the per-rank tag counters stay aligned and stale
  // messages for the old tag rot unmatched in the unexpected queues.
  schedule_ = recovery_.fallback;
  tag_ = ctx_.alloc_nbc_tag();
  // Like start(), but with no nbc.start / ops-started emission: this is
  // still the same logical operation (G1 counts one start, one
  // completion).  Data-movement schedules are idempotent, so ranks that
  // had already finished simply re-execute.
  begin();
}

void Handle::wait() {
  if (recovery_.op_timeout <= 0.0 || recovery_.fallback == nullptr) {
    ctx_.wait_until([this] { return done_; });
    return;
  }
  int attempts = 0;
  for (;;) {
    const double deadline = ctx_.now() + recovery_.op_timeout;
    // A timer event guarantees the blocked rank wakes to observe the
    // deadline even if no message ever arrives again.
    const std::uint64_t wake = ctx_.schedule_wake(recovery_.op_timeout);
    ctx_.wait_until([this, deadline] {
      return done_ || any_pending_failed() || ctx_.now() >= deadline;
    });
    ctx_.cancel_event(wake);
    // Collective agreement: recovery must be lockstep, so every rank asks
    // whether anyone is still incomplete before returning or recovering.
    const double unfinished =
        ctx_.allreduce(comm_, done_ ? 0.0 : 1.0, mpi::ReduceOp::Max);
    if (unfinished == 0.0) return;
    if (++attempts > recovery_.max_attempts) {
      throw std::runtime_error(
          "nbc: operation incomplete after max fallback attempts");
    }
    recover();
  }
}

}  // namespace nbctune::nbc
