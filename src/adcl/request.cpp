#include "adcl/request.hpp"

#include <algorithm>
#include <stdexcept>

#include "adcl/history.hpp"
#include "trace/trace.hpp"

namespace nbctune::adcl {

Request::Request(mpi::Ctx& ctx, std::shared_ptr<const FunctionSet> fset,
                 OpArgs args, TuningOptions opts,
                 std::shared_ptr<SelectionState> shared)
    : ctx_(ctx),
      fset_(std::move(fset)),
      args_(std::move(args)),
      opts_(opts),
      state_(std::move(shared)),
      tag_(ctx.alloc_nbc_tag()) {
  if (!args_.comm.valid()) throw std::invalid_argument("Request: bad comm");
  if (!state_) {
    state_ = std::make_shared<SelectionState>(fset_, opts_);
    consult_history();
  } else if (&state_->function_set() != fset_.get()) {
    throw std::invalid_argument(
        "Request: shared selection belongs to a different function-set");
  }
}

Request::~Request() = default;

void Request::consult_history() {
  if (opts_.history == nullptr) return;
  const std::string key = history_key(
      ctx_.world().platform().name, fset_->name(), args_.comm.size(),
      args_.bytes != 0 ? args_.bytes : args_.count);
  state_->set_history_key(key);
  if (auto winner = opts_.history->get(key)) {
    const int idx = fset_->find_by_name(*winner);
    if (idx >= 0) state_->force_winner(idx);
  }
}

const nbc::Schedule& Request::schedule_for(int func) {
  auto it = schedules_.find(func);
  if (it == schedules_.end()) {
    it = schedules_
             .emplace(func, fset_->function(func).build(ctx_, args_))
             .first;
  }
  return it->second;
}

void Request::init() {
  if (active_) throw std::logic_error("Request::init while active");
  const int func = state_->current();
  const nbc::Schedule& sched = schedule_for(func);
  if (!handle_) {
    handle_ = std::make_unique<nbc::Handle>(ctx_, args_.comm, &sched, tag_);
    bound_function_ = func;
  } else if (bound_function_ != func) {
    handle_->rebind(&sched);
    bound_function_ = func;
  }
  if (opts_.op_timeout > 0.0) {
    // Under lossy fault plans: cancel-on-timeout with function 0 as the
    // designated fallback implementation.  Re-armed every init since a
    // rebind may have swapped the schedule out from under the handle.
    handle_->set_recovery(
        {opts_.op_timeout, &schedule_for(0), opts_.max_attempts});
  }
  active_ = true;
  init_time_ = ctx_.now();
  handle_->start();
  if (fset_->function(func).blocking) {
    // Blocking member of the function-set: no completion phase (the wait
    // function pointer is conceptually NULL, paper §IV-B).
    handle_->wait();
  }
}

void Request::wait() {
  if (!active_) throw std::logic_error("Request::wait without init");
  handle_->wait();
  active_ = false;
  trace::record(trace::Hist::ProgressPerOp, progress_calls_);
  progress_calls_ = 0;
  if (!timer_driven_) {
    state_->record(ctx_, args_.comm, ctx_.now() - init_time_);
  }
}

void Request::progress() {
  ++progress_calls_;
  ctx_.progress();
}

int Request::recommended_progress_calls(int fallback) const {
  const int attr = fset_->attributes().index_of("progress");
  if (attr < 0) return fallback;
  return fset_->function(state_->current()).attrs.at(attr);
}

void Request::start() {
  init();
  wait();
}

void Request::abandon() {
  if (handle_) handle_->abort();
  active_ = false;
  progress_calls_ = 0;
}

void Request::recover(const mpi::Comm& comm, int resume_iteration) {
  // Abandon the in-flight execution: it can never complete against the
  // pre-shrink membership.
  if (handle_) handle_->abort();
  active_ = false;
  progress_calls_ = 0;
  args_.comm = comm;
  // Cached schedules address dead peers; dropping them forces a rebuild
  // against the survivor communicator at the next init (hierarchical
  // builders re-elect node leaders from the new membership).  The bound
  // schedule pointer in the handle dangles until then, so force a rebind.
  schedules_.clear();
  bound_function_ = -1;
  tag_ = ctx_.alloc_nbc_tag();
  if (handle_) handle_->rebind_comm(comm, tag_);
  if (opts_.history != nullptr) {
    // The group size changed: decisions record under the new key.
    state_->set_history_key(history_key(
        ctx_.world().platform().name, fset_->name(), args_.comm.size(),
        args_.bytes != 0 ? args_.bytes : args_.count));
  }
  state_->reset_for_shrink(ctx_, resume_iteration);
  trace::count(trace::Ctr::NbcRebuilds);
  if (trace::active()) {
    trace::instant(ctx_.now(), ctx_.world_rank(), trace::Kind::NbcRebuild,
                   static_cast<std::uint64_t>(comm.size()),
                   static_cast<std::uint64_t>(tag_));
  }
}

// ------------------------------------------------------------------ Timer

Timer::Timer(mpi::Ctx& ctx, std::vector<Request*> requests)
    : ctx_(ctx), requests_(std::move(requests)) {
  if (requests_.empty()) throw std::invalid_argument("Timer: no requests");
  for (Request* r : requests_) {
    if (r == nullptr) throw std::invalid_argument("Timer: null request");
    r->timer_driven_ = true;
    auto s = r->selection_ptr();
    if (std::find(states_.begin(), states_.end(), s) == states_.end()) {
      states_.push_back(std::move(s));
    }
  }
}

Timer::~Timer() {
  for (Request* r : requests_) r->timer_driven_ = false;
}

void Timer::start() {
  if (running_) throw std::logic_error("Timer already running");
  running_ = true;
  t0_ = ctx_.now();
}

void Timer::stop() {
  if (!running_) throw std::logic_error("Timer not running");
  running_ = false;
  const double dt = ctx_.now() - t0_;
  for (const auto& s : states_) {
    s->record(ctx_, requests_.front()->args().comm, dt);
  }
}

}  // namespace nbctune::adcl
