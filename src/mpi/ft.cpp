#include "mpi/ft.hpp"

#include <algorithm>
#include <utility>

#include "mpi/world.hpp"
#include "trace/trace.hpp"

namespace nbctune::mpi {

RecoveryService::RecoveryService(World& world, const fault::FaultPlan& plan)
    : world_(world),
      lease_(plan.lease),
      kills_(plan.kills),
      detectable_dead_(static_cast<std::size_t>(world.size()), 0),
      arrivals_(static_cast<std::size_t>(world.size())) {}

void RecoveryService::start() {
  for (const fault::Kill& k : kills_) {
    if (k.rank < 0 || k.rank >= world_.size()) continue;
    world_.engine_.schedule_at(k.t, [this, r = k.rank] { on_kill(r); });
  }
}

void RecoveryService::on_kill(int wrank) {
  detail::RankState& rs = world_.ranks_[static_cast<std::size_t>(wrank)];
  if (rs.dead) return;  // duplicate kill entries coalesce
  rs.dead = true;
  trace::count(trace::Ctr::MpiRankDeaths);
  if (trace::active()) {
    trace::instant(world_.engine_.now(), wrank, trace::Kind::MpiRankDeath,
                   static_cast<std::uint64_t>(rs.node));
  }
  // Wake the dying fiber so it unwinds promptly (RankKilled at its next
  // blocking check); wake() is a no-op for already-finished processes.
  if (rs.process != nullptr) rs.process->wake();
  world_.engine_.schedule_after(lease_, [this, wrank] { on_detect(wrank); });
}

void RecoveryService::on_detect(int wrank) {
  detectable_dead_[static_cast<std::size_t>(wrank)] = 1;
  ++detectable_;
  if (trace::active()) {
    trace::instant(world_.engine_.now(), wrank, trace::Kind::MpiFtDetect,
                   static_cast<std::uint64_t>(lease_ * 1e9));
  }
  // Every survivor blocked in the library re-evaluates its interruption
  // check; running/sleeping ranks check at their next blocking call.
  for (int r = 0; r < world_.size(); ++r) {
    detail::RankState& rs = world_.ranks_[static_cast<std::size_t>(r)];
    if (!rs.dead && rs.process != nullptr) rs.process->wake();
  }
  maybe_complete();
}

int RecoveryService::arrive(int wrank, int iteration, bool finished) {
  Arrival& a = arrivals_[static_cast<std::size_t>(wrank)];
  a.arrived = true;
  a.finished = finished;
  a.iteration = iteration;
  const int target = epoch_ + 1;
  maybe_complete();
  return target;
}

void RecoveryService::maybe_complete() {
  if (decision_pending_) return;
  std::vector<int> survivors;
  for (int r = 0; r < world_.size(); ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    if (world_.ranks_[i].dead) {
      // An undetectable death still blocks completion (its lease event
      // re-runs this check), so a decision can never race detection.
      if (!detectable_dead_[i]) return;
      continue;
    }
    if (!arrivals_[i].arrived) return;
    survivors.push_back(r);
  }
  if (survivors.empty()) return;  // nobody left to deliver to

  FtDecision d;
  d.epoch = epoch_ + 1;
  for (int r = 0; r < world_.size(); ++r) {
    if (detectable_dead_[static_cast<std::size_t>(r)]) d.failed.push_back(r);
  }
  d.all_finished = true;
  d.resume_iteration = kFinishedIteration;
  for (int r : survivors) {
    const Arrival& a = arrivals_[static_cast<std::size_t>(r)];
    if (!a.finished) {
      d.all_finished = false;
      d.resume_iteration = std::min(d.resume_iteration, a.iteration);
    }
  }
  if (d.all_finished) d.resume_iteration = 0;
  d.comm = world_.shrink(survivors, d.epoch);
  pending_ = std::move(d);
  pending_detectable_ = detectable_;
  decision_pending_ = true;
  // Modeled agreement cost: a binomial broadcast of the decision over
  // the survivors on the reliable plane.
  int hops = 0;
  for (std::size_t n = 1; n < survivors.size(); n <<= 1) ++hops;
  const double delta =
      static_cast<double>(hops) * world_.platform().inter.latency;
  world_.engine_.schedule_after(delta, [this] { deliver(); });
}

void RecoveryService::deliver() {
  epoch_ = pending_.epoch;
  decision_ = pending_;
  decision_detectable_ = pending_detectable_;
  decision_pending_ = false;
  for (Arrival& a : arrivals_) a = Arrival{};
  const Comm& c = decision_.comm;
  // The failed set is cumulative across epochs; membership only shrank
  // when this round added deaths (the termination agreement after a
  // recovery reuses the same failed set and is not a shrink).
  if (decision_.failed.size() > delivered_failed_) {
    delivered_failed_ = decision_.failed.size();
    trace::count(trace::Ctr::MpiShrinks);
  }
  if (trace::active()) {
    trace::instant(world_.engine_.now(), c.world_rank(0),
                   trace::Kind::MpiFtAgree,
                   static_cast<std::uint64_t>(decision_.epoch),
                   static_cast<std::uint64_t>(decision_.failed.size()));
  }
  for (int i = 0; i < c.size(); ++i) {
    detail::RankState& rs =
        world_.ranks_[static_cast<std::size_t>(c.world_rank(i))];
    if (rs.process != nullptr) rs.process->wake();
  }
}

}  // namespace nbctune::mpi
