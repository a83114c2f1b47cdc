#include "harness/microbench.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "mpi/world.hpp"
#include "net/machine.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace nbctune::harness {

const char* op_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::Ialltoall: return "ialltoall";
    case OpKind::Ibcast: return "ibcast";
    case OpKind::Iallreduce: return "iallreduce";
    case OpKind::Iscatter: return "iscatter";
  }
  return "?";
}

std::shared_ptr<const adcl::FunctionSet> scenario_functionset(
    const MicroScenario& s) {
  switch (s.op) {
    case OpKind::Ialltoall:
      return adcl::make_ialltoall_functionset(s.include_blocking);
    case OpKind::Ibcast:
      return adcl::make_ibcast_functionset(s.include_hierarchical);
    case OpKind::Iallreduce:
      return adcl::make_iallreduce_functionset(s.include_hierarchical);
    case OpKind::Iscatter:
      return adcl::make_iscatter_functionset(s.platform.nics_per_node);
  }
  throw std::invalid_argument("scenario_functionset: bad OpKind");
}

trace::ScenarioKey scenario_key(const MicroScenario& s, bool tuned,
                                std::string impl) {
  const auto ppm = [](double x) { return std::llround(x * 1e6); };
  trace::ScenarioKey k;
  k.op = op_name(s.op);
  k.platform = s.platform.name;
  k.nprocs = s.nprocs;
  k.bytes = s.bytes;
  k.adcl = tuned;
  k.impl = std::move(impl);
  if (!s.fault_plan.empty()) {
    k.plan = s.fault_plan_name.empty() ? "spec" : s.fault_plan_name;
  }
  k.topo = s.topo_tag;
  k.progress_calls = s.progress_calls;
  k.compute_ns = std::llround(s.compute_per_iter * 1e9);
  k.noise_scale_ppm = ppm(s.noise_scale);
  k.noise_sigma_ppm = ppm(s.platform.noise.rel_sigma);
  k.outlier_prob_ppm = ppm(s.platform.noise.outlier_prob);
  k.outlier_factor_ppm = ppm(s.platform.noise.outlier_factor);
  return k;
}

namespace {

/// Per-operation request arguments; sizes (and pins into `args`) the
/// payload buffers when the scenario moves real bytes.
adcl::OpArgs scenario_args(const MicroScenario& s, mpi::Ctx& ctx,
                           std::vector<std::byte>& sbuf,
                           std::vector<std::byte>& rbuf) {
  auto comm = ctx.world().comm_world();
  const int n = comm.size();
  adcl::OpArgs args;
  args.comm = comm;
  switch (s.op) {
    case OpKind::Ialltoall:
      args.bytes = s.bytes;
      if (s.payload) {
        sbuf.resize(std::size_t(n) * s.bytes);
        rbuf.resize(std::size_t(n) * s.bytes);
        args.sbuf = sbuf.data();
        args.rbuf = rbuf.data();
      }
      break;
    case OpKind::Ibcast:
      args.bytes = s.bytes;  // root stays 0
      if (s.payload) {
        rbuf.resize(s.bytes);
        args.rbuf = rbuf.data();
      }
      break;
    case OpKind::Iallreduce:
      // s.bytes is the vector size; reduce in doubles (the sim's currency).
      args.count = s.bytes / sizeof(double);
      args.dtype = nbc::DType::F64;
      args.op = mpi::ReduceOp::Sum;
      if (s.payload) {
        sbuf.resize(args.count * sizeof(double));
        rbuf.resize(args.count * sizeof(double));
        args.sbuf = sbuf.data();
        args.rbuf = rbuf.data();
      }
      break;
    case OpKind::Iscatter:
      args.bytes = s.bytes;  // per-destination block; root stays 0
      if (s.payload) {
        rbuf.resize(s.bytes);
        args.rbuf = rbuf.data();
        if (ctx.world_rank() == comm.world_rank(0)) {
          sbuf.resize(std::size_t(n) * s.bytes);
          args.sbuf = sbuf.data();
        }
      }
      break;
  }
  return args;
}

/// Executes the loop on every rank; returns the filled outcome (rank 0's
/// view, which all ranks agree on).
RunOutcome run_loop(const MicroScenario& s,
                    const adcl::TuningOptions& tuning_in, int pinned,
                    trace::ScenarioKey key) {
  // One trace scope per simulated scenario: a no-op unless the process
  // enabled the trace session (bench --trace).
  trace::Scope scope(std::move(key));
  RunOutcome out;
  sim::Engine engine(s.seed);
  net::Machine machine(s.platform);
  // The plan must outlive the World (the injector holds a reference).
  const fault::FaultPlan plan = fault::FaultPlan::parse(s.fault_plan);
  adcl::TuningOptions tuning = tuning_in;
  if (plan.enabled()) {
    tuning.op_timeout = plan.op_timeout;
    tuning.max_attempts = plan.max_attempts;
    tuning.drift_window = plan.drift_window;
    tuning.drift_tolerance = plan.drift_tolerance;
  }
  mpi::WorldOptions wopts;
  wopts.nprocs = s.nprocs;
  wopts.seed = s.seed;
  wopts.noise_scale = s.noise_scale;
  wopts.fiber_stack_bytes = s.fiber_stack_bytes;
  if (plan.enabled()) wopts.fault_plan = &plan;
  mpi::World world(engine, machine, wopts);

  // One function-set shared by every rank (immutable once built).
  auto fset = scenario_functionset(s);

  world.launch([&](mpi::Ctx& ctx) {
    // Buffers: allocated only when payload moves; sized per operation.
    std::vector<std::byte> sbuf, rbuf;
    std::unique_ptr<adcl::Request> req = adcl::request_create(
        ctx, fset, scenario_args(s, ctx, sbuf, rbuf), tuning);
    if (pinned >= 0) req->selection().force_winner(pinned);

    adcl::Timer timer(ctx, {req.get()});
    const double t0 = ctx.now();
    double decision_t = std::numeric_limits<double>::quiet_NaN();
    int post_iters = 0;
    // The communicator the loop currently runs on; shrunk on recovery.
    // Its lowest member writes the outcome (rank 0 unless rank 0 died).
    mpi::Comm cur = ctx.world().comm_world();
    // Fail-stop recovery wraps the iteration loop (ULFM-style): a peer
    // death interrupts the body with RanksFailed; survivors agree on the
    // failed set, shrink, rebuild the request, re-open tuning, and redo
    // from the globally agreed iteration.  Ranks that finish the loop
    // stand at the termination agreement in case a slower survivor's
    // failure forces redone work.
    int it = 0;
    try {
      for (;;) {
        if (it >= s.iterations) {
          if (ctx.world().ft() == nullptr) break;
          const mpi::FtDecision d = ctx.ft_finish();
          cur = d.comm;
          if (d.all_finished) break;
          req->recover(d.comm, d.resume_iteration);
          if (pinned >= 0) req->selection().force_winner(pinned);
          it = d.resume_iteration;
          continue;
        }
        try {
          const bool decided_before = req->selection().decided();
          timer.start();
          req->init();
          const int pc = std::max(1, s.progress_calls);
          for (int p = 0; p < pc; ++p) {
            ctx.compute(s.compute_per_iter / pc);
            if (s.progress_calls > 0) req->progress();
          }
          req->wait();
          timer.stop();
          if (decided_before) ++post_iters;
          ++it;
        } catch (const mpi::RanksFailed&) {
          timer.abort();
          const mpi::FtDecision d = ctx.ft_recover(it);
          cur = d.comm;
          req->recover(d.comm, d.resume_iteration);
          if (pinned >= 0) req->selection().force_winner(pinned);
          it = d.resume_iteration;
        }
      }
    } catch (const mpi::RankKilled&) {
      // This rank is the one fail-stopped: its in-flight op can neither
      // complete nor be redone by it, so abort the handle to keep the
      // started = completed + aborted ledger exact, then unwind.
      req->abandon();
      throw;
    }
    const double t_end = ctx.now();
    if (req->selection().decided()) {
      decision_t = req->selection().decision_time();
    }
    if (ctx.world_rank() == cur.world_rank(0)) {
      out.loop_time = t_end - t0;
      out.impl = req->selection().decided() ? req->current_function().name
                                            : "<undecided>";
      out.decision_iteration = req->selection().decision_iteration();
      out.decision_time = decision_t;
      out.post_decision_iterations = post_iters;
      out.post_decision_time =
          std::isnan(decision_t) ? 0.0 : t_end - std::max(decision_t, t0);
    }
  });
  engine.run();
  return out;
}

}  // namespace

RunOutcome run_fixed(const MicroScenario& s, int func_idx) {
  auto fset = scenario_functionset(s);
  if (func_idx < 0 || func_idx >= static_cast<int>(fset->size())) {
    throw std::invalid_argument("run_fixed: bad function index");
  }
  adcl::TuningOptions tuning;  // irrelevant: selection is forced
  RunOutcome out = run_loop(
      s, tuning, func_idx,
      scenario_key(s, /*tuned=*/false, fset->function(func_idx).name));
  out.impl = fset->function(func_idx).name;
  out.post_decision_time = out.loop_time;
  out.post_decision_iterations = s.iterations;
  return out;
}

RunOutcome run_adcl(const MicroScenario& s, adcl::TuningOptions opts) {
  return run_loop(
      s, opts, -1,
      scenario_key(s, /*tuned=*/true, adcl::policy_name(opts.policy)));
}

VerificationRun run_verification(const MicroScenario& s,
                                 int tests_per_function, ScenarioPool* pool) {
  VerificationRun v;
  auto fset = scenario_functionset(s);
  adcl::TuningOptions bf;
  bf.policy = adcl::PolicyKind::BruteForce;
  bf.tests_per_function = tests_per_function;
  adcl::TuningOptions heur = bf;
  heur.policy = adcl::PolicyKind::AttributeHeuristic;

  // Component runs: one task per fixed implementation, plus the two ADCL
  // policies.  Each owns its Engine, so they are independent; results
  // land by index and the aggregation below is order-insensitive.
  const std::size_t nfun = fset->size();
  v.fixed.resize(nfun);
  auto unit = [&](std::size_t i) {
    if (i < nfun) {
      v.fixed[i] = run_fixed(s, static_cast<int>(i));
    } else if (i == nfun) {
      v.adcl_bruteforce = run_adcl(s, bf);
    } else {
      v.adcl_heuristic = run_adcl(s, heur);
    }
  };
  if (pool != nullptr) {
    pool->run_indexed(nfun + 2, unit);
  } else {
    for (std::size_t i = 0; i < nfun + 2; ++i) unit(i);
  }

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < nfun; ++f) {
    if (v.fixed[f].loop_time < best) {
      best = v.fixed[f].loop_time;
      v.best_fixed = static_cast<int>(f);
    }
  }

  // "Correct" (paper §IV-A): the chosen implementation's fixed-run time is
  // within 5% of the best fixed implementation.
  auto correct = [&](const RunOutcome& o) {
    for (const RunOutcome& f : v.fixed) {
      if (f.impl == o.impl) return f.loop_time <= best * (1 + kCorrectTolerance);
    }
    return false;
  };
  v.bruteforce_correct = correct(v.adcl_bruteforce);
  v.heuristic_correct = correct(v.adcl_heuristic);
  return v;
}

}  // namespace nbctune::harness
