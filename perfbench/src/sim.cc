// Simulated workloads: the paper-harness path, core::run_session on
// cluster::SimulatedCluster over one shared GS2 database, with each cell's
// repetitions spread over threads by exp::run_repetitions.
//
//   sim_fig10    bench/fig10_multisample's extended panel: PRO
//                (refresh=0, k=K) for K in 1..5 x rho in {0.1 .. 0.4},
//                6 ranks, 800 steps, nproc - 1 threads.
//   sim_explore  random search, 64 ranks, 400 steps, rho = 0.2, 3 threads.
//
// A pass runs every cell once with a fixed repetition count; passes repeat
// until the time budget is spent.  Pass p's seeds derive from (seed, p), so
// pass 0 is the same work on every run of a seed and carries the tuning
// quality metrics (ntt, best_clean_s).
#include <algorithm>
#include <thread>

#include "cluster/simulated_cluster.h"
#include "common.h"
#include "core/round_engine.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "exp/parallel_runner.h"
#include "varmodel/pareto_noise.h"

namespace protuner::perfbench {
namespace {

constexpr int kSetupTrials = 9;

struct Cell {
  std::string strategy;
  double rho = 0;
};

struct Shape {
  std::vector<Cell> cells;
  std::size_t ranks = 0;
  std::size_t steps = 0;
  long reps = 0;  ///< repetitions per cell per pass
  unsigned threads = 1;
};

enum LayerId {
  kSetup,   ///< SimulatedCluster, strategy and engine construction
  kOpen,    ///< RoundEngine::open_round
  kStep,    ///< SimulatedCluster::run_step_into
  kSubmit,  ///< RoundEngine::submit_all
  kClose,   ///< RoundEngine::close_round
  kFinish,  ///< result and true clean time of the best point
  kLayerCount
};

/// One session's outcome.
struct RepOut {
  double ntt = 0;
  double best_clean = 0;
  std::optional<std::size_t> convergence;
  core::Point best;
  std::int64_t wall_ns = 0;
};

/// Traced-run record of one repetition: which thread ran it, when, and
/// how long it spent inside each timed layer.
struct RepTrace {
  std::thread::id thread;
  std::int64_t start = 0, end = 0;
  Layer layers[kLayerCount];
};

struct Pass {
  std::vector<std::vector<RepOut>> cells;  ///< [cell][rep]; see run_passes
  std::int64_t wall_ns = 0;
};

/// Every traced run_repetitions call: its repetitions and its bounds.
struct TraceLog {
  std::vector<std::vector<RepTrace>> calls;
  std::vector<std::pair<std::int64_t, std::int64_t>> bounds;
};

class SimRun {
 public:
  SimRun(const Args& args, Shape shape)
      : args_(args), shape_(std::move(shape)) {}

  Result run();

 private:
  /// Runs pass `p` on `threads` workers; with `log` the sessions are
  /// driven by hand through RoundEngine and timed layer by layer.
  Pass run_pass(std::size_t p, unsigned threads, TraceLog* log);
  RepOut session(const Cell& cell, const exp::RepContext& ctx,
                 RepTrace* trace) const;
  /// Passes from pass 0 until `seconds` have elapsed (at least one).  Every
  /// session's wall time goes to session_ns_.  An untraced run keeps the
  /// sessions of pass 0 only, so its memory does not grow with its speed;
  /// a traced run keeps all of them for the hand-driven comparison.
  std::vector<Pass> run_passes(double seconds, TraceLog* log);
  std::size_t sessions_per_pass() const {
    return shape_.cells.size() * static_cast<std::size_t>(shape_.reps);
  }
  double rounds_per_pass() const {
    return static_cast<double>(sessions_per_pass() * shape_.steps);
  }

  const Args& args_;
  const Shape shape_;
  Substrate sub_;
  Samples session_ns_;
};

RepOut SimRun::session(const Cell& cell, const exp::RepContext& ctx,
                       RepTrace* trace) const {
  const std::int64_t start = now_ns();
  Chain chain(trace != nullptr);
  RepTrace scratch;
  Layer* const layers = trace ? trace->layers : scratch.layers;
  chain.start();
  cluster::SimulatedCluster machine(
      sub_.db, std::make_shared<varmodel::ParetoNoise>(cell.rho, kAlpha),
      {.ranks = shape_.ranks, .seed = ctx.seed});
  auto strategy = core::make_strategy(cell.strategy, sub_.space, ctx.seed + 1);
  core::SessionResult res;
  if (!trace) {
    res = core::run_session(*strategy, machine,
                            {.steps = shape_.steps, .record_series = false});
  } else {
    // The loop run_session runs, one stamped call at a time.
    core::RoundEngineOptions eo;
    eo.width = machine.ranks();
    eo.record_series = false;
    core::RoundEngine engine(*strategy, eo);
    std::vector<double> times(machine.ranks());
    chain.lap(layers[kSetup]);
    for (std::size_t k = 0; k < shape_.steps; ++k) {
      const std::span<const core::Point> a = engine.open_round();
      chain.lap(layers[kOpen]);
      const std::span<double> t(times.data(), a.size());
      machine.run_step_into(a, t);
      chain.lap(layers[kStep]);
      engine.submit_all(t);
      chain.lap(layers[kSubmit]);
      engine.close_round();
      chain.lap(layers[kClose]);
    }
    res = engine.result();
    res.ntt = (1.0 - machine.rho()) * res.total_time;
    res.best_clean = machine.clean_time(res.best);
    chain.lap(layers[kFinish]);
  }
  RepOut out{res.ntt, res.best_clean, res.convergence_step, res.best, 0};
  const std::int64_t end = now_ns();
  out.wall_ns = end - start;
  if (trace) {
    trace->thread = std::this_thread::get_id();
    trace->start = start;
    trace->end = end;
  }
  return out;
}

Pass SimRun::run_pass(std::size_t p, unsigned threads, TraceLog* log) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  for (std::size_t c = 0; c < shape_.cells.size(); ++c) {
    std::vector<RepTrace>* tr = nullptr;
    if (log) {
      log->calls.emplace_back(static_cast<std::size_t>(shape_.reps));
      tr = &log->calls.back();
    }
    const std::int64_t call_start = now_ns();
    pass.cells.push_back(exp::run_repetitions(
        shape_.reps, mix_seed(args_.seed, p * shape_.cells.size() + c),
        [&](const exp::RepContext& ctx) {
          return session(shape_.cells[c], ctx,
                         tr ? &(*tr)[static_cast<std::size_t>(ctx.rep)]
                            : nullptr);
        },
        threads));
    if (log) log->bounds.emplace_back(call_start, now_ns());
  }
  pass.wall_ns = now_ns() - t0;
  return pass;
}

std::vector<Pass> SimRun::run_passes(double seconds, TraceLog* log) {
  std::vector<Pass> passes;
  const std::int64_t start = now_ns();
  while (passes.empty() ||
         static_cast<double>(now_ns() - start) / 1e9 < seconds) {
    Pass& p = passes.emplace_back(run_pass(passes.size(), shape_.threads, log));
    for (const auto& cell : p.cells) {
      for (const RepOut& o : cell) {
        session_ns_.add(static_cast<double>(o.wall_ns));
      }
    }
    if (!args_.trace && passes.size() > 1) p.cells = {};
  }
  return passes;
}

double cell_mean_ntt(const std::vector<RepOut>& reps) {
  double acc = 0;
  for (const RepOut& r : reps) acc += r.ntt;
  return acc / static_cast<double>(reps.size());
}

/// Closure over the traced passes: for each thread of each run_repetitions
/// call, the timed layers plus the waits around its repetitions (pool
/// start-up, queue hand-off and the end-of-cell barrier) must cover the
/// call's wall time.  Threads are aggregated by their order of first
/// appearance in a call.
double closure(const TraceLog& log) {
  std::vector<ThreadTime> threads;
  for (std::size_t c = 0; c < log.calls.size(); ++c) {
    std::vector<const RepTrace*> reps;
    for (const RepTrace& t : log.calls[c]) reps.push_back(&t);
    std::sort(reps.begin(), reps.end(),
              [](const RepTrace* a, const RepTrace* b) {
                return a->start < b->start;
              });
    std::vector<std::thread::id> order;
    std::vector<std::int64_t> last_end;
    const auto [begin, end] = log.bounds[c];
    for (const RepTrace* t : reps) {
      const auto it = std::find(order.begin(), order.end(), t->thread);
      const auto k = static_cast<std::size_t>(it - order.begin());
      if (it == order.end()) {
        order.push_back(t->thread);
        last_end.push_back(begin);
        if (threads.size() < order.size()) threads.emplace_back();
        threads[k].wall_ns += end - begin;
      }
      threads[k].accounted_ns += t->start - last_end[k];  // wait
      for (const Layer& l : t->layers) threads[k].accounted_ns += l.total_ns;
      last_end[k] = t->end;
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      threads[k].accounted_ns += end - last_end[k];  // end-of-call barrier
    }
  }
  return worst_unaccounted(threads);
}

Result SimRun::run() {
  Result r;
  r.provenance["threads"] = std::to_string(shape_.threads);
  r.provenance["connections"] = "0";
  r.provenance["ranks"] = std::to_string(shape_.ranks);
  r.provenance["steps_per_session"] = std::to_string(shape_.steps);
  r.provenance["sessions_per_pass"] = std::to_string(sessions_per_pass());
  const double setup_s = median_setup_s(kSetupTrials, [this] {
    const std::int64_t t0 = now_ns();
    sub_ = build_substrate();
    return static_cast<double>(now_ns() - t0) / 1e9;
  });

  // Untraced passes: the end-to-end window (or, traced, its first half).
  const std::vector<Pass> plain =
      run_passes(args_.trace ? args_.seconds / 2 : args_.seconds, nullptr);
  // Median over passes: robust to the odd pass a neighbour stalls.
  const auto rate = [this](const std::vector<Pass>& passes) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      v.push_back(rounds_per_pass() / (static_cast<double>(p.wall_ns) / 1e9));
    }
    return percentile(v, 0.5);
  };
  const double plain_rate = rate(plain);

  // Gate: every cell's mean NTT of pass 0 must be bit-identical between
  // the N-thread run and a 1-thread rerun.
  const Pass serial = run_pass(0, 1, nullptr);
  r.attempted = sessions_per_pass() * (plain.size() + 1);
  for (std::size_t c = 0; c < shape_.cells.size(); ++c) {
    if (cell_mean_ntt(serial.cells[c]) != cell_mean_ntt(plain[0].cells[c])) {
      r.fail("cell " + shape_.cells[c].strategy + " rho=" +
             std::to_string(shape_.cells[c].rho) +
             ": mean NTT differs between 1 and " +
             std::to_string(shape_.threads) + " threads");
      ++r.failed;
    }
  }

  auto& m = r.metrics;
  if (!args_.trace) {
    double ntt = 0, best_clean = 0, n = 0;
    for (const auto& cell : plain[0].cells) {
      for (const RepOut& o : cell) {
        ntt += o.ntt;
        best_clean += o.best_clean;
        n += 1;
      }
    }
    const double session_ns = session_ns_.quantile(0.5);
    m["setup_s"] = setup_s;
    m["rounds_per_s"] = plain_rate;
    m["round_us_p50"] = us(session_ns) / static_cast<double>(shape_.steps);
    m["session_ms_p50"] = session_ns / 1e6;
    m["ntt"] = ntt / n;
    m["best_clean_s"] = best_clean / n;
    m["peak_rss_mb"] = peak_rss_mb();
    return r;
  }

  // Traced passes: the same seeds as the untraced passes, driven by hand.
  TraceLog log;
  const Counters before = Counters::read();
  const std::vector<Pass> traced = run_passes(args_.seconds / 2, &log);
  const Counters delta = Counters::read() - before;
  const double traced_rounds =
      rounds_per_pass() * static_cast<double>(traced.size());
  r.attempted += sessions_per_pass() * traced.size();

  // Gate: the hand-driven loop must reproduce run_session session by
  // session.
  for (std::size_t pi = 0; pi < std::min(plain.size(), traced.size()); ++pi) {
    for (std::size_t c = 0; c < shape_.cells.size(); ++c) {
      for (std::size_t i = 0; i < plain[pi].cells[c].size(); ++i) {
        const RepOut& a = plain[pi].cells[c][i];
        const RepOut& b = traced[pi].cells[c][i];
        if (a.ntt != b.ntt || a.best != b.best ||
            a.convergence != b.convergence) {
          r.fail("pass " + std::to_string(pi) + " cell " +
                 std::to_string(c) + " rep " + std::to_string(i) +
                 ": hand-driven RoundEngine differs from run_session");
          ++r.failed;
        }
      }
    }
  }

  Layer layers[kLayerCount];
  std::vector<double> converge;
  for (const auto& call : log.calls) {
    for (const RepTrace& t : call) {
      for (int i = 0; i < kLayerCount; ++i) layers[i].merge(t.layers[i]);
    }
  }
  for (const Pass& p : traced) {
    for (const auto& c : p.cells) {
      for (const RepOut& o : c) {
        if (o.convergence) converge.push_back(static_cast<double>(*o.convergence));
      }
    }
  }
  m["core.open_round_ns_p50"] = layers[kOpen].ns.quantile(0.5);
  m["core.close_round_ns_p50"] = layers[kClose].ns.quantile(0.5);
  m["core.converge_round_p50"] = percentile(converge, 0.5);
  m["cluster.run_step_ns_p50"] = layers[kStep].ns.quantile(0.5);
  put_substrate_metrics(r, delta, traced_rounds);
  const double serial_rate =
      rounds_per_pass() / (static_cast<double>(serial.wall_ns) / 1e9);
  m["exp.scaling_efficiency"] =
      plain_rate / (static_cast<double>(shape_.threads) * serial_rate);
  m["bench.trace_overhead_share"] = 1.0 - rate(traced) / plain_rate;
  const double worst = closure(log);
  m["bench.unaccounted_share"] = worst;
  if (worst > kClosureTolerance) {
    r.fail("closure: a worker thread's timed layers leave " +
           std::to_string(worst) + " of its wall time unaccounted (> " +
           std::to_string(kClosureTolerance) + ")");
  }
  return r;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

}  // namespace

Result run_sim_fig10(const Args& a) {
  Shape s;
  for (const double rho : {0.1, 0.2, 0.3, 0.4}) {
    for (int k = 1; k <= 5; ++k) {
      s.cells.push_back({"pro:refresh=0,k=" + std::to_string(k), rho});
    }
  }
  s.ranks = 6;
  s.steps = 800;
  s.reps = 30;
  // One core is left to the rest of the system: with a worker on every
  // core about 1 % of sessions were preempted, which widened the
  // run-to-run spread of the session times.
  s.threads = std::max(1u, nproc() - 1);
  return SimRun(a, std::move(s)).run();
}

Result run_sim_explore(const Args& a) {
  Shape s;
  s.cells.push_back({"random", 0.2});
  s.ranks = 64;
  s.steps = 400;
  s.reps = 48;
  s.threads = 3;
  return SimRun(a, std::move(s)).run();
}

}  // namespace protuner::perfbench
