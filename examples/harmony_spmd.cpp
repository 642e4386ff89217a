// Live SPMD tuning through the Active-Harmony-style client/server API:
// eight *real* concurrent ranks (std::jthread + std::barrier) iterate a
// bulk-synchronous application; each rank fetches its configuration from
// the tuning server, "runs" one iteration (simulated compute proportional
// to the GS2 surface plus queue-model noise), reports its time, and
// barriers.  The server runs PRO behind the scenes.
//
// This is the integration shape a real MPI application would use, with the
// comm substrate standing in for MPI.
// Telemetry: pass `--metrics-out m.prom` to dump a Prometheus text page of
// the session's counters and latency quantiles at exit, and/or
// `--trace-out t.json` to record spans (fetch/report, round lifecycle) and
// write a Chrome trace_event file loadable in chrome://tracing or Perfetto.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "comm/spmd.h"
#include "core/strategy_spec.h"
#include "gs2/database.h"
#include "gs2/surface.h"
#include "harmony/session_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

using namespace protuner;

int main(int argc, char** argv) {
  constexpr std::size_t kRanks = 8;
  constexpr int kTimeSteps = 150;

  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(arg, "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: harmony_spmd [--metrics-out FILE.prom] "
                   "[--trace-out FILE.json]\n";
      return 2;
    }
  }
  if (!trace_out.empty()) {
    // Record every span; OBS_TRACE can still pre-enable sampling for runs
    // without the flag.
    obs::Tracer::global().configure(true, 1);
  }

  const auto space = gs2::gs2_space();
  const auto surface = std::make_shared<gs2::Gs2Surface>();
  // Ranks look their clean times up in the sparse evaluation database (the
  // paper's GS2 workflow); its tier hit counters land in the metrics page.
  const gs2::Database database =
      gs2::Database::measure(space, *surface, gs2::DatabaseOptions{});
  const varmodel::ParetoNoise noise(0.15, 1.7);

  // Host the session through the manager, the way a long-lived tuning
  // service would: any component can attach("gs2") later to observe it.
  // The report deadline is generous here (no rank ever misses it); it
  // demonstrates the straggler guard a production deployment would set.
  harmony::ServerOptions server_options;
  server_options.report_timeout = std::chrono::duration<double>(10.0);
  server_options.straggler_policy = harmony::StragglerPolicy::kShrink;
  harmony::SessionManager manager;
  const std::shared_ptr<harmony::Server> session = manager.create(
      "gs2", core::make_strategy("pro:k=2", space), kRanks,
      server_options);
  harmony::Server& server = *session;

  std::mutex log_mutex;

  comm::spmd_run(kRanks, [&](comm::Communicator& comm) {
    harmony::Client client(server, comm.rank());
    util::Rng rng(1000 + comm.rank());

    for (int step = 0; step < kTimeSteps; ++step) {
      // Fetch this rank's configuration for the current time step.
      const core::Point cfg = client.fetch();

      // "Run" one application iteration: the simulated duration is the GS2
      // database time plus machine noise.  (A real application would time
      // its actual iteration here.)
      const double t = noise.observe(database.clean_time(cfg), rng);

      // The barrier models the application's own per-iteration
      // synchronisation; the step cost is the slowest rank (Eq. 1).
      const double step_cost = comm.allreduce_max(t);

      client.report(t);

      if ((step + 1) % 30 == 0) {
        // Every rank's report has returned once all pass this barrier, so
        // the round has closed and rank 0 reads the server's settled totals.
        comm.barrier();
        if (comm.rank() != 0) continue;
        const std::scoped_lock lock(log_mutex);
        std::printf("step %3d: T_k=%6.3f  cumulative=%8.2f  converged=%s\n",
                    step + 1, step_cost, server.total_time(),
                    server.converged() ? "yes" : "no");
      }
    }
  });

  const harmony::SessionManager::SessionStats stats = manager.stats("gs2");
  const core::Point& best = stats.best;
  std::cout << "\nsession '" << stats.name << "' (" << stats.strategy
            << "): " << stats.rounds << " rounds, " << stats.active_ranks
            << "/" << stats.clients << " ranks active\n"
            << "best configuration (ntheta=" << best[gs2::kNtheta]
            << ", negrid=" << best[gs2::kNegrid]
            << ", nodes=" << best[gs2::kNodes] << ")\n"
            << "clean time there: " << surface->clean_time(best)
            << " s/iter (default was "
            << surface->clean_time(space.center()) << ")\n"
            << "Total_Time: " << stats.total_time << "\n";

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "cannot write " << metrics_out << "\n";
      return 1;
    }
    obs::render_prometheus(out, manager.metrics_snapshot());
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 1;
    }
    obs::Tracer::global().write_chrome_trace(out);
    std::cout << "trace written to " << trace_out << " (load in Perfetto / "
                 "chrome://tracing)\n";
  }
  manager.remove("gs2");
  return 0;
}
