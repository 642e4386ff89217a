// Shared pieces of the benchmark driver: run arguments, the result record,
// the GS2 database substrate, set-up timing and readers for the obs::
// counters the library already exports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/landscape.h"
#include "core/parameter_space.h"
#include "ledger.h"
#include "obs/fast_clock.h"

namespace protuner::perfbench {

/// Paper §6 noise model for every workload: Pareto with alpha = 1.7.
constexpr double kAlpha = 1.7;

/// Closure tolerance: the timed layers plus the measured waits must cover
/// each driver thread's wall time to within this share.
constexpr double kClosureTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced.  `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run) by name; a
/// per-layer metric a workload does not set reads 0 (layer not exercised).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> provenance;
  std::vector<std::string> failures;  ///< one line per failed check

  /// Fails the run; workloads count failed operations in `failed`.
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

/// The GS2 study's parameter space with its clean-time surface measured
/// into a sparse gs2::Database (the "gs2db" landscape), index built.
struct Substrate {
  core::ParameterSpace space;
  core::LandscapePtr db;
};
Substrate build_substrate();

/// Runs `trial` (which returns its own timed set-up duration in seconds)
/// `n` times and returns the median; the last trial's side effects stay.
double median_setup_s(int n, const std::function<double()>& trial);

/// Derives an independent 64-bit seed for item `i` of a run.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i);

/// Pins `thread` to CPU `cpu % nproc`.  serve_net pins its loop and client
/// threads so that run-to-run placement noise does not swamp the wake-up
/// latency it measures.
void pin_thread(std::thread& thread, unsigned cpu);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Process-wide obs:: counters the benchmark reads as deltas around a
/// measured phase.
struct Counters {
  double db_exact = 0, db_memo = 0, db_kdtree = 0;
  double cache_replay = 0, cache_recompute = 0;

  static Counters read();
  Counters operator-(const Counters& o) const;
};

/// Sets gs2.* and cluster.replay_share from counter deltas over `rounds`
/// tuning rounds.
void put_substrate_metrics(Result& r, const Counters& delta, double rounds);

inline double us(double ns) { return ns / 1e3; }

/// Stamps contiguous calls into layers for traced runs: each call's
/// interval runs from the previous stamp to its own, so a chain of calls
/// is covered without gaps and what lies between chains is left for the
/// closure check to find.  Stamps use the library's TSC clock (cheaper
/// than steady_clock); each recorded duration includes one stamp and one
/// ledger update.  A chain built with traced = false records nothing.
class Chain {
 public:
  explicit Chain(bool traced) : traced_(traced) {}
  void start() {
    if (traced_) last_ = obs::LatencyClock::now();
  }
  void lap(Layer& layer) {
    if (!traced_) return;
    const std::uint64_t t = obs::LatencyClock::now();
    layer.add(static_cast<std::int64_t>(obs::LatencyClock::to_ns(t - last_)));
    last_ = t;
  }

 private:
  bool traced_;
  std::uint64_t last_ = 0;
};

/// Workload entry points (served.cc, sim.cc).
Result run_serve_net(const Args& a);
Result run_serve_inproc(const Args& a);
Result run_sim_fig10(const Args& a);
Result run_sim_explore(const Args& a);

}  // namespace protuner::perfbench
