#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "gs2/landscape_spec.h"
#include "obs/metrics.h"

namespace protuner::perfbench {

Substrate build_substrate() {
  gs2::LandscapeBundle b = gs2::make_landscape("gs2db");
  // The k-d tree is built lazily on the first lookup; users pay that before
  // their first tuning round, so it belongs to set-up.
  (void)b.landscape->clean_time(b.space.center());
  return {std::move(b.space), std::move(b.landscape)};
}

double median_setup_s(int n, const std::function<double()>& trial) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(trial());
  return percentile(v, 0.5);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  // SplitMix64 finaliser over (seed, i).
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void pin_thread(std::thread& thread, unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  ::pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

namespace {

double label_value(const obs::RegistrySnapshot& s, std::string_view name,
                   std::string_view key, std::string_view value) {
  double total = 0;
  for (const obs::InstrumentSnapshot& i : s.instruments) {
    if (i.name != name) continue;
    for (const auto& [k, v] : i.labels) {
      if (k == key && v == value) total += i.value;
    }
  }
  return total;
}

}  // namespace

Counters Counters::read() {
  const obs::RegistrySnapshot s = obs::Registry::global().snapshot();
  Counters c;
  c.db_exact = label_value(s, "protuner_db_lookups_total", "tier", "exact");
  c.db_memo = label_value(s, "protuner_db_lookups_total", "tier", "memo");
  c.db_kdtree = label_value(s, "protuner_db_lookups_total", "tier", "kdtree");
  c.cache_replay =
      label_value(s, "protuner_clean_cache_total", "result", "replay");
  c.cache_recompute =
      label_value(s, "protuner_clean_cache_total", "result", "recompute");
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.db_exact = db_exact - o.db_exact;
  d.db_memo = db_memo - o.db_memo;
  d.db_kdtree = db_kdtree - o.db_kdtree;
  d.cache_replay = cache_replay - o.cache_replay;
  d.cache_recompute = cache_recompute - o.cache_recompute;
  return d;
}

void put_substrate_metrics(Result& r, const Counters& d, double rounds) {
  const double lookups = d.db_exact + d.db_memo + d.db_kdtree;
  const double refreshes = d.cache_replay + d.cache_recompute;
  r.metrics["gs2.lookups_per_round"] = rounds > 0 ? lookups / rounds : 0;
  r.metrics["gs2.exact_share"] = lookups > 0 ? d.db_exact / lookups : 0;
  r.metrics["gs2.memo_share"] = lookups > 0 ? d.db_memo / lookups : 0;
  r.metrics["gs2.kdtree_share"] = lookups > 0 ? d.db_kdtree / lookups : 0;
  r.metrics["cluster.replay_share"] =
      refreshes > 0 ? d.cache_replay / refreshes : 0;
}

}  // namespace protuner::perfbench
