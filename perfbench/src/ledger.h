// Measurement primitives of the benchmark: bounded sample sets with exact
// percentiles, per-layer time ledgers and the closure check that asks
// whether the timed layers account for a thread's wall time.
//
// Header-only and free of protuner dependencies so tests/ledger_test.cc can
// pin the arithmetic on its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace protuner::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (q in [0, 1]) of `v` by linear interpolation between
/// order statistics (Hyndman & Fan type 7, numpy's default).  0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(lo), v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(v.begin() + static_cast<long>(lo) + 1,
                                     v.end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

/// A bounded, deterministic sample of a stream: every `stride`-th value is
/// kept; when `cap` values are held, every other one is dropped and the
/// stride doubles.  Every kept value then stands for `stride` inputs, so
/// percentiles stay unbiased for a stationary stream at fixed memory.
class Samples {
 public:
  explicit Samples(std::size_t cap = std::size_t{1} << 16) : cap_(cap) {}

  void add(double v) {
    if (skip_ > 0) {
      --skip_;
      return;
    }
    kept_.push_back(v);
    skip_ = stride_ - 1;
    if (kept_.size() >= cap_) halve();
  }

  /// Folds `other` in at the coarser of the two strides, so each kept value
  /// still stands for the same number of inputs.
  void merge(const Samples& other) {
    Samples o = other;
    while (o.stride_ < stride_) o.halve();
    while (stride_ < o.stride_) halve();
    kept_.insert(kept_.end(), o.kept_.begin(), o.kept_.end());
    while (kept_.size() >= cap_) halve();
  }

  double quantile(double q) const { return percentile(kept_, q); }
  const std::vector<double>& kept() const { return kept_; }
  std::uint64_t stride() const { return stride_; }

 private:
  void halve() {
    std::size_t w = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[w++] = kept_[i];
    kept_.resize(w);
    stride_ *= 2;
    skip_ = 0;
  }

  std::size_t cap_;
  std::vector<double> kept_;
  std::uint64_t stride_ = 1;
  std::uint64_t skip_ = 0;
};

/// Time spent in one layer by one thread: an exact total (for closure) and
/// a sample of the individual call durations (for percentiles).
struct Layer {
  std::int64_t total_ns = 0;
  Samples ns;

  void add(std::int64_t d) {
    total_ns += d;
    ns.add(static_cast<double>(d));
  }
  void merge(const Layer& o) {
    total_ns += o.total_ns;
    ns.merge(o.ns);
  }
};

/// Share of a thread's wall time that no timed layer or measured wait
/// covers.  Timed intervals are disjoint, so the residual is >= 0 unless
/// something is counted twice; both directions count against closure.
inline double unaccounted_share(std::int64_t wall_ns,
                                std::int64_t accounted_ns) {
  if (wall_ns <= 0) return accounted_ns == 0 ? 0.0 : 1.0;
  return std::fabs(static_cast<double>(wall_ns - accounted_ns)) /
         static_cast<double>(wall_ns);
}

/// One driver thread's closure inputs.
struct ThreadTime {
  std::int64_t wall_ns = 0;
  std::int64_t accounted_ns = 0;  ///< timed layers plus measured waits
};

/// Worst per-thread residual; the closure check passes when it is within
/// `tolerance`.
inline double worst_unaccounted(const std::vector<ThreadTime>& threads) {
  double worst = 0.0;
  for (const ThreadTime& t : threads) {
    worst = std::max(worst, unaccounted_share(t.wall_ns, t.accounted_ns));
  }
  return worst;
}

}  // namespace protuner::perfbench
