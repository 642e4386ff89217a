// Ready-made session observers: a CSV step logger and a best-config change
// tracker.  Implementations live in session_log.cc.
//
// Both observers forward every callback to an optional chained
// SessionObserver, so a single observer slot (SessionOptions::observer,
// harmony::ServerOptions::observer) can carry both at the same time instead
// of one silently displacing the other.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <utility>
#include <vector>

#include "core/session.h"
#include "util/csv.h"

namespace protuner::core {

/// Streams one CSV row per time step: step index, cost T_k, cumulative
/// total, and the number of distinct configurations run that step.
class CsvSessionLogger final : public SessionObserver {
 public:
  /// `next`, when given, receives every callback after the row is written.
  explicit CsvSessionLogger(std::ostream& out, SessionObserver* next = nullptr);

  void on_step(std::size_t step, std::span<const Point> configs,
               std::span<const double> times, double cost) override;
  void on_converged(std::size_t step, const Point& best) override;

  double cumulative() const { return cumulative_; }
  std::size_t converged_at() const { return converged_at_; }

  SessionObserver* next() const { return next_; }
  void set_next(SessionObserver* next) { next_ = next; }

 private:
  util::CsvWriter csv_;
  double cumulative_ = 0.0;
  std::size_t converged_at_ = 0;
  SessionObserver* next_ = nullptr;
};

/// Records every change of the proposal's first configuration — a cheap
/// proxy for "what the tuner is currently exploring".
class ConfigChangeTracker final : public SessionObserver {
 public:
  explicit ConfigChangeTracker(SessionObserver* next = nullptr);

  void on_step(std::size_t step, std::span<const Point> configs,
               std::span<const double> times, double cost) override;
  void on_converged(std::size_t step, const Point& best) override;

  const std::vector<std::pair<std::size_t, Point>>& history() const {
    return history_;
  }

  SessionObserver* next() const { return next_; }
  void set_next(SessionObserver* next) { next_ = next; }

 private:
  std::vector<std::pair<std::size_t, Point>> history_;
  SessionObserver* next_ = nullptr;
};

}  // namespace protuner::core
