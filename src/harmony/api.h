// The application-facing facade, mirroring the Active Harmony workflow the
// paper describes in §1: "The user provides Active Harmony with a list of
// the tunable parameters, and their type and range" — then the system
// iteratively runs the program, monitors its running time, and tunes.
//
//   harmony::SessionBuilder builder;
//   builder.add_int("negrid", 8, 64)
//          .add_discrete("nodes", {4, 8, 16, 32, 64})
//          .strategy_spec("pro:k=3")
//          .clients(8);
//   std::unique_ptr<harmony::Server> server = builder.build();
//
// The returned Server speaks the fetch/report protocol (see server.h) from
// any number of concurrent ranks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/parameter_space.h"
#include "harmony/server.h"

namespace protuner::harmony {

class SessionBuilder {
 public:
  /// Tunable declarations (chainable).
  SessionBuilder& add_int(std::string name, long lo, long hi);
  SessionBuilder& add_continuous(std::string name, double lo, double hi);
  SessionBuilder& add_discrete(std::string name, std::vector<double> values);

  /// Optimizer selection (DESIGN.md §13): any registered strategy spec,
  /// e.g. "pro:k=4", "sro" or "spsa:a=0.2,c=0.1".  Defaults to "pro".  The
  /// spec is validated (names, keys, ranges) at build() time.
  SessionBuilder& strategy_spec(std::string spec);
  const std::string& strategy_spec() const { return strategy_spec_; }
  SessionBuilder& clients(std::size_t n);    ///< ranks that will fetch/report

  /// Deadline-aware round closing (see ServerOptions): rounds open longer
  /// than `seconds` are force-closed with missing times imputed.  Zero
  /// disables the deadline.
  SessionBuilder& report_timeout(double seconds);
  SessionBuilder& impute_penalty(double factor);
  SessionBuilder& straggler_policy(StragglerPolicy policy);
  /// Per-step telemetry fan-out (not owned; must outlive the Server).
  SessionBuilder& observer(core::SessionObserver* obs);
  /// Telemetry label for the server's metrics ({"session", name}).
  SessionBuilder& session(std::string name);

  /// Number of parameters declared so far.
  std::size_t parameter_count() const { return params_.size(); }

  /// Builds the tuning server.  Requires at least one parameter and one
  /// client.
  std::unique_ptr<Server> build() const;

  /// The declared admissible region (useful for validation and tests).
  core::ParameterSpace space() const;

 private:
  std::vector<core::Parameter> params_;
  std::string strategy_spec_ = "pro";
  std::size_t clients_ = 1;
  ServerOptions server_options_;
};

}  // namespace protuner::harmony
