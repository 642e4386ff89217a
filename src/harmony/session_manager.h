// Multi-session hosting for the Harmony front end: one process-wide manager
// owns many named concurrent tuning sessions, each a harmony::Server over
// its own core::RoundEngine.  This is the serving shape of the ROADMAP's
// north star — many applications (or many independent tuning problems of
// one application) registering with a single tuning service, each with its
// own strategy, width, deadline policy and telemetry.
//
//   harmony::SessionManager manager;
//   auto gs2 = manager.create("gs2", std::move(pro_strategy), 8, options);
//   ...                        // ranks drive gs2->fetch()/report()
//   auto same = manager.attach("gs2");   // another component joins
//   manager.stats("gs2");                // live accounting snapshot
//   manager.detach("gs2");
//   manager.remove("gs2");               // only once fully detached
//
// Thread-safe (DESIGN.md §12): one plain mutex guards the name map and the
// attach counts.  Aggregation (stats, stats_all, metrics_snapshot) copies
// the records out under the lock and makes every server call after
// releasing it, so a slow exporter or a stats sweep over a big session
// never holds the registry against create/remove.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harmony/server.h"

namespace protuner::harmony {

/// Misuse of the session registry: duplicate create, attach/stats/remove of
/// an unknown name, remove while still attached.
class SessionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SessionManager {
 public:
  /// Live accounting snapshot of one hosted session.
  struct SessionStats {
    std::string name;
    std::string strategy;
    std::size_t clients = 0;
    std::size_t active_ranks = 0;  ///< clients minus dropped stragglers
    std::size_t attached = 0;      ///< attach() minus detach() balance
    std::size_t rounds = 0;
    double total_time = 0.0;
    bool converged = false;
    std::optional<std::size_t> convergence_round;
    core::Point best;
  };

  /// Creates and hosts a new named session.  Throws SessionError when the
  /// name is already taken.
  std::shared_ptr<Server> create(const std::string& name,
                                 core::TuningStrategyPtr strategy,
                                 std::size_t clients,
                                 ServerOptions options = {});

  /// Joins an existing session (bumps its attach count).  Throws
  /// SessionError for unknown names.
  std::shared_ptr<Server> attach(const std::string& name);

  /// Releases one attach() of `name`.  Throws SessionError for unknown
  /// names or when the session has no attachment outstanding.
  void detach(const std::string& name);

  /// Lookup without attaching; nullptr for unknown names.
  std::shared_ptr<Server> find(const std::string& name) const;

  /// Unhosts a session.  Throws SessionError while attachments are
  /// outstanding; returns false when the name is unknown.  Components
  /// still holding the shared_ptr keep a working (but unlisted) session.
  bool remove(const std::string& name);

  std::vector<std::string> names() const;
  std::size_t size() const;

  SessionStats stats(const std::string& name) const;
  std::vector<SessionStats> stats_all() const;

  /// Every hosted session's instruments in one snapshot (each session's
  /// series stay distinguishable by their {"session", ...} label).  Feed to
  /// obs::render_prometheus for a combined exposition page.
  obs::RegistrySnapshot metrics_snapshot() const;

 private:
  struct Hosted {
    std::shared_ptr<Server> server;
    std::size_t attached = 0;
  };

  /// Copies every record, name-sorted, under the lock.
  std::vector<std::pair<std::string, Hosted>> pin_all() const;
  static SessionStats stats_of(const std::string& name, const Hosted& hosted);

  mutable std::mutex mutex_;
  std::map<std::string, Hosted> sessions_;
};

}  // namespace protuner::harmony
