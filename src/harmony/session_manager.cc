#include "harmony/session_manager.h"

#include <algorithm>
#include <utility>

namespace protuner::harmony {

std::vector<std::pair<std::string, SessionManager::Hosted>>
SessionManager::pin_all() const {
  const std::scoped_lock lock(mutex_);
  return {sessions_.begin(), sessions_.end()};
}

std::shared_ptr<Server> SessionManager::create(const std::string& name,
                                               core::TuningStrategyPtr
                                                   strategy,
                                               std::size_t clients,
                                               ServerOptions options) {
  // Hosted sessions are telemetry-labelled by their registry name unless
  // the caller picked a label explicitly.
  if (options.session.empty()) options.session = name;
  // Build outside the registry lock: Server's constructor runs the
  // strategy's first proposal, which can be arbitrarily expensive.
  auto server =
      std::make_shared<Server>(std::move(strategy), clients, options);
  const std::scoped_lock lock(mutex_);
  const auto [it, inserted] = sessions_.try_emplace(name, Hosted{server});
  if (!inserted) {
    throw SessionError("create: session '" + name + "' already exists");
  }
  return server;
}

std::shared_ptr<Server> SessionManager::attach(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw SessionError("attach: no session named '" + name + "'");
  }
  ++it->second.attached;
  return it->second.server;
}

void SessionManager::detach(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw SessionError("detach: no session named '" + name + "'");
  }
  if (it->second.attached == 0) {
    throw SessionError("detach: session '" + name + "' is not attached");
  }
  --it->second.attached;
}

std::shared_ptr<Server> SessionManager::find(const std::string& name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.server;
}

bool SessionManager::remove(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) return false;
  if (it->second.attached > 0) {
    throw SessionError("remove: session '" + name + "' still has " +
                       std::to_string(it->second.attached) +
                       " attachment(s)");
  }
  sessions_.erase(it);
  return true;
}

std::vector<std::string> SessionManager::names() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, hosted] : sessions_) out.push_back(name);
  return out;
}

std::size_t SessionManager::size() const {
  const std::scoped_lock lock(mutex_);
  return sessions_.size();
}

SessionManager::SessionStats SessionManager::stats_of(
    const std::string& name, const Hosted& hosted) {
  const Server& server = *hosted.server;
  SessionStats s;
  s.name = name;
  s.strategy = server.strategy_name();
  s.clients = server.clients();
  s.active_ranks = server.active_ranks();
  s.attached = hosted.attached;
  s.rounds = server.rounds_completed();
  s.total_time = server.total_time();
  s.converged = server.converged();
  s.convergence_round = server.convergence_round();
  s.best = server.best_point();
  return s;
}

SessionManager::SessionStats SessionManager::stats(
    const std::string& name) const {
  // Copy the record under the lock, aggregate after release: the server
  // accessor calls must never extend the registry critical section.
  Hosted hosted;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      throw SessionError("stats: no session named '" + name + "'");
    }
    hosted = it->second;
  }
  return stats_of(name, hosted);
}

std::vector<SessionManager::SessionStats> SessionManager::stats_all() const {
  const auto pinned = pin_all();
  std::vector<SessionStats> out;
  out.reserve(pinned.size());
  for (const auto& [name, hosted] : pinned) {
    out.push_back(stats_of(name, hosted));
  }
  return out;
}

obs::RegistrySnapshot SessionManager::metrics_snapshot() const {
  const auto pinned = pin_all();
  // Snapshot outside the registry lock; sessions sharing one obs::Registry
  // may overlap, so duplicate (name, labels) series are dropped.
  obs::RegistrySnapshot out;
  const auto merge = [&out](obs::RegistrySnapshot s) {
    for (auto& inst : s.instruments) {
      const bool seen = std::any_of(
          out.instruments.begin(), out.instruments.end(),
          [&inst](const obs::InstrumentSnapshot& have) {
            return have.name == inst.name && have.labels == inst.labels;
          });
      if (!seen) out.instruments.push_back(std::move(inst));
    }
  };
  for (const auto& [name, hosted] : pinned) {
    merge(hosted.server->metrics_snapshot());
  }
  // Process-wide subsystem telemetry (database tiers, clean-time cache,
  // thread pools) carries no session label but belongs on the serving
  // process's exposition page alongside its sessions.
  obs::RegistrySnapshot process_wide;
  for (auto& inst : obs::Registry::global().snapshot().instruments) {
    const bool session_scoped = std::any_of(
        inst.labels.begin(), inst.labels.end(),
        [](const auto& kv) { return kv.first == "session"; });
    if (!session_scoped) process_wide.instruments.push_back(std::move(inst));
  }
  merge(std::move(process_wide));
  return out;
}

}  // namespace protuner::harmony
