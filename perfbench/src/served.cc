// Served workloads: one tuning session of 48 application ranks at a time,
// driven closed-loop (zero think time) through the harmony serving tier.
//
//   serve_net     2 HarmonyClient connections x 24 ranks against one
//                 in-process NetServer event loop; telemetry pushes every
//                 kPushEvery rounds and a GET /metrics scrape at kScrapeHz.
//   serve_inproc  4 threads x 12 ranks calling harmony::Server directly.
//
// Every rank evaluates its configuration as cluster::SimulatedCluster
// would: the GS2 database's clean time plus one Pareto draw from the rank's
// own noise stream (util::Rng(seed).split_streams(48)[rank]), so each
// served session must reproduce core::run_session bit for bit.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "cluster/simulated_cluster.h"
#include "common.h"
#include "core/session.h"
#include "core/strategy_spec.h"
#include "exp/parallel_runner.h"
#include "harmony/server.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

namespace protuner::perfbench {
namespace {

constexpr const char* kStrategy = "pro:k=2";
constexpr double kRho = 0.2;
constexpr std::size_t kRanks = 48;
constexpr std::size_t kPushEvery = 20;
constexpr double kScrapeHz = 1.0;
constexpr int kSetupTrials = 9;

struct Shape {
  bool net = false;
  unsigned threads = 1;        ///< client threads (connections on the wire)
  std::size_t rounds = 0;      ///< tuning rounds per session
  std::size_t min_sessions = 0;  ///< always run; ntt and best_clean use these
};

enum LayerId {
  kSetup,       ///< connect/attach/detach, stream and buffer set-up
  kBarrier,     ///< first fetch of a round: waits for the round to open
  kFetch,       ///< the other fetches of the round
  kLookup,      ///< gs2::Database::clean_time
  kObserve,     ///< varmodel::ParetoNoise::sample
  kReport,      ///< reports that do not close the round
  kReportLast,  ///< a connection's last report of the round (wire only)
  kClose,       ///< the report during which the round advanced (in-process)
  kPush,        ///< HarmonyClient::push_stats
  kLayerCount
};

/// One client thread's record of one session.
struct ClientLedger {
  Layer layers[kLayerCount];
  Samples round_period_ns;  ///< thread 0: between its round starts
  std::int64_t wall_ns = 0;
  std::string error;
};

struct SessionOut {
  std::size_t index = 0;
  std::string name;
  std::size_t rounds = 0;
  double total_time = 0;
  std::optional<std::size_t> convergence;
  core::Point best;
  double wall_ns = 0;
  std::string error;  ///< first client error, empty when none
};

/// One served session's server side: its own registry, a session manager
/// and the NetServer event loop.  The loop thread is declared last so it
/// starts after, and is joined before, the members it uses.
struct NetHost {
  obs::Registry metrics;
  harmony::SessionManager manager;
  net::NetServer server{manager, net_options(metrics)};
  std::thread loop{[this] { server.run(); }};

  static net::NetServerOptions net_options(obs::Registry& r) {
    net::NetServerOptions o;
    o.metrics = &r;
    return o;
  }

  NetHost() = default;
  NetHost(const NetHost&) = delete;
  NetHost& operator=(const NetHost&) = delete;
  ~NetHost() {
    server.stop();
    loop.join();
  }
};

/// One GET /metrics over a fresh connection; true on a 200 response.
bool scrape_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0;
  static constexpr char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ok = ok && ::send(fd, kRequest, sizeof(kRequest) - 1, MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(sizeof(kRequest) - 1);
  char buf[1 << 14];
  for (ssize_t n; ok && (n = ::recv(fd, buf, sizeof(buf), 0)) != 0;) {
    if (n < 0) ok = false;
    else body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ok && body.rfind("HTTP/1.0 200", 0) == 0;
}

/// The client threads of a phase.  They live across sessions, so a
/// session's wall time holds no thread start-up; start() releases every
/// thread into `work(t)` once, and wait_until() reports when all are done.
class Crew {
 public:
  Crew(unsigned n, std::function<void(unsigned)> work)
      : n_(n), work_(std::move(work)) {
    for (unsigned t = 0; t < n; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  ~Crew() {
    {
      const std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& th : threads_) th.join();
  }

  std::thread& thread(unsigned t) { return threads_[t]; }

  void start() {
    {
      const std::lock_guard lock(mu_);
      done_ = 0;
      ++generation_;
    }
    cv_.notify_all();
  }

  /// Blocks until every thread has finished the current job.
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return done_ == n_; });
  }

  /// wait() that gives up at `due`; true when the job is done.
  bool wait_until(std::chrono::steady_clock::time_point due) {
    std::unique_lock lock(mu_);
    return cv_.wait_until(lock, due, [this] { return done_ == n_; });
  }

 private:
  void loop(unsigned t) {
    std::uint64_t seen = 0;
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      lock.unlock();
      work_(t);
      lock.lock();
      ++done_;
      cv_.notify_all();
    }
  }

  const unsigned n_;
  const std::function<void(unsigned)> work_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  unsigned done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

harmony::ServerOptions server_options(obs::Registry& r) {
  harmony::ServerOptions o;
  o.metrics = &r;
  return o;
}

/// A phase's session registries folded by instrument name, whatever the
/// labels: histograms merged bucket-wise, counters added.
struct Folded {
  std::map<std::string, obs::HistogramSnapshot> hist;
  std::map<std::string, double> counter;

  void add(const obs::RegistrySnapshot& snap) {
    for (const obs::InstrumentSnapshot& i : snap.instruments) {
      if (i.kind == obs::InstrumentKind::kCounter) {
        counter[i.name] += i.value;
      } else if (i.kind == obs::InstrumentKind::kHistogram) {
        obs::HistogramSnapshot& h = hist[i.name];
        h.counts.resize(obs::Histogram::kBucketCount, 0);
        for (std::size_t b = 0; b < i.hist.counts.size(); ++b) {
          h.counts[b] += i.hist.counts[b];
        }
        h.count += i.hist.count;
        h.max = std::max(h.max, i.hist.max);
      }
    }
  }
  double quantile(const std::string& name, double q) const {
    const auto it = hist.find(name);
    return it == hist.end() ? 0.0 : it->second.quantile(q);
  }
  double total(const std::string& name) const {
    const auto it = counter.find(name);
    return it == counter.end() ? 0.0 : it->second;
  }
};

class ServedRun {
 public:
  ServedRun(const Args& args, const Shape& shape)
      : args_(args), shape_(shape) {}

  Result run();

 private:
  struct Phase {
    std::vector<SessionOut> sessions;
    // Folded in after every session, so memory stays flat however many
    // sessions a run completes.
    Layer layers[kLayerCount];
    Samples round_period_ns;
    std::vector<ThreadTime> closure;  ///< per client thread, all sessions
    Samples scrape_ns;
    Counters counters;
    Folded metrics;               ///< every session's own registry
    std::vector<double> series;   ///< registry size at each session's end
    double rounds() const {
      double n = 0;
      for (const SessionOut& s : sessions) n += static_cast<double>(s.rounds);
      return n;
    }
  };

  /// What the crew runs for the current session.
  struct Job {
    harmony::Server* server = nullptr;  ///< in-process target
    std::uint16_t port = 0;             ///< wire target
    std::string session;
    std::uint64_t seed = 0;
    bool traced = false;
    ClientLedger* ledgers = nullptr;    ///< one per client thread
  };

  double setup_trial();
  Phase run_phase(double seconds, std::size_t min_sessions, bool traced);
  SessionOut run_session(std::size_t index, bool traced, Phase& phase,
                         Crew& crew);
  /// One client thread: `server` in-process, or the wire at `port`.
  void client(harmony::Server* server, std::uint16_t port,
              const std::string& session, std::uint64_t seed, unsigned t,
              bool traced, ClientLedger& L);
  void gate(Result& r, const std::vector<SessionOut>& sessions);
  void put_layers(Result& r, const Phase& p);

  const Args& args_;
  const Shape shape_;
  Substrate sub_;
  varmodel::ParetoNoise noise_{kRho, kAlpha};
  std::size_t next_session_ = 0;
  std::int64_t next_scrape_ = 0;
  Job job_;
};

double ServedRun::setup_trial() {
  const std::int64_t t0 = now_ns();
  sub_ = build_substrate();
  if (!shape_.net) {
    obs::Registry metrics;
    harmony::Server server(core::make_strategy(kStrategy, sub_.space, 1),
                           kRanks, server_options(metrics));
    return static_cast<double>(now_ns() - t0) / 1e9;
  }
  NetHost host;
  host.manager.create("setup", core::make_strategy(kStrategy, sub_.space, 1),
                      kRanks, server_options(host.metrics));
  std::vector<std::unique_ptr<net::HarmonyClient>> clients;
  for (unsigned t = 0; t < shape_.threads; ++t) {
    clients.push_back(std::make_unique<net::HarmonyClient>(
        net::ClientOptions{.port = host.server.port()}));
    clients.back()->attach("setup",
                           static_cast<std::uint32_t>(t * kRanks /
                                                      shape_.threads));
  }
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  for (auto& c : clients) c->close();
  return s;
}

void ServedRun::client(harmony::Server* server, std::uint16_t port,
                       const std::string& session, std::uint64_t seed,
                       unsigned t, bool traced, ClientLedger& L) {
  const std::int64_t start = now_ns();
  Chain chain(traced);
  Layer* const layers = L.layers;
  const std::size_t per = kRanks / shape_.threads;
  const auto lo = static_cast<std::uint32_t>(t * per);
  // The client's own registry: it must never be one the server merges
  // pushes into (see net::ClientOptions::metrics).
  obs::Registry client_metrics;
  std::optional<net::HarmonyClient> conn;
  std::vector<util::Rng> rngs;
  std::vector<core::Point> cfg;
  std::vector<double> y;
  try {
    chain.start();
    rngs = util::Rng(seed).split_streams(kRanks);
    cfg.resize(per);
    y.resize(per);
    if (shape_.net) {
      conn.emplace(net::ClientOptions{
          .port = port,
          .io_timeout = std::chrono::milliseconds(30000),
          .metrics = &client_metrics});
      conn->attach(session, lo);
    }
    chain.lap(layers[kSetup]);
    std::int64_t prev_start = -1;
    for (std::size_t k = 0; k < shape_.rounds; ++k) {
      if (t == 0) {
        const std::int64_t s = now_ns();
        if (prev_start >= 0) {
          L.round_period_ns.add(static_cast<double>(s - prev_start));
        }
        prev_start = s;
      }
      chain.start();
      for (std::uint32_t j = 0; j < per; ++j) {
        if (conn) conn->fetch_into(lo + j, cfg[j]);
        else server->fetch_into(lo + j, cfg[j]);
        chain.lap(layers[j == 0 ? kBarrier : kFetch]);
      }
      for (std::uint32_t j = 0; j < per; ++j) {
        const double clean = sub_.db->clean_time(cfg[j]);
        chain.lap(layers[kLookup]);
        y[j] = clean + noise_.sample(clean, rngs[lo + j]);
        chain.lap(layers[kObserve]);
      }
      for (std::uint32_t j = 0; j < per; ++j) {
        const bool last = j + 1 == per;
        if (conn) {
          conn->report(lo + j, y[j]);
          chain.lap(layers[last ? kReportLast : kReport]);
        } else {
          const std::size_t before = last ? server->rounds_completed() : 0;
          server->report(lo + j, y[j]);
          const bool closed = last && server->rounds_completed() != before;
          chain.lap(layers[closed ? kClose : kReport]);
        }
      }
      if (conn && (k + 1) % kPushEvery == 0) {
        conn->push_stats(lo);
        chain.lap(layers[kPush]);
      }
    }
    chain.start();
    if (conn) conn->detach(lo);
    chain.lap(layers[kSetup]);
  } catch (const std::exception& ex) {
    L.error = "client " + std::to_string(t) + ": " + ex.what();
  }
  L.wall_ns = now_ns() - start;
}

SessionOut ServedRun::run_session(std::size_t index, bool traced,
                                  Phase& phase, Crew& crew) {
  SessionOut out;
  out.index = index;
  out.name = "s" + std::to_string(index);
  const std::uint64_t seed = mix_seed(args_.seed, index);
  const std::int64_t t0 = now_ns();
  // A fresh server side per session: a long-lived one keeps every finished
  // session's series (obs::Registry never sheds them and looks them up
  // linearly), so its push and scrape costs would grow with run length.
  obs::Registry inproc_metrics;
  std::optional<NetHost> host;
  if (shape_.net) {
    host.emplace();
    pin_thread(host->loop, 0);
  }
  obs::Registry& metrics = host ? host->metrics : inproc_metrics;
  auto strategy = core::make_strategy(kStrategy, sub_.space, seed);
  std::shared_ptr<harmony::Server> server =
      host ? host->manager.create(out.name, std::move(strategy), kRanks,
                                  server_options(metrics))
           : std::make_shared<harmony::Server>(std::move(strategy), kRanks,
                                               server_options(metrics));
  const std::uint16_t port = host ? host->server.port() : 0;

  std::vector<ClientLedger> ledgers(shape_.threads);
  job_ = {server.get(), port, out.name, seed, traced, ledgers.data()};
  crew.start();
  // The main thread scrapes /metrics at a fixed rate while the session
  // runs, on one schedule across sessions.
  if (!shape_.net) crew.wait();
  while (shape_.net) {
    const auto due = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(next_scrape_));
    if (crew.wait_until(due)) break;
    const std::int64_t a = now_ns();
    const bool ok = scrape_metrics(port);
    phase.scrape_ns.add(static_cast<double>(now_ns() - a));
    next_scrape_ = std::max(
        next_scrape_ + static_cast<std::int64_t>(1e9 / kScrapeHz), now_ns());
    if (!ok) out.error = "GET /metrics failed";
  }
  phase.closure.resize(shape_.threads);
  for (unsigned t = 0; t < shape_.threads; ++t) {
    const ClientLedger& L = ledgers[t];
    if (out.error.empty()) out.error = L.error;
    phase.closure[t].wall_ns += L.wall_ns;
    for (int i = 0; i < kLayerCount; ++i) {
      phase.layers[i].merge(L.layers[i]);
      phase.closure[t].accounted_ns += L.layers[i].total_ns;
    }
  }
  phase.round_period_ns.merge(ledgers[0].round_period_ns);
  out.wall_ns = static_cast<double>(now_ns() - t0);
  out.rounds = server->rounds_completed();
  out.total_time = server->total_time();
  out.convergence = server->convergence_round();
  out.best = server->best_point();
  phase.metrics.add(metrics.snapshot());
  phase.series.push_back(static_cast<double>(metrics.size()));
  return out;
}

ServedRun::Phase ServedRun::run_phase(double seconds,
                                      std::size_t min_sessions,
                                      bool traced) {
  Phase p;
  Crew crew(shape_.threads, [this](unsigned t) {
    client(job_.server, job_.port, job_.session, job_.seed, t, job_.traced,
           job_.ledgers[t]);
  });
  // The wire loop owns CPU 0; its clients take the next ones.
  for (unsigned t = 0; shape_.net && t < shape_.threads; ++t) {
    pin_thread(crew.thread(t), t + 1);
  }
  const Counters before = Counters::read();
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  while (p.sessions.size() < min_sessions || now_ns() - start < budget) {
    p.sessions.push_back(run_session(next_session_++, traced, p, crew));
  }
  p.counters = Counters::read() - before;
  return p;
}

/// Every served session must equal in-process core::run_session on
/// cluster::SimulatedCluster with the same seed: Total_Time, convergence
/// round and best point, bit for bit.
void ServedRun::gate(Result& r, const std::vector<SessionOut>& sessions) {
  struct Ref {
    double total_time = 0;
    std::optional<std::size_t> convergence;
    core::Point best;
  };
  const auto refs = exp::run_repetitions(
      static_cast<long>(sessions.size()), 0,
      [&](const exp::RepContext& c) {
        const SessionOut& s = sessions[static_cast<std::size_t>(c.rep)];
        const std::uint64_t seed = mix_seed(args_.seed, s.index);
        cluster::SimulatedCluster machine(
            sub_.db, std::make_shared<varmodel::ParetoNoise>(kRho, kAlpha),
            {.ranks = kRanks, .seed = seed});
        auto strategy = core::make_strategy(kStrategy, sub_.space, seed);
        const core::SessionResult res = core::run_session(
            *strategy, machine,
            {.steps = shape_.rounds, .record_series = false});
        return Ref{res.total_time, res.convergence_step, res.best};
      });
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionOut& s = sessions[i];
    if (!s.error.empty()) {
      r.fail("session " + s.name + ": " + s.error);
    } else if (s.rounds != shape_.rounds ||
               s.total_time != refs[i].total_time ||
               s.convergence != refs[i].convergence ||
               s.best != refs[i].best) {
      r.fail("session " + s.name +
             " differs from in-process run_session with the same seed");
    } else {
      continue;
    }
    ++r.failed;
  }
}

void ServedRun::put_layers(Result& r, const Phase& p) {
  const auto q = [&](LayerId id, double quant) {
    return p.layers[id].ns.quantile(quant);
  };
  auto& m = r.metrics;
  const double rounds = p.rounds();
  m["gs2.lookup_ns_p50"] = q(kLookup, 0.5);
  m["varmodel.observe_ns_p50"] = q(kObserve, 0.5);
  put_substrate_metrics(r, p.counters, rounds);
  if (!shape_.net) {
    m["harmony.fetch_ns_p50"] = q(kFetch, 0.5);
    m["harmony.fetch_ns_p99"] = q(kFetch, 0.99);
    m["harmony.report_ns_p50"] = q(kReport, 0.5);
    m["harmony.barrier_us_p50"] = us(q(kBarrier, 0.5));
    m["harmony.close_us_p50"] = us(q(kClose, 0.5));
  } else {
    m["net.fetch_rtt_us_p50"] = us(q(kFetch, 0.5));
    m["net.fetch_rtt_us_p99"] = us(q(kFetch, 0.99));
    m["net.report_rtt_us_p50"] = us(q(kReport, 0.5));
    m["net.barrier_us_p50"] = us(q(kBarrier, 0.5));
    const double bytes = p.metrics.total("protuner_net_bytes_in_total") +
                         p.metrics.total("protuner_net_bytes_out_total");
    m["net.bytes_per_round"] = rounds > 0 ? bytes / rounds : 0;
    m["net.decode_errors"] =
        p.metrics.total("protuner_net_decode_errors_total");
    m["net.fetch_wire_us_p50"] =
        us(p.metrics.quantile("protuner_net_fetch_wire_ns", 0.5));
    m["net.report_wire_us_p50"] =
        us(p.metrics.quantile("protuner_net_report_wire_ns", 0.5));
    m["obs.push_us_p50"] = us(q(kPush, 0.5));
    m["obs.scrape_ms_p50"] = p.scrape_ns.quantile(0.5) / 1e6;
    m["obs.series"] = percentile(p.series, 0.5);
  }
  m["harmony.server_fetch_ns_p50"] =
      p.metrics.quantile("protuner_harmony_fetch_ns", 0.5);
  m["harmony.server_report_ns_p50"] =
      p.metrics.quantile("protuner_harmony_report_ns", 0.5);
  const double worst = worst_unaccounted(p.closure);
  m["bench.unaccounted_share"] = worst;
  if (worst > kClosureTolerance) {
    r.fail("closure: a client thread's timed layers leave " +
           std::to_string(worst) + " of its wall time unaccounted (> " +
           std::to_string(kClosureTolerance) + ")");
  }
}

Result ServedRun::run() {
  Result r;
  r.provenance["threads"] = std::to_string(shape_.threads);
  r.provenance["connections"] = shape_.net ? std::to_string(shape_.threads)
                                           : std::string("0");
  r.provenance["ranks"] = std::to_string(kRanks);
  r.provenance["rounds_per_session"] = std::to_string(shape_.rounds);
  const double setup_s =
      median_setup_s(kSetupTrials, [this] { return setup_trial(); });
  next_scrape_ = now_ns();

  std::vector<SessionOut> all;
  const auto collect = [&](const Phase& p) {
    all.insert(all.end(), p.sessions.begin(), p.sessions.end());
  };
  // Median over sessions: robust to the odd session a neighbour stalls.
  const auto rate = [](const Phase& p) {
    std::vector<double> v;
    for (const SessionOut& s : p.sessions) {
      v.push_back(static_cast<double>(s.rounds) / (s.wall_ns / 1e9));
    }
    return percentile(v, 0.5);
  };

  if (!args_.trace) {
    const Phase p = run_phase(args_.seconds, shape_.min_sessions, false);
    collect(p);
    std::vector<double> walls;
    double ntt = 0, best_clean = 0;
    for (std::size_t i = 0; i < p.sessions.size(); ++i) {
      const SessionOut& s = p.sessions[i];
      walls.push_back(s.wall_ns / 1e6);
      if (i < shape_.min_sessions) {
        ntt += (1.0 - kRho) * s.total_time;
        best_clean += sub_.db->clean_time(s.best);
      }
    }
    const auto n = static_cast<double>(shape_.min_sessions);
    auto& m = r.metrics;
    m["setup_s"] = setup_s;
    m["rounds_per_s"] = rate(p);
    m["round_us_p50"] = us(p.round_period_ns.quantile(0.5));
    m["session_ms_p50"] = percentile(walls, 0.5);
    m["ntt"] = ntt / n;
    m["best_clean_s"] = best_clean / n;
  } else {
    const Phase plain = run_phase(args_.seconds / 2, 1, false);
    const Phase traced = run_phase(args_.seconds / 2, 1, true);
    collect(plain);
    collect(traced);
    put_layers(r, traced);
    r.metrics["bench.trace_overhead_share"] = 1.0 - rate(traced) / rate(plain);
  }
  r.attempted = all.size();
  gate(r, all);
  if (!args_.trace) r.metrics["peak_rss_mb"] = peak_rss_mb();
  return r;
}

}  // namespace

Result run_serve_net(const Args& a) {
  return ServedRun(a, {.net = true, .threads = 2, .rounds = 200,
                       .min_sessions = 32})
      .run();
}

Result run_serve_inproc(const Args& a) {
  return ServedRun(a, {.net = false, .threads = 4, .rounds = 250,
                       .min_sessions = 512})
      .run();
}

}  // namespace protuner::perfbench
