// Distributed Harmony over real sockets: one tuning-server PROCESS and N
// application-client PROCESSES speaking the binary wire protocol
// (DESIGN.md §14) through net::NetServer / net::HarmonyClient — the
// multi-process analogue of Active Harmony's socket architecture, and the
// successor of the message-passing (in-process) version of this example.
//
// Modes:
//   harmony_distributed                       # fork/exec demo: server +
//                                             #   64 client processes
//   harmony_distributed --clients N --steps K --seed S
//   harmony_distributed --selfcheck           # demo + CSV equivalence:
//                                             #   the telemetry streamed by
//                                             #   the socket-served session
//                                             #   must equal in-process
//                                             #   core::run_session for the
//                                             #   same seed
//   harmony_distributed --serve [--port P]    # server only (prints port)
//   harmony_distributed --bind ADDR           # demo/serve: bind ADDR, and
//                                             #   the demo's clients dial
//                                             #   it (default 127.0.0.1,
//                                             #   which clients reach over
//                                             #   the local Unix name;
//                                             #   127.0.0.2 keeps them on
//                                             #   TCP)
//   harmony_distributed --client HOST PORT --rank R
//                                             # one client rank
//   harmony_distributed --trace-out PREFIX    # any mode: enable tracing;
//                                             #   each process exports
//                                             #   PREFIX.{server,rankR}.json
//                                             #   and the demo parent merges
//                                             #   them into PREFIX.merged.json
//                                             #   (Perfetto-loadable),
//                                             #   verifying every client
//                                             #   fetch span joins a server
//                                             #   round by trace id
//
// Each client reproduces cluster::SimulatedCluster's per-rank noise stream
// (util::Rng(seed).split_streams(N)[rank]) so the distributed run observes
// exactly the measurements the in-process simulator would — which is what
// makes --selfcheck's byte-identical CSV comparison possible.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/session.h"
#include "core/session_log.h"
#include "core/strategy_spec.h"
#include "gs2/surface.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "util/rng.h"
#include "varmodel/pareto_noise.h"

using namespace protuner;

namespace {

constexpr const char* kSession = "gs2-dist";
constexpr double kRho = 0.2;
constexpr double kAlpha = 1.7;

struct Args {
  bool serve = false;
  bool selfcheck = false;
  bool client = false;
  std::string host = "127.0.0.1";
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t rank = 0;
  std::size_t clients = 64;
  std::size_t steps = 40;
  std::uint64_t seed = 42;
  std::string trace_out;  ///< export prefix; empty = tracing off
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--serve") {
      a.serve = true;
    } else if (arg == "--selfcheck") {
      a.selfcheck = true;
    } else if (arg == "--client") {
      a.client = true;
      a.host = next();
      a.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--rank") {
      a.rank = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--bind") {
      a.bind = next();
    } else if (arg == "--port") {
      a.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--clients") {
      a.clients = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--steps") {
      a.steps = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

// Writes this process's spans as Chrome trace JSON (Perfetto-loadable).
bool export_trace(const std::string& path, std::uint32_t pid) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  obs::Tracer::global().write_chrome_trace(out, pid);
  return static_cast<bool>(out);
}

std::string client_trace_path(const std::string& prefix, std::uint32_t rank) {
  return prefix + ".rank" + std::to_string(rank) + ".json";
}

// One application rank: fetch a configuration, "run" it on the GS2
// surface under per-rank Pareto noise, report the observed time.
int run_client(const Args& a) {
  if (!a.trace_out.empty()) obs::Tracer::global().configure(true);
  const gs2::Gs2Surface surface;
  const varmodel::ParetoNoise noise(kRho, kAlpha);
  util::Rng rng = util::Rng(a.seed).split_streams(a.clients)[a.rank];
  try {
    net::HarmonyClient client({.host = a.host, .port = a.port});
    client.attach(kSession, a.rank);
    core::Point cfg;
    for (std::size_t k = 0; k < a.steps; ++k) {
      client.fetch_into(a.rank, cfg);
      client.report(a.rank, noise.observe(surface.clean_time(cfg), rng));
    }
    client.detach(a.rank);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "rank %u: %s\n", a.rank, ex.what());
    return 1;
  }
  if (!a.trace_out.empty() &&
      !export_trace(client_trace_path(a.trace_out, a.rank), a.rank + 2)) {
    return 1;
  }
  return 0;
}

// Parent-side trace stitching: load the server's and every client's export,
// verify the cross-process join — every client fetch span must carry a
// trace id that some server-side round span also carries — then merge into
// one Perfetto-loadable timeline, one pid lane per process.
int merge_and_check_traces(const Args& a) {
  std::vector<std::vector<obs::MergedEvent>> inputs;
  const auto load = [&inputs](const std::string& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::vector<obs::MergedEvent> events;
    if (!in || !obs::parse_chrome_trace(text.str(), events)) {
      std::fprintf(stderr, "trace: failed to parse %s\n", path.c_str());
      return false;
    }
    inputs.push_back(std::move(events));
    return true;
  };
  if (!load(a.trace_out + ".server.json")) return 1;
  for (std::size_t r = 0; r < a.clients; ++r) {
    if (!load(client_trace_path(a.trace_out,
                                static_cast<std::uint32_t>(r)))) {
      return 1;
    }
  }

  std::set<std::string> server_rounds;
  for (const obs::MergedEvent& e : inputs[0]) {
    if (!e.trace_id.empty()) server_rounds.insert(e.trace_id);
  }
  std::size_t joined = 0;
  std::size_t orphaned = 0;
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    for (const obs::MergedEvent& e : inputs[i]) {
      if (e.name != "client/fetch" || e.trace_id.empty()) continue;
      if (server_rounds.count(e.trace_id) > 0) {
        ++joined;
      } else {
        ++orphaned;
      }
    }
  }

  const std::vector<obs::MergedEvent> merged = obs::merge_traces(inputs);
  const std::string merged_path = a.trace_out + ".merged.json";
  std::ofstream out(merged_path);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write %s\n", merged_path.c_str());
    return 1;
  }
  obs::write_merged(out, merged);
  std::printf("trace: merged %zu spans from %zu processes into %s "
              "(%zu client fetch spans joined to server rounds)\n",
              merged.size(), inputs.size(), merged_path.c_str(), joined);
  if (joined == 0 || orphaned > 0) {
    std::fprintf(stderr,
                 "trace check FAILED: %zu joined, %zu orphaned client "
                 "fetch spans\n",
                 joined, orphaned);
    return 1;
  }
  return 0;
}

// Hosts the session and runs the event loop until the requested number of
// rounds completes, then drains client goodbyes (bounded grace period).
void serve_session(harmony::SessionManager& manager, net::NetServer& net,
                   const std::shared_ptr<harmony::Server>& server,
                   std::size_t steps) {
  std::chrono::steady_clock::time_point grace_until{};
  net.run_until([&] {
    if (server->rounds_completed() < steps) return false;
    const auto now = std::chrono::steady_clock::now();
    if (grace_until == std::chrono::steady_clock::time_point{}) {
      grace_until = now + std::chrono::seconds(5);
    }
    return net.connections_closed() >= net.connections_accepted() ||
           now >= grace_until;
  });
  (void)manager;
}

void print_summary(const harmony::Server& server, const net::NetServer& net,
                   const core::ParameterSpace& space) {
  const gs2::Gs2Surface surface;
  const core::Point best = server.best_point();
  std::printf("server completed %zu rounds, Total_Time=%.2f, converged=%s\n",
              server.rounds_completed(), server.total_time(),
              server.converged() ? "yes" : "no");
  std::printf("best configuration: ntheta=%.0f negrid=%.0f nodes=%.0f "
              "(clean %.3f s/iter; default %.3f)\n",
              best[gs2::kNtheta], best[gs2::kNegrid], best[gs2::kNodes],
              surface.clean_time(best), surface.clean_time(space.center()));
  std::printf("net: %llu connections (%llu local), %llu closed, "
              "%llu decode errors\n",
              static_cast<unsigned long long>(net.connections_accepted()),
              static_cast<unsigned long long>(net.local_connections()),
              static_cast<unsigned long long>(net.connections_closed()),
              static_cast<unsigned long long>(net.decode_errors()));
}

// Server-only mode, for running the demo across terminals or machines.
int run_serve(const Args& a) {
  if (!a.trace_out.empty()) obs::Tracer::global().configure(true);
  const auto space = gs2::gs2_space();
  harmony::SessionManager manager;
  harmony::ServerOptions so;
  auto server = manager.create(
      kSession, core::make_strategy("pro:k=2", space, a.seed), a.clients,
      so);
  net::NetServer net(manager, {.bind_address = a.bind, .port = a.port});
  std::printf("serving session %s for %zu clients on %s:%u\n", kSession,
              a.clients, a.bind.c_str(), net.port());
  std::fflush(stdout);
  serve_session(manager, net, server, a.steps);
  print_summary(*server, net, space);
  if (!a.trace_out.empty() &&
      !export_trace(a.trace_out + ".server.json", 1)) {
    return 1;
  }
  return 0;
}

// Forks one client process per rank, exec'ing this same binary in
// --client mode.  The parent stays single-threaded until after every
// fork, and all loop fds are CLOEXEC, so the children start clean.
std::vector<pid_t> spawn_clients(const Args& a, std::uint16_t port) {
  char self[64];
  std::snprintf(self, sizeof(self), "/proc/self/exe");
  std::vector<pid_t> pids;
  pids.reserve(a.clients);
  for (std::size_t r = 0; r < a.clients; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      char port_s[16], rank_s[24], clients_s[24], steps_s[24], seed_s[32];
      std::snprintf(port_s, sizeof(port_s), "%u", port);
      std::snprintf(rank_s, sizeof(rank_s), "%zu", r);
      std::snprintf(clients_s, sizeof(clients_s), "%zu", a.clients);
      std::snprintf(steps_s, sizeof(steps_s), "%zu", a.steps);
      std::snprintf(seed_s, sizeof(seed_s), "%llu",
                    static_cast<unsigned long long>(a.seed));
      std::vector<char*> argv{self,      const_cast<char*>("--client"),
                              const_cast<char*>(a.bind.c_str()),
                              port_s,    const_cast<char*>("--rank"),
                              rank_s,    const_cast<char*>("--clients"),
                              clients_s, const_cast<char*>("--steps"),
                              steps_s,   const_cast<char*>("--seed"),
                              seed_s};
      if (!a.trace_out.empty()) {
        argv.push_back(const_cast<char*>("--trace-out"));
        argv.push_back(const_cast<char*>(a.trace_out.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(self, argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  return pids;
}

int reap_clients(const std::vector<pid_t>& pids) {
  int failures = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  return failures;
}

// The full demo: hosts the session, forks the clients, runs the loop in
// this process.  With --selfcheck the served session streams its CSV
// telemetry into memory and the result is compared byte-for-byte against
// core::run_session driving cluster::SimulatedCluster with the same seed.
int run_demo(const Args& a) {
  if (!a.trace_out.empty()) obs::Tracer::global().configure(true);
  const auto space = gs2::gs2_space();

  std::ostringstream reference_csv;
  if (a.selfcheck) {
    core::CsvSessionLogger logger(reference_csv);
    cluster::SimulatedCluster machine(
        std::make_shared<gs2::Gs2Surface>(),
        std::make_shared<varmodel::ParetoNoise>(kRho, kAlpha),
        {.ranks = a.clients, .seed = a.seed});
    const auto strategy = core::make_strategy("pro:k=2", space, a.seed);
    core::SessionOptions so;
    so.steps = a.steps;
    so.observer = &logger;
    (void)core::run_session(*strategy, machine, so);
  }

  std::ostringstream served_csv;
  core::CsvSessionLogger logger(served_csv);
  harmony::SessionManager manager;
  harmony::ServerOptions so;
  if (a.selfcheck) so.observer = &logger;
  auto server = manager.create(
      kSession, core::make_strategy("pro:k=2", space, a.seed), a.clients,
      so);
  net::NetServer net(manager, {.bind_address = a.bind});

  const std::vector<pid_t> pids = spawn_clients(a, net.port());
  serve_session(manager, net, server, a.steps);
  const int failures = reap_clients(pids);

  print_summary(*server, net, space);
  if (failures != 0) {
    std::fprintf(stderr, "%d client process(es) failed\n", failures);
    return 1;
  }
  if (!a.trace_out.empty()) {
    if (!export_trace(a.trace_out + ".server.json", 1)) return 1;
    if (const int rc = merge_and_check_traces(a); rc != 0) return rc;
  }
  if (a.selfcheck) {
    if (served_csv.str() != reference_csv.str() ||
        served_csv.str().empty()) {
      std::fprintf(stderr,
                   "selfcheck FAILED: socket-served telemetry differs from "
                   "in-process run_session (%zu vs %zu bytes)\n",
                   served_csv.str().size(), reference_csv.str().size());
      return 1;
    }
    std::printf("selfcheck OK: %zu bytes of telemetry identical across "
                "in-process and distributed serving\n",
                served_csv.str().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.client) return run_client(a);
  if (a.serve) return run_serve(a);
  return run_demo(a);
}
