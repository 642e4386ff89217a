// Network serving tier benchmark (DESIGN.md §14): the epoll loop + binary
// wire protocol measured at two shapes —
//
//   BM_NetFetchReportRoundTrip   one connection, width-1 session: the
//                                localhost floor of a fetch + report pair,
//                                over the local Unix name a 127.0.0.1
//                                server publishes.  One wire round trip
//                                per pair: report() only sends (its ack
//                                is pipelined), and the next fetch_into
//                                reads that ack ahead of its own reply
//                                (encode → send → epoll → decode → serve
//                                → reply → decode).  The client polls for
//                                that reply before it blocks, so it is
//                                not woken; the loop thread still is, out
//                                of epoll_wait.
//   BM_NetFetchReportRoundTripTcp  the same pair over loopback TCP (server
//                                and client on 127.0.0.2, where no local
//                                name is published): the floor remote
//                                clients and scrapes still pay.
//   BM_NetManyConnections/C      a C-connection soak (64 / 256 / 1024)
//                                through apps::run_loadgen's loopback
//                                mode: one rank per connection, sessions
//                                of 256 ranks, phase-locked rounds.  The
//                                p99 counters come from the obs:: wire
//                                histograms the server publishes anyway.
//   BM_NetSoakWithScrapes/Hz     the 256-connection soak with an HTTP
//                                /metrics scraper antagonist hitting the
//                                same epoll loop at Hz (0 = baseline).
//                                ops_per_sec at /50 vs /0 is the recorded
//                                cost of serving the exporter in-loop
//                                (acceptance: <= 3%).
//
// BENCH_net.json (bench_smoke_net ctest / bench-smoke target) is the
// committed trajectory file; its 1024-connection entry is the C10k-style
// acceptance record for the tier.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "apps/harmony_loadgen.h"
#include "core/fixed.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"

namespace {

using namespace protuner;

void fetch_report_round_trip(benchmark::State& state, const char* address) {
  obs::Registry registry;
  harmony::SessionManager manager;
  harmony::ServerOptions so;
  so.metrics = &registry;
  so.record_series = false;
  so.session = "bench-rtt";
  manager.create("bench-rtt",
                 std::make_unique<core::FixedStrategy>(core::Point{1.0, 2.0}),
                 1, so);
  net::NetServerOptions no;
  no.bind_address = address;
  no.metrics = &registry;
  no.poll_interval = std::chrono::milliseconds(1);
  net::NetServer net(manager, no);
  std::thread loop([&net] { net.run(); });
  {
    net::ClientOptions co;
    co.host = address;
    co.port = net.port();
    net::HarmonyClient client(co);
    client.attach("bench-rtt", 0);
    core::Point scratch;
    for (auto _ : state) {
      client.fetch_into(0, scratch);
      client.report(0, 1.0);
    }
    client.detach(0);
  }
  net.stop();
  loop.join();
  state.SetItemsProcessed(state.iterations() * 2);  // fetch + report
  const obs::RegistrySnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot wire =
      apps::aggregate_histogram(snap, "protuner_net_fetch_wire_ns");
  state.counters["fetch_wire_p50_ns"] = wire.p50();
  state.counters["fetch_wire_p99_ns"] = wire.p99();
}

void BM_NetFetchReportRoundTrip(benchmark::State& state) {
  fetch_report_round_trip(state, "127.0.0.1");
}
BENCHMARK(BM_NetFetchReportRoundTrip);

void BM_NetFetchReportRoundTripTcp(benchmark::State& state) {
  fetch_report_round_trip(state, "127.0.0.2");
}
BENCHMARK(BM_NetFetchReportRoundTripTcp);

void BM_NetManyConnections(benchmark::State& state) {
  const std::size_t connections = static_cast<std::size_t>(state.range(0));
  apps::LoadgenOptions options;
  options.mode = apps::LoadgenMode::kLoopback;
  // One rank per connection; sessions cap at 256 ranks so round width (and
  // with it round wall time) stays bounded as the connection count grows.
  options.sessions = std::max<std::size_t>(1, connections / 256);
  options.workers = connections / options.sessions;
  options.ranks = options.workers;
  options.rounds = std::max<std::size_t>(10, 40960 / connections);
  options.heavy_tail = true;
  apps::LoadgenReport rep;
  for (auto _ : state) {
    rep = apps::run_loadgen(options);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rep.fetch_ops + rep.report_ops) *
                                state.iterations()));
  state.counters["connections"] =
      static_cast<double>(rep.net_connections);
  state.counters["ops_per_sec"] = rep.ops_per_sec;
  // The acceptance quantile: server-side fetch wire latency (decode to
  // reply queued, including the wait for the round to open) from obs::.
  state.counters["fetch_wire_p50_ns"] = rep.wire_fetch_p50_ns;
  state.counters["fetch_wire_p99_ns"] = rep.wire_fetch_p99_ns;
  state.counters["fetch_wire_p999_ns"] = rep.wire_fetch_p999_ns;
  // Serving-core fetch latency (the in-process histogram), for comparing
  // the wire overhead against the direct-call soak in BENCH_serving.json.
  state.counters["fetch_p99_ns"] = rep.fetch_p99_ns;
}
BENCHMARK(BM_NetManyConnections)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_NetSoakWithScrapes(benchmark::State& state) {
  apps::LoadgenOptions options;
  options.mode = apps::LoadgenMode::kLoopback;
  options.sessions = 1;
  options.ranks = 256;
  options.workers = 256;
  options.rounds = 160;
  options.heavy_tail = true;
  options.scrape_hz = static_cast<double>(state.range(0));
  apps::LoadgenReport rep;
  for (auto _ : state) {
    rep = apps::run_loadgen(options);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>((rep.fetch_ops + rep.report_ops) *
                                state.iterations()));
  state.counters["ops_per_sec"] = rep.ops_per_sec;
  state.counters["scrapes"] = static_cast<double>(rep.scrapes);
  state.counters["fetch_wire_p99_ns"] = rep.wire_fetch_p99_ns;
}
BENCHMARK(BM_NetSoakWithScrapes)->Arg(0)->Arg(50)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: the 1024-connection soak needs headroom above the common
// 1024 soft fd limit (each connection is a client fd + an accepted fd).
int main(int argc, char** argv) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < 16384) {
    rl.rlim_cur = std::min<rlim_t>(rl.rlim_max, 16384);
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
