// End-to-end tests of the epoll serving tier (net/net_server.h) over real
// loopback sockets: session completion through net::HarmonyClient,
// rank multiplexing, malformed-frame containment (Error frame + close,
// server survives), dead-client-mid-round straggler handling under the
// report-deadline machinery, wire-telemetry visibility through obs::, the
// pipelined-report contract (late errors, no delivered report lost to a
// crash), session detach/remove/re-create churn, and the exits of the
// client's reply wait (io_timeout, a server closing mid-wait), and the
// local Unix transport (when it is published, its fallback to TCP, and no
// report lost to a client's close).
//
// Each test runs the NetServer loop on a dedicated thread and drives it
// from the test thread through real connections — the same topology as a
// production deployment, minus network distance.  Tests whose outcome
// could depend on the address family run twice: over the local Unix name
// a server on 127.0.0.1 publishes, and over TCP on 127.0.0.2, where no
// name is published.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fixed.h"
#include "harmony/session_manager.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "net/stats_codec.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace protuner {
namespace {

using core::Point;

// How test clients reach the server: the local Unix name (server and
// client on 127.0.0.1) or TCP alone (both on 127.0.0.2, no name published).
enum class Transport { kLocal, kTcp };

struct LoopFixture {
  obs::Registry registry;
  harmony::SessionManager manager;
  std::unique_ptr<net::NetServer> server;
  // While `hold` is set the loop parks between iterations (`held` confirms
  // it), so a test can stage socket state the server must not read yet.
  std::atomic<bool> hold{false};
  std::atomic<bool> held{false};
  std::thread loop;

  const Transport transport;

  explicit LoopFixture(Transport t = Transport::kLocal,
                       net::NetServerOptions options = {})
      : transport(t) {
    options.bind_address = address();
    options.metrics = &registry;
    // A short poll interval keeps deadline sweeps and parked-fetch checks
    // responsive at test scale.
    options.poll_interval = std::chrono::milliseconds(1);
    server = std::make_unique<net::NetServer>(manager, options);
    loop = std::thread([this] {
      server->run_until([this] {
        while (hold.load()) {
          held.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        held.store(false);
        return false;
      });
    });
  }

  ~LoopFixture() {
    hold.store(false);
    server->stop();
    loop.join();
  }

  std::shared_ptr<harmony::Server> host(const std::string& name,
                                        std::size_t clients,
                                        harmony::ServerOptions so = {}) {
    so.metrics = &registry;
    so.session = name;
    return manager.create(
        name, std::make_unique<core::FixedStrategy>(Point{1.0, 2.0}),
        clients, so);
  }

  const char* address() const {
    return transport == Transport::kLocal ? "127.0.0.1" : "127.0.0.2";
  }

  net::ClientOptions client_options() const {
    net::ClientOptions co;
    co.host = address();
    co.port = server->port();
    return co;
  }

  /// A bare connected socket over this fixture's transport, for tests
  /// that speak frames by hand; -1 on failure.
  int connect_raw() const {
    int fd = -1;
    int rc = -1;
    if (transport == Transport::kLocal) {
      sockaddr_un addr{};
      const socklen_t len = net::local_address(server->port(), addr);
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0) rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), len);
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server->port());
      ::inet_pton(AF_INET, address(), &addr.sin_addr);
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd >= 0) {
        rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      }
    }
    if (rc != 0 && fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    return fd;
  }
};

class NetLoopTransport : public ::testing::TestWithParam<Transport> {};

INSTANTIATE_TEST_SUITE_P(
    , NetLoopTransport,
    ::testing::Values(Transport::kLocal, Transport::kTcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return info.param == Transport::kLocal ? "Local" : "Tcp";
    });

TEST_P(NetLoopTransport, SingleConnectionDrivesAWholeSessionToCompletion) {
  LoopFixture fx(GetParam());
  auto hosted = fx.host("solo", 4);
  net::HarmonyClient client(fx.client_options());
  EXPECT_EQ(client.attach("solo", 0), 4u);
  Point cfg;
  constexpr std::size_t kRounds = 25;
  for (std::size_t k = 0; k < kRounds; ++k) {
    // One connection multiplexes all four ranks, phase-locked.
    for (std::uint32_t r = 0; r < 4; ++r) {
      client.fetch_into(r, cfg);
      EXPECT_EQ(cfg, (Point{1.0, 2.0}));
    }
    for (std::uint32_t r = 0; r < 4; ++r) {
      client.report(r, 1.0 + r);
    }
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), kRounds);
  EXPECT_DOUBLE_EQ(hosted->total_time(), kRounds * 4.0);  // max over ranks
}

TEST_P(NetLoopTransport, ManyConnectionsShareOneSession) {
  LoopFixture fx(GetParam());
  auto hosted = fx.host("shared", 8);
  constexpr std::size_t kRounds = 10;
  std::vector<std::thread> drivers;
  for (std::uint32_t r = 0; r < 8; ++r) {
    drivers.emplace_back([&fx, r] {
      net::HarmonyClient client(fx.client_options());
      client.attach("shared", r);
      Point cfg;
      for (std::size_t k = 0; k < kRounds; ++k) {
        client.fetch_into(r, cfg);
        client.report(r, 1.0);
      }
      client.detach(r);
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(hosted->rounds_completed(), kRounds);
  EXPECT_EQ(fx.server->connections_accepted(), 8u);
}

TEST_P(NetLoopTransport, MalformedFrameGetsErrorFrameAndCloseServerSurvives) {
  LoopFixture fx(GetParam());
  auto hosted = fx.host("resilient", 1);

  // Raw socket: send garbage that fails frame validation (bad version).
  const int fd = fx.connect_raw();
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> garbage;
  net::append_simple(garbage, net::MsgType::kAttach, 0, "resilient");
  garbage[4] = 0x7F;  // wrong wire version
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one Error frame, then closes.
  std::vector<std::uint8_t> reply(4096);
  std::size_t got = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    if (n <= 0) break;  // clean EOF after the error frame
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  const net::Decoded d = net::decode_frame({reply.data(), got});
  ASSERT_EQ(d.status, net::DecodeStatus::kFrame);
  EXPECT_EQ(d.frame.type, net::MsgType::kError);
  EXPECT_EQ(fx.server->decode_errors(), 1u);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("resilient", 0);
  Point cfg;
  for (int k = 0; k < 5; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 5u);
}

TEST_P(NetLoopTransport, ProtocolMisuseMapsToProtocolErrorOnTheClient) {
  LoopFixture fx(GetParam());
  fx.host("strict", 2);
  {
    // Fetch before attach.
    net::HarmonyClient client(fx.client_options());
    Point cfg;
    EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  }
  {
    // Unknown session.
    net::HarmonyClient client(fx.client_options());
    EXPECT_THROW(client.attach("no-such-session", 0),
                 harmony::ProtocolError);
  }
  {
    // Out-of-range rank.
    net::HarmonyClient client(fx.client_options());
    client.attach("strict", 0);
    Point cfg;
    EXPECT_THROW(client.fetch_into(99, cfg), harmony::ProtocolError);
  }
  {
    // Double fetch without report.
    net::HarmonyClient client(fx.client_options());
    client.attach("strict", 0);
    Point cfg;
    client.fetch_into(0, cfg);
    EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  }
}

TEST_P(NetLoopTransport, DeadClientMidRoundBecomesAStraggler) {
  LoopFixture fx(GetParam());
  harmony::ServerOptions so;
  so.report_timeout = std::chrono::duration<double>(0.05);
  so.straggler_policy = harmony::StragglerPolicy::kShrink;
  auto hosted = fx.host("deadline", 2, so);

  // Rank 1 fetches its assignment and dies without reporting.
  {
    net::HarmonyClient doomed(fx.client_options());
    doomed.attach("deadline", 1);
    Point cfg;
    doomed.fetch_into(1, cfg);
    doomed.close();  // no detach, no report: a crashed client
  }

  // Rank 0 keeps serving; the loop's tick sweep must expire the deadline,
  // impute the straggler and keep rounds flowing.
  net::HarmonyClient client(fx.client_options());
  client.attach("deadline", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_GE(hosted->rounds_completed(), 3u);
  EXPECT_EQ(hosted->active_ranks(), 1u);  // rank 1 dropped as straggler
}

TEST_P(NetLoopTransport, WireTelemetryIsVisibleThroughObs) {
  LoopFixture fx(GetParam());
  fx.host("observed", 1);
  net::HarmonyClient client(fx.client_options());
  client.attach("observed", 0);
  Point cfg;
  for (int k = 0; k < 10; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 2.0);
  }
  client.detach(0);

  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  bool saw_fetch_hist = false;
  bool saw_report_hist = false;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t accepted = 0;
  std::uint64_t local = 0;
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    if (inst.name == "protuner_net_fetch_wire_ns") {
      saw_fetch_hist = true;
      EXPECT_EQ(inst.hist.count, 10u);
      ASSERT_EQ(inst.labels.size(), 1u);
      EXPECT_EQ(inst.labels[0].first, "session");
      EXPECT_EQ(inst.labels[0].second, "observed");
    }
    if (inst.name == "protuner_net_report_wire_ns") {
      saw_report_hist = true;
      EXPECT_EQ(inst.hist.count, 10u);
    }
    if (inst.name == "protuner_net_bytes_in_total") {
      bytes_in = static_cast<std::uint64_t>(inst.value);
    }
    if (inst.name == "protuner_net_bytes_out_total") {
      bytes_out = static_cast<std::uint64_t>(inst.value);
    }
    if (inst.name == "protuner_net_connections_accepted_total") {
      accepted = static_cast<std::uint64_t>(inst.value);
    }
    if (inst.name == "protuner_net_local_connections_total") {
      local = static_cast<std::uint64_t>(inst.value);
    }
  }
  EXPECT_TRUE(saw_fetch_hist);
  EXPECT_TRUE(saw_report_hist);
  EXPECT_GT(bytes_in, 0u);
  EXPECT_GT(bytes_out, 0u);
  EXPECT_EQ(accepted, 1u);
  // The path the client took shows on /metrics.
  EXPECT_EQ(local, GetParam() == Transport::kLocal ? 1u : 0u);
  EXPECT_EQ(fx.server->local_connections(), local);

  // The Prometheus exposition carries the net tier.
  std::ostringstream prom;
  obs::render_prometheus(prom, snap);
  const std::string page = prom.str();
  EXPECT_NE(page.find("protuner_net_bytes_in_total"), std::string::npos);
  EXPECT_NE(page.find("protuner_net_fetch_wire_ns"), std::string::npos);
  EXPECT_NE(page.find("session=\"observed\""), std::string::npos);
}

const obs::InstrumentSnapshot* find_with_client_label(
    const obs::RegistrySnapshot& snap, std::string_view name,
    std::string_view client) {
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    if (inst.name != name) continue;
    for (const auto& [k, v] : inst.labels) {
      if (k == "client" && v == client) return &inst;
    }
  }
  return nullptr;
}

TEST(NetLoop, ClientStatsPushMergesUnderTheClientLabel) {
  LoopFixture fx;
  fx.host("telemetry", 1);
  obs::Registry client_registry;
  obs::Counter& widgets =
      client_registry.counter("loadgen_widgets_total", "app-side counter");
  obs::Histogram& think =
      client_registry.histogram("loadgen_think_ns", "app-side latency");
  net::ClientOptions co = fx.client_options();
  co.metrics = &client_registry;
  co.stats_every_rounds = 2;  // push after every second report
  net::HarmonyClient client(co);
  client.attach("telemetry", 0);  // rank 0 names the series

  widgets.add(7);
  think.record(1000.0);
  Point cfg;
  for (int k = 0; k < 2; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  // The periodic push is synchronous with the second report's ack.
  const obs::RegistrySnapshot mid = fx.registry.snapshot();
  const obs::InstrumentSnapshot* merged =
      find_with_client_label(mid, "loadgen_widgets_total", "0");
  ASSERT_NE(merged, nullptr) << "periodic push did not reach the server";
  EXPECT_EQ(merged->value, 7.0);
  const obs::InstrumentSnapshot* hist =
      find_with_client_label(mid, "loadgen_think_ns", "0");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 1u);
  // The client's own wire histograms ride along, client-labelled.
  EXPECT_NE(find_with_client_label(mid, "protuner_net_client_fetch_ns", "0"),
            nullptr);

  // More activity, then detach: the final delta accumulates on top.
  widgets.add(3);
  think.record(5000.0);
  client.detach(0);
  const obs::RegistrySnapshot after = fx.registry.snapshot();
  merged = find_with_client_label(after, "loadgen_widgets_total", "0");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->value, 10.0) << "deltas must accumulate across pushes";
  hist = find_with_client_label(after, "loadgen_think_ns", "0");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist->hist.max, 5000.0);
}

struct LastFrame {
  net::MsgType type = net::MsgType::kAttach;
  std::string body;  ///< the frame's body (an Error frame's message)
  bool eof = false;  ///< the server closed the connection after it
};

// Raw-socket driver for hostile-client tests: sends `wire` verbatim, reads
// until the server closes (or 5 s pass), and returns the last reply frame
// (the server closes after an Error, so that is what a contained failure
// ends with).
LastFrame drive_raw(const LoopFixture& fx,
                    const std::vector<std::uint8_t>& wire) {
  const int fd = fx.connect_raw();
  EXPECT_GE(fd, 0);
  const timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // server already closed on us: the replies tell all
    sent += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> reply(1 << 16);
  std::size_t got = 0;
  LastFrame last;
  for (;;) {
    const ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
    last.eof = n == 0;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bool any = false;
  std::size_t off = 0;
  for (;;) {
    const net::Decoded d = net::decode_frame({reply.data() + off, got - off});
    if (d.status != net::DecodeStatus::kFrame) break;
    last.type = d.frame.type;
    last.body.assign(d.frame.body.begin(), d.frame.body.end());
    any = true;
    off += d.consumed;
  }
  EXPECT_TRUE(any) << "no decodable reply frame";
  return last;
}

std::vector<std::uint8_t> stats_frame(const obs::RegistrySnapshot& snap) {
  std::vector<std::uint8_t> body;
  net::encode_stats(body, snap);
  std::vector<std::uint8_t> frame;
  net::append_frame(frame, net::MsgType::kStats, 0, {},
                    {body.data(), body.size()});
  return frame;
}

TEST_P(NetLoopTransport, Version1AttachGetsAnErrorFrameAndAClose) {
  // Wire version 1 is retired: a v1 Attach is a bad frame like any other
  // wrong version byte.  The peer gets the diagnostic and a closed
  // connection; the session it named is untouched.
  LoopFixture fx(GetParam());
  auto hosted = fx.host("legacy", 1);
  std::vector<std::uint8_t> wire;
  net::append_simple(wire, net::MsgType::kAttach, 0, "legacy");
  wire[4] = 1;  // the version byte
  const LastFrame last = drive_raw(fx, wire);
  EXPECT_EQ(last.type, net::MsgType::kError);
  EXPECT_EQ(last.body, "unsupported wire version");
  EXPECT_TRUE(last.eof);
  EXPECT_EQ(fx.server->decode_errors(), 1u);

  net::HarmonyClient client(fx.client_options());
  EXPECT_EQ(client.attach("legacy", 0), 1u);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 1u);
}

TEST_P(NetLoopTransport, KindMismatchStatsPushClosesTheConnectionNotTheServer) {
  // Regression: merge_from throws std::logic_error when a pushed instrument
  // collides with an existing one of a different kind.  Escaping the event
  // loop would std::terminate the whole server; it must cost exactly the
  // one connection, like any other client misbehaviour.
  LoopFixture fx(GetParam());
  auto hosted = fx.host("armored", 1);

  std::vector<std::uint8_t> wire;
  net::append_simple(wire, net::MsgType::kAttach, 0, "armored");
  obs::Registry first;
  first.counter("flip_total").add(1);
  const std::vector<std::uint8_t> push1 = stats_frame(first.snapshot());
  wire.insert(wire.end(), push1.begin(), push1.end());
  obs::Registry second;
  second.gauge("flip_total").set(1);  // same name+labels, different kind
  const std::vector<std::uint8_t> push2 = stats_frame(second.snapshot());
  wire.insert(wire.end(), push2.begin(), push2.end());

  EXPECT_EQ(drive_raw(fx, wire).type, net::MsgType::kError);
  EXPECT_GE(fx.server->decode_errors(), 1u);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("armored", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 3u);
}

TEST(NetLoop, StatsSeriesChurnPastTheCapClosesTheConnection) {
  // A client minting unique metric names on every push would grow the
  // server registry (and the /metrics page) without bound; past the
  // per-connection cap the push is rejected and the connection closed.
  net::NetServerOptions no;
  no.max_stats_series = 8;
  LoopFixture fx(Transport::kLocal, no);
  auto hosted = fx.host("bounded", 1);
  const std::size_t before = fx.registry.size();

  obs::Registry churner;
  for (int i = 0; i < 20; ++i) {
    churner.counter("churn_" + std::to_string(i) + "_total").add(1);
  }
  std::vector<std::uint8_t> wire;
  net::append_simple(wire, net::MsgType::kAttach, 0, "bounded");
  const std::vector<std::uint8_t> push = stats_frame(churner.snapshot());
  wire.insert(wire.end(), push.begin(), push.end());

  EXPECT_EQ(drive_raw(fx, wire).type, net::MsgType::kError);
  EXPECT_GE(fx.server->decode_errors(), 1u);
  // At most the cap's worth of churn series landed (+2 for the session's
  // own wire histograms, minted by the attach).
  EXPECT_LE(fx.registry.size(), before + 2 + 8);
  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  EXPECT_NE(find_with_client_label(snap, "churn_0_total", "0"), nullptr)
      << "series under the cap still merge";
  EXPECT_EQ(find_with_client_label(snap, "churn_19_total", "0"), nullptr);

  // The loop is unharmed: a well-behaved client completes rounds.
  net::HarmonyClient client(fx.client_options());
  client.attach("bounded", 0);
  Point cfg;
  for (int k = 0; k < 3; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(hosted->rounds_completed(), 3u);
}

TEST(NetLoop, WatchdogStallDumpCapturesTheParkedFetchAndTheImpute) {
  // The acceptance scenario for the flight recorder: a client dies holding
  // a round open, the survivor's next fetch parks, the deadline imputes
  // the dead rank, and when the fleet finally goes quiet the stall
  // watchdog dumps a ring that still holds both edges.
  obs::FlightRecorder flight(512);
  net::NetServerOptions no;
  no.stall_timeout = std::chrono::duration<double>(0.25);
  no.flight = &flight;
  LoopFixture fx(Transport::kLocal, no);
  harmony::ServerOptions so;
  so.report_timeout = std::chrono::duration<double>(0.05);
  so.straggler_policy = harmony::StragglerPolicy::kShrink;
  so.flight = &flight;
  auto hosted = fx.host("blackbox", 2, so);

  // Rank 1 fetches its assignment and dies mid-round.
  {
    net::HarmonyClient doomed(fx.client_options());
    doomed.attach("blackbox", 1);
    Point cfg;
    doomed.fetch_into(1, cfg);
    doomed.close();
  }

  net::HarmonyClient client(fx.client_options());
  client.attach("blackbox", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  // Round 0 still waits on the dead rank 1: this fetch parks until the
  // deadline expires and imputes the straggler.
  client.fetch_into(0, cfg);
  // Now go silent while staying attached.  Rounds stop advancing; after
  // stall_timeout the watchdog declares the session stalled and dumps.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->stall_dumps() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fx.server->stall_dumps(), 1u) << "watchdog never fired";

  // The ring holds the whole post-mortem: the parked fetch, the deadline
  // expiry, the imputation of the dead rank, and the stall declaration.
  bool saw_park = false;
  bool saw_impute_dead_rank = false;
  bool saw_deadline = false;
  bool saw_stall = false;
  bool saw_fail = false;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    const std::string_view kind = e.kind != nullptr ? e.kind : "";
    saw_park |= kind == "fetch/park" && e.rank == 0;
    saw_impute_dead_rank |= kind == "rank/impute" && e.rank == 1;
    saw_deadline |= kind == "deadline/expire";
    saw_stall |= kind == "stall/dump";
    saw_fail |= kind == "session/fail";
  }
  EXPECT_TRUE(saw_park) << "parked fetch missing from the flight ring";
  EXPECT_TRUE(saw_impute_dead_rank)
      << "imputation of the dead rank missing from the flight ring";
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_fail) << "the fleet-wide silence must fail the session";
  EXPECT_GE(hosted->rounds_completed(), 1u);
  client.close();
}

TEST(NetLoop, SessionManagerSnapshotSeesNetAndSessionTelemetryTogether) {
  LoopFixture fx;
  fx.host("combined", 1);
  net::HarmonyClient client(fx.client_options());
  client.attach("combined", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  client.detach(0);
  // Both the harmony server instruments and the wire instruments live in
  // the one registry the fixture wired everywhere.
  const obs::RegistrySnapshot snap = fx.registry.snapshot();
  bool harmony_fetch = false;
  bool wire_fetch = false;
  for (const obs::InstrumentSnapshot& inst : snap.instruments) {
    harmony_fetch |= inst.name == "protuner_harmony_fetch_ns";
    wire_fetch |= inst.name == "protuner_net_fetch_wire_ns";
  }
  EXPECT_TRUE(harmony_fetch);
  EXPECT_TRUE(wire_fetch);
}

// Polls `done` until it holds or two seconds pass.
template <typename Pred>
bool eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Completes `rounds` rounds of a fresh connection to `session` (P = 1).
void drive_rounds(const LoopFixture& fx, const std::string& session,
                  std::size_t rounds) {
  net::HarmonyClient client(fx.client_options());
  client.attach(session, 0);
  Point cfg;
  for (std::size_t k = 0; k < rounds; ++k) {
    client.fetch_into(0, cfg);
    client.report(0, 1.0);
  }
  client.detach(0);
}

TEST_P(NetLoopTransport, PipelinedReportMisuseSurfacesAtTheNextFetch) {
  // report() returns once its frame is written, so a report the server
  // rejects (here: a second report without a fetch) throws from the next
  // call that reads a reply.
  LoopFixture fx(GetParam());
  auto hosted = fx.host("late", 1);
  net::HarmonyClient client(fx.client_options());
  client.attach("late", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  client.report(0, 1.0);  // misuse: rank 0 has not fetched again
  EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(hosted->rounds_completed(), 1u);  // the good report counted

  drive_rounds(fx, "late", 3);  // the server survives
  EXPECT_EQ(hosted->rounds_completed(), 4u);
}

TEST_P(NetLoopTransport, PipelinedReportMisuseSurfacesAtDetach) {
  LoopFixture fx(GetParam());
  auto hosted = fx.host("late-bye", 1);
  obs::Registry client_registry;  // detach's stats push must not mask it
  net::ClientOptions co = fx.client_options();
  co.metrics = &client_registry;
  net::HarmonyClient client(co);
  client.attach("late-bye", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);
  client.report(0, 1.0);  // misuse
  EXPECT_THROW(client.detach(0), harmony::ProtocolError);
  EXPECT_FALSE(client.connected());

  drive_rounds(fx, "late-bye", 3);
  EXPECT_EQ(hosted->rounds_completed(), 4u);
}

TEST_P(NetLoopTransport, PipelinedReportErrorOutlivesTheConnectionReset) {
  // Frames sent after the server closed on an Error fail to send: over TCP
  // the server's kernel answers the first with a reset and a later send
  // fails with a broken pipe; over the local Unix socket the first send
  // fails at once.  The Error frame is already in the client's receive
  // buffer; it, not the broken pipe, must be what the caller sees.
  LoopFixture fx(GetParam());
  fx.host("reset", 2);
  net::HarmonyClient client(fx.client_options());
  client.attach("reset", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.fetch_into(1, cfg);
  client.report(0, 1.0);
  client.report(0, 1.0);  // misuse: the server sends Error and closes
  ASSERT_TRUE(eventually([&] { return fx.server->connections_closed() == 1; }));
  if (GetParam() == Transport::kTcp) {
    client.report(1, 1.0);  // lands on a closed socket: the peer resets
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_THROW(client.fetch_into(0, cfg), harmony::ProtocolError);
  } else {
    // The report's own send finds the connection torn down, so report()
    // may throw (the "later report" case of its contract); otherwise the
    // fetch does.  Either way the server's diagnostic, never a NetError.
    try {
      client.report(1, 1.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      client.fetch_into(0, cfg);
      ADD_FAILURE() << "the rejected report never surfaced";
    } catch (const harmony::ProtocolError& ex) {
      EXPECT_NE(std::string(ex.what()).find("reported without fetching"),
                std::string::npos)
          << ex.what();
    } catch (const net::NetError& ex) {
      ADD_FAILURE() << "a transport error masked the diagnostic: "
                    << ex.what();
    }
  }
  EXPECT_FALSE(client.connected());
}

// A bare connection speaking frames by hand, for tests that need the
// kernel's view of the socket, which net::HarmonyClient hides.
class RawConn {
 public:
  explicit RawConn(const LoopFixture& fx) : fd_(fx.connect_raw()) {}
  ~RawConn() { close(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool send(const std::vector<std::uint8_t>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Type of the next frame; kError also stands for a closed connection.
  net::MsgType next_frame() {
    for (;;) {
      const net::Decoded d = net::decode_frame({in_.data(), used_});
      if (d.status == net::DecodeStatus::kFrame) {
        const net::MsgType type = d.frame.type;
        std::memmove(in_.data(), in_.data() + d.consumed, used_ - d.consumed);
        used_ -= d.consumed;
        return type;
      }
      if (d.status == net::DecodeStatus::kBadFrame) return net::MsgType::kError;
      const ssize_t n = ::recv(fd_, in_.data() + used_, in_.size() - used_, 0);
      if (n <= 0) return net::MsgType::kError;
      used_ += static_cast<std::size_t>(n);
    }
  }

  /// Bytes sent but not yet acknowledged by the peer's kernel.
  int unacked_bytes() const { return queued(SIOCOUTQ); }
  /// Bytes received by the kernel but not yet read.
  int unread_bytes() const { return queued(SIOCINQ); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int queued(unsigned long request) const {
    int n = -1;
    return ::ioctl(fd_, request, &n) == 0 ? n : -1;
  }

  int fd_;
  std::array<std::uint8_t, 4096> in_{};
  std::size_t used_ = 0;
};

TEST(NetLoop, ReportsDeliveredBeforeACrashAreAllApplied) {
  // A client that reports and dies without detaching, its acks unread,
  // makes its kernel reset the connection.  Reports its kernel already
  // delivered must still be applied: the server reads what is queued on
  // its side of the socket before it sees the reset.  (Bytes a crash
  // leaves unsent are lost with the reset; the deadline machinery owns
  // that case, as for a client that died before reporting.)  TCP only:
  // a Unix send enqueues straight onto the server's socket, so the local
  // path has no such window (LocalReportsWrittenBeforeACloseAreAllApplied).
  LoopFixture fx(Transport::kTcp);
  constexpr std::uint32_t kRanks = 4;
  for (int trial = 0; trial < 20; ++trial) {
    const std::string name = "crash-" + std::to_string(trial);
    auto hosted = fx.host(name, kRanks);
    RawConn raw(fx);
    ASSERT_TRUE(raw.connected());
    std::vector<std::uint8_t> frame;
    net::append_simple(frame, net::MsgType::kAttach, 0, name);
    ASSERT_TRUE(raw.send(frame));
    ASSERT_EQ(raw.next_frame(), net::MsgType::kAttach);
    for (int k = 0; k < 2; ++k) {
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        frame.clear();
        net::append_simple(frame, net::MsgType::kFetch, r, {});
        ASSERT_TRUE(raw.send(frame));
        net::MsgType reply = raw.next_frame();
        while (reply == net::MsgType::kReport) reply = raw.next_frame();
        ASSERT_EQ(reply, net::MsgType::kFetch);
      }
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        if (k == 1 && r + 1 == kRanks) {
          // Leave acks unread, so the close below resets the connection,
          // and hold the loop, so the last report is still unread on the
          // server's side when the reset arrives.
          ASSERT_TRUE(eventually([&] { return raw.unread_bytes() > 0; }));
          fx.hold.store(true);
          ASSERT_TRUE(eventually([&] { return fx.held.load(); }));
        }
        frame.clear();
        net::append_report(frame, r, {}, 1.0 + r);
        ASSERT_TRUE(raw.send(frame));
      }
    }
    // Every byte is in the server's kernel before the crash.
    ASSERT_TRUE(eventually([&] { return raw.unacked_bytes() == 0; }));
    raw.close();
    fx.hold.store(false);
    EXPECT_TRUE(eventually([&] { return hosted->rounds_completed() == 2; }))
        << name << " lost a report: rounds=" << hosted->rounds_completed();
  }
}

TEST(NetLoop, RemoveRightAfterDetachNeverSeesTheAttachment) {
  // The loop releases a connection's attachment before it queues the
  // Detach ack, so once detach() returns the session is free to remove.
  LoopFixture fx;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "churn-" + std::to_string(i);
    fx.host(name, 1);
    drive_rounds(fx, name, 1);
    try {
      EXPECT_TRUE(fx.manager.remove(name));
    } catch (const harmony::SessionError& ex) {
      ADD_FAILURE() << ex.what();
    }
  }
}

TEST(NetLoop, RemovedSessionsServerIsFreedAfterItsLastDetach) {
  // The loop keeps a session's entry after the last connection leaves, but
  // not its server: once the session is removed, nothing pins the Server
  // and the loop stops ticking it.
  LoopFixture fx;
  const std::weak_ptr<harmony::Server> weak = fx.host("ephemeral", 1);
  drive_rounds(fx, "ephemeral", 2);
  ASSERT_TRUE(fx.manager.remove("ephemeral"));
  EXPECT_TRUE(eventually([&weak] { return weak.expired(); }));
}

TEST(NetLoop, RecreatedSessionNameResolvesToTheNewServer) {
  LoopFixture fx;
  auto first = fx.host("phoenix", 1);
  drive_rounds(fx, "phoenix", 3);
  ASSERT_TRUE(fx.manager.remove("phoenix"));
  {
    net::HarmonyClient client(fx.client_options());
    EXPECT_THROW(client.attach("phoenix", 0), harmony::ProtocolError);
  }

  harmony::ServerOptions so;
  so.metrics = &fx.registry;
  so.session = "phoenix";
  auto second = fx.manager.create(
      "phoenix", std::make_unique<core::FixedStrategy>(Point{3.0, 4.0}), 1,
      so);
  net::HarmonyClient client(fx.client_options());
  client.attach("phoenix", 0);
  Point cfg;
  for (int k = 0; k < 2; ++k) {
    client.fetch_into(0, cfg);
    EXPECT_EQ(cfg, (Point{3.0, 4.0}));
    client.report(0, 1.0);
  }
  client.detach(0);
  EXPECT_EQ(second->rounds_completed(), 2u);
  EXPECT_EQ(first->rounds_completed(), 3u);
  EXPECT_TRUE(fx.manager.remove("phoenix"));
}

TEST_P(NetLoopTransport, FetchWhoseRoundNeverOpensTimesOutAndTheLoopSurvives) {
  // The reply wait polls before it blocks; a round that never opens must
  // still end in the io_timeout NetError once the blocking receive expires.
  LoopFixture fx(GetParam());
  fx.host("stuck", 2);
  net::ClientOptions co = fx.client_options();
  co.io_timeout = std::chrono::milliseconds(100);
  net::HarmonyClient client(co);
  client.attach("stuck", 0);
  Point cfg;
  client.fetch_into(0, cfg);
  client.report(0, 1.0);  // rank 1 never reports: the next round never opens
  const auto started = std::chrono::steady_clock::now();
  try {
    client.fetch_into(0, cfg);
    ADD_FAILURE() << "fetch returned from a round that never opened";
  } catch (const net::NetError& ex) {
    EXPECT_EQ(std::string(ex.what()), "receive timed out");
  }
  EXPECT_GE(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(100));
  EXPECT_FALSE(client.connected());

  auto alive = fx.host("alive", 1);
  drive_rounds(fx, "alive", 3);
  EXPECT_EQ(alive->rounds_completed(), 3u);
}

TEST(NetLoop, ServerClosingDuringTheReplyWaitIsANetError) {
  // A stand-in server reads the Fetch and closes, either at once (the
  // client is still polling) or after 20 ms (it has fallen through to the
  // blocking receive).  Both must end in NetError at the close, not in a
  // hang until io_timeout.
  for (const auto delay :
       {std::chrono::milliseconds(0), std::chrono::milliseconds(20)}) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::listen(listener, 1), 0);
    ASSERT_EQ(
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

    net::ClientOptions co;
    co.port = ntohs(addr.sin_port);
    co.io_timeout = std::chrono::seconds(10);
    net::HarmonyClient client(co);  // queued in the backlog until accepted
    std::thread server([listener, delay] {
      const int fd = ::accept(listener, nullptr, nullptr);
      std::array<std::uint8_t, 64> fetch{};
      (void)::recv(fd, fetch.data(), fetch.size(), 0);
      std::this_thread::sleep_for(delay);
      ::close(fd);
    });
    Point cfg;
    try {
      client.fetch_into(0, cfg);
      ADD_FAILURE() << "fetch returned from a closed connection";
    } catch (const net::NetError& ex) {
      EXPECT_EQ(std::string(ex.what()), "server closed the connection")
          << "delay " << delay.count() << " ms";
    } catch (const std::exception& ex) {
      ADD_FAILURE() << ex.what();
    }
    EXPECT_FALSE(client.connected());
    server.join();
    ::close(listener);
  }
}

// True when something listens on the local Unix name for `port`.
bool local_name_listens(std::uint16_t port) {
  sockaddr_un addr{};
  const socklen_t len = net::local_address(port, addr);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  const bool ok =
      fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0;
  if (fd >= 0) ::close(fd);
  return ok;
}

TEST(NetLoop, LocalNameIsPublishedOnlyWhenTheServerOwnsLoopback) {
  // 127.0.0.1 and 0.0.0.0 binds own 127.0.0.1:<port>, the address a client
  // maps to the name; a 127.0.0.2 bind does not, and must stay silent.
  harmony::SessionManager manager;
  for (const char* bind : {"127.0.0.1", "0.0.0.0", "127.0.0.2"}) {
    net::NetServer server(manager, {.bind_address = bind});
    EXPECT_EQ(local_name_listens(server.port()),
              std::string_view(bind) != "127.0.0.2")
        << bind;
  }
}

TEST(NetLoop, TakenLocalNameMakesTheConstructorThrow) {
  // Reserve a TCP port without listening on it (SO_REUSEADDR lets the
  // server bind it too), squat on its local name, then start a server
  // there: it must refuse rather than leave its local clients to the
  // squatter.
  const int reserve = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(reserve, 0);
  int one = 1;
  ::setsockopt(reserve, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in in{};
  in.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &in.sin_addr);
  socklen_t in_len = sizeof(in);
  ASSERT_EQ(::bind(reserve, reinterpret_cast<sockaddr*>(&in), in_len), 0);
  ASSERT_EQ(::getsockname(reserve, reinterpret_cast<sockaddr*>(&in), &in_len),
            0);
  const std::uint16_t port = ntohs(in.sin_port);

  const int squatter = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(squatter, 0);
  sockaddr_un un{};
  const socklen_t un_len = net::local_address(port, un);
  ASSERT_EQ(::bind(squatter, reinterpret_cast<sockaddr*>(&un), un_len), 0);
  ASSERT_EQ(::listen(squatter, 4), 0);

  harmony::SessionManager manager;
  EXPECT_THROW(net::NetServer(manager, {.port = port}), net::NetError);
  // The failed constructor released what it had bound: with the name
  // free again, the same port serves.
  ::close(squatter);
  net::NetServer server(manager, {.port = port});
  EXPECT_EQ(server.port(), port);
  EXPECT_TRUE(local_name_listens(port));
  ::close(reserve);
}

TEST(NetLoop, ClientFallsBackToTcpWhenNoLocalNameListens) {
  // A plain TCP stand-in on 127.0.0.1 publishes no name; the client must
  // reach it over TCP in the same connect attempt.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread stand_in([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    std::array<std::uint8_t, 64> request{};
    (void)::recv(fd, request.data(), request.size(), 0);
    std::vector<std::uint8_t> ack;
    net::append_attach_ack(ack, 0, 7);
    (void)::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
    (void)::recv(fd, request.data(), request.size(), 0);  // until close
    ::close(fd);
  });
  {
    net::ClientOptions co;
    co.port = ntohs(addr.sin_port);
    co.connect_timeout = std::chrono::milliseconds(500);
    net::HarmonyClient client(co);
    EXPECT_EQ(client.attach("anything", 0), 7u);
  }
  stand_in.join();
  ::close(listener);
}

TEST(NetLoop, LocalReportsWrittenBeforeACloseAreAllApplied) {
  // A client that reports and closes without detaching, its acks unread:
  // on the local path every report whose send returned is already queued
  // on the server's socket, so each one is applied — also when the loop is
  // held and only reads them after the close.
  LoopFixture fx;
  constexpr std::uint32_t kRanks = 4;
  constexpr std::size_t kTrials = 1000;
  auto hosted = fx.host("closer", kRanks);
  Point cfg;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    net::HarmonyClient client(fx.client_options());
    client.attach("closer", 0);
    for (int k = 0; k < 2; ++k) {
      for (std::uint32_t r = 0; r < kRanks; ++r) client.fetch_into(r, cfg);
      if (k == 1 && trial % 2 == 0) {
        fx.hold.store(true);
        ASSERT_TRUE(eventually([&] { return fx.held.load(); }));
      }
      for (std::uint32_t r = 0; r < kRanks; ++r) client.report(r, 1.0 + r);
    }
    client.close();
    fx.hold.store(false);
    ASSERT_TRUE(eventually(
        [&] { return hosted->rounds_completed() == 2 * (trial + 1); }))
        << "trial " << trial
        << " lost a report: rounds=" << hosted->rounds_completed();
  }
  EXPECT_EQ(fx.server->local_connections(), kTrials);
}

}  // namespace
}  // namespace protuner
