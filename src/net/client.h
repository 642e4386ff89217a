// Client side of the harmony wire protocol (net/frame.h, DESIGN.md §14):
// a blocking, single-connection library a tuning client process links to
// speak fetch/report with a remote NetServer.
//
// The call surface deliberately mirrors harmony::Server so in-process code
// ports to remote serving by swapping the handle: attach() then
// fetch_into()/report() per measurement, detach() when done.  fetch_into()
// blocks until the server opens the round for this rank — exactly like the
// in-process fetch — bounded by Options::io_timeout.
//
// Error mapping: an Error frame from the server carries a harmony protocol
// diagnostic and is rethrown as harmony::ProtocolError, so remote clients
// see the identical exception type in-process clients do.  Transport
// failures (refused, reset, timeout, malformed reply) are NetError.
//
// Transport: aimed at host 127.0.0.1, the client first connects to the
// local Unix name a NetServer owning 127.0.0.1:<port> publishes
// (net::local_address), and falls back to TCP in the same attempt when
// nothing listens there; any other host is plain TCP.  Frames, timeouts
// and error mapping are identical either way.
//
// One connection may drive many ranks (each frame carries the rank), which
// is how the load generator multiplexes a worker's rank slice over a single
// socket.  attach/fetch_into/push_stats/detach are synchronous
// request/reply.  report() is pipelined: it writes its frame and returns
// without waiting for the (empty) ack.  The server applies a connection's
// frames in order, so a report is applied before any later frame from the
// same connection; the next call that reads the socket first consumes the
// outstanding acks, and an Error frame among them is rethrown there as
// harmony::ProtocolError — a failed report surfaces late, never silently.
// The class is not thread-safe — one owner thread per client.
//
// Waiting for a reply polls briefly before it blocks: non-blocking
// receives with sched_yield() between them, for a budget that adapts to
// how soon replies have been arriving (at most 50 µs), then the blocking
// receive bounded by Options::io_timeout.  On loopback this skips the
// thread wake-up that otherwise dominates a round trip; yielding and the
// shrinking budget keep it from starving the server on an oversubscribed
// host (DESIGN.md §14, "Wait policy").
//
// Steady-state fetch/report is allocation-free: the encode and decode
// buffers are reused across calls and replies are parsed in place.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.h"
#include "net/frame.h"
#include "net/net_server.h"  // NetError
#include "obs/metrics.h"

namespace protuner::net {

struct ClientOptions {
  /// Server address.  Exactly "127.0.0.1" prefers the local Unix name.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Window during which connect() retries (the server process may still
  /// be binding when a forked client starts).
  std::chrono::milliseconds connect_timeout{5000};
  /// Bound on each blocking send/receive.  fetch_into() waits up to this
  /// long for the server to open the round.  A reply wait first polls for
  /// at most 50 µs, then blocks for up to this long.
  std::chrono::milliseconds io_timeout{60000};
  std::size_t max_frame = kMaxFrameBytes;
  /// When set, the client records its call latencies as
  /// protuner_net_client_{fetch,report}_ns{session=...} in this registry
  /// (fetch: the round trip; report: the send only, as reports are
  /// pipelined).
  /// It is also the registry the telemetry push ships from (see
  /// push_stats): detach — and every stats_every_rounds reports when
  /// enabled — sends the delta since the last push as a Stats frame, which
  /// the server merges under {client="<rank>"} labels.  Give the client its
  /// OWN registry (as a separate client process naturally would), not one a
  /// co-resident server merges pushes into — pushing a registry you are
  /// merged into echoes the merged series back on every push.
  obs::Registry* metrics = nullptr;
  /// Push metric deltas every N successful reports (0: only on detach).
  std::size_t stats_every_rounds = 0;
};

class HarmonyClient {
 public:
  /// Connects immediately, retrying inside connect_timeout.  Throws
  /// NetError when the server never becomes reachable.
  explicit HarmonyClient(ClientOptions options);
  ~HarmonyClient();
  HarmonyClient(const HarmonyClient&) = delete;
  HarmonyClient& operator=(const HarmonyClient&) = delete;

  /// Binds this connection to `session` and registers interest for `rank`.
  /// Returns the session's expected client count (P).  Further frames omit
  /// the session name.
  std::uint32_t attach(const std::string& session, std::uint32_t rank);

  /// Blocks until the server assigns `rank` a configuration for the
  /// current round.  harmony::ProtocolError mirrors the in-process
  /// misuse/deadline failures; NetError covers the transport.
  void fetch_into(std::uint32_t rank, core::Point& out);

  /// Reports the measured time for `rank`'s outstanding configuration.
  /// Returns once the frame is written to the socket, not once the server
  /// has applied it; the server still applies it before any later frame
  /// of this connection.  A rejected report (e.g. no outstanding fetch)
  /// throws harmony::ProtocolError from the next call that reads a reply
  /// — fetch_into, push_stats or detach — or from a later report whose
  /// send finds the connection already torn down.
  void report(std::uint32_t rank, double time);

  /// Graceful goodbye: reads the acks of pipelined reports (rethrowing a
  /// rejected one as harmony::ProtocolError), pushes any outstanding
  /// metric deltas, then the server acks and closes; so does the client.
  /// Once it returns, every report of this connection has been applied.
  void detach(std::uint32_t rank);

  /// Ships the delta of Options::metrics since the last push as a Stats
  /// frame and waits for the ack.  No-op when disconnected or no registry
  /// was configured; a quiet period (empty delta) sends nothing.  detach()
  /// calls this; call it directly for mid-run pushes.
  void push_stats(std::uint32_t rank);

  /// Drops the connection without the detach handshake (the server treats
  /// it as a dead client: a straggler if mid-round).  Idempotent.
  void close();

  bool connected() const { return fd_ >= 0; }

 private:
  void connect_with_retry();
  /// Applies the IO timeouts to a connected socket and makes it fd_.
  void adopt(int fd);
  void send_buffer();
  /// Receives exactly one frame (handles partial and coalesced reads).
  const Frame& recv_frame();
  /// Non-blocking recv tries, yielding between them, for at most spin_ns_.
  /// Returns recv's result; -1 with errno EAGAIN once the budget is spent.
  ssize_t poll_recv(std::uint8_t* buf, std::size_t room);
  /// recv_frame + Error-frame mapping + type check.
  const Frame& read_reply(MsgType type);
  /// Reads the acks of every pipelined report; an Error frame among them
  /// is rethrown as harmony::ProtocolError.
  void drain_acks();
  /// drain_acks, then read_reply for the request just sent.
  const Frame& expect_reply(MsgType type);

  ClientOptions options_;
  int fd_ = -1;
  std::string session_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  std::size_t in_used_ = 0;
  std::size_t consumed_ = 0;  ///< bytes of in_ owned by the last frame
  Frame frame_;               ///< views into in_; valid until the next call
  obs::Histogram* fetch_ns_ = nullptr;
  obs::Histogram* report_ns_ = nullptr;
  WireTrace last_trace_;      ///< trailer of the last fetch reply
  bool has_last_trace_ = false;
  obs::RegistrySnapshot last_pushed_;  ///< baseline for the next stats delta
  std::vector<std::uint8_t> stats_body_;
  std::size_t reports_since_push_ = 0;
  std::size_t unacked_reports_ = 0;  ///< report acks not yet read
  /// Bounds of the reply poll's budget.  The cap is well above a loopback
  /// round trip and well below a slice worth a thread's CPU; the floor keeps
  /// one cheap non-blocking try ahead of every blocking recv.
  static constexpr double kSpinCapNs = 50'000;
  static constexpr double kSpinFloorNs = 1'000;
  /// Reply poll budget (ns): a reply polled t ns in raises it to 2t (up to
  /// the cap); a poll that runs out halves it (down to the floor).
  double spin_ns_ = kSpinCapNs;
};

}  // namespace protuner::net
