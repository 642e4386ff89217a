#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace protuner::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      ring_(capacity > 0 ? capacity : 1) {}

FlightRecorder& FlightRecorder::global() {
  // Leaked: serving loops and signal handlers may touch it during static
  // destruction.
  static FlightRecorder* g = new FlightRecorder();
  return *g;
}

std::uint64_t FlightRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::record(const char* kind, std::string_view session,
                            std::uint32_t rank, std::uint64_t round,
                            double value) {
  const std::uint64_t ts = now_ns();
  const std::scoped_lock lock(mutex_);
  FlightEvent& e = ring_[head_ % ring_.size()];
  ++head_;
  e.ts_ns = ts;
  e.kind = kind;
  e.rank = rank;
  e.round = round;
  e.value = value;
  const std::size_t n = session.size() < sizeof(e.tag) - 1
                            ? session.size()
                            : sizeof(e.tag) - 1;
  if (n > 0) std::memcpy(e.tag, session.data(), n);  // data() may be null
  e.tag[n] = '\0';
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<FlightEvent> out;
  const std::size_t cap = ring_.size();
  const std::uint64_t held = head_ < cap ? head_ : cap;
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t i = head_ - held; i < head_; ++i) {
    out.push_back(ring_[i % cap]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::scoped_lock lock(mutex_);
  return head_;
}

void FlightRecorder::dump(std::ostream& out) const {
  const std::vector<FlightEvent> events = snapshot();
  const std::uint64_t total = recorded();
  out << "--- protuner flight recorder: " << events.size() << " event(s) held, "
      << total << " recorded ---\n";
  for (const FlightEvent& e : events) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "[%12.6fms] %-18s session=%-16s rank=%-6u round=%-8llu "
                  "value=%g",
                  static_cast<double>(e.ts_ns) / 1e6,
                  e.kind != nullptr ? e.kind : "?", e.tag, e.rank,
                  static_cast<unsigned long long>(e.round), e.value);
    out << line << '\n';
  }
  out << "--- end of flight recorder dump ---\n";
  out.flush();
}

void FlightRecorder::clear() {
  const std::scoped_lock lock(mutex_);
  head_ = 0;
}

namespace {

extern "C" void protuner_sigusr1_handler(int) {
  // Only an atomic store: the owning loop performs the dump from normal
  // context on its next iteration.
  FlightRecorder::global().request_dump();
}

}  // namespace

void FlightRecorder::install_sigusr1_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Construct the global recorder now: a signal must never be the first
    // caller of a function-local static's initialization.
    FlightRecorder::global();
    struct sigaction sa{};
    sa.sa_handler = &protuner_sigusr1_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGUSR1, &sa, nullptr);
  });
}

}  // namespace protuner::obs
