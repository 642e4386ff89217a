// Tests of the benchmark's own arithmetic (src/ledger.h): percentiles,
// bounded sampling and the closure residual.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "ledger.h"

using namespace protuner::perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles_interpolate_between_order_statistics() {
  check(percentile({}, 0.5) == 0.0, "empty set reads 0");
  check(percentile({7.0}, 0.99) == 7.0, "one value is every percentile");
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  check(near(percentile(v, 0.5), 2.5), "median of 1..4 is 2.5");
  check(near(percentile(v, 0.25), 1.75), "p25 of 1..4 is 1.75");
  check(near(percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile(v, 1.0), 4.0), "p100 is the maximum");
  std::vector<double> ramp;
  for (int i = 0; i <= 1000; ++i) ramp.push_back(1000.0 - i);
  check(near(percentile(ramp, 0.99), 990.0), "p99 of 0..1000 is 990");
  check(near(percentile(ramp, 0.995), 995.0), "p99.5 of 0..1000 is 995");
}

void samples_keep_every_stride_th_value_at_bounded_memory() {
  Samples s(8);
  for (int i = 0; i < 7; ++i) s.add(i);
  check(s.stride() == 1 && s.kept().size() == 7, "below cap keeps all");
  s.add(7);  // reaches the cap: halves to 0, 2, 4, 6
  check(s.stride() == 2 && s.kept().size() == 4, "cap halves the set");
  for (int i = 8; i < 12; ++i) s.add(i);
  const std::vector<double> even{0, 2, 4, 6, 8, 10};
  check(s.kept() == even, "stride 2 keeps every other input");
  Samples big(1 << 10);
  for (int i = 0; i < 100000; ++i) big.add(i % 1000);
  check(big.kept().size() < (1u << 10), "memory stays under the cap");
  check(std::fabs(big.quantile(0.5) - 500.0) < 20.0,
        "a decimated uniform stream keeps its median");
}

void merge_brings_both_sets_to_one_stride() {
  Samples a(16), b(16);
  for (int i = 0; i < 4; ++i) a.add(1.0);    // stride 1
  for (int i = 0; i < 40; ++i) b.add(2.0);   // stride 4
  a.merge(b);
  check(a.stride() == b.stride(), "merged set takes the coarser stride");
  int ones = 0;
  for (const double x : a.kept()) ones += x == 1.0;
  check(ones == 1, "the finer set is decimated before it is merged");
}

void closure_residual_counts_both_directions() {
  check(near(unaccounted_share(1000, 950), 0.05), "untimed work shows");
  check(near(unaccounted_share(1000, 1050), 0.05), "double counting shows");
  check(unaccounted_share(0, 0) == 0.0, "an idle thread closes");
  check(near(worst_unaccounted({{1000, 1000}, {1000, 900}, {1000, 990}}),
             0.1),
        "the worst thread decides");
  Layer l;
  l.add(10);
  l.add(30);
  Layer m;
  m.add(20);
  l.merge(m);
  check(l.total_ns == 60, "layer totals add exactly");
  check(near(l.ns.quantile(0.5), 20.0), "layer samples merge");
}

}  // namespace

int main() {
  percentiles_interpolate_between_order_statistics();
  samples_keep_every_stride_th_value_at_bounded_memory();
  merge_brings_both_sets_to_one_stride();
  closure_residual_counts_both_directions();
  std::printf("ledger_test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
