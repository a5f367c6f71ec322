// Self tests of the benchmark's own C++ code: the tail-percentile rule and
// the timing wrapper's bit-identity on a short hub_coded run. Exits non-zero
// on the first failure.
#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_tail_rule() {
  using jqos::e2e::tail_percentile;
  check(tail_percentile(0) == 0.0, "no samples: no tail");
  check(tail_percentile(19) == 0.0, "19 samples: fewer than 10 beyond the median");
  check(tail_percentile(20) == 50.0, "20 samples: p50 has 10 beyond");
  check(tail_percentile(99) == 50.0, "99 samples: p90 has only 9.9 beyond");
  check(tail_percentile(100) == 90.0, "100 samples: p90 has exactly 10 beyond");
  check(tail_percentile(199) == 90.0, "199 samples: p95 has 9.95 beyond");
  check(tail_percentile(200) == 95.0, "200 samples: p95");
  check(tail_percentile(468) == 95.0, "468 samples: p95 (p99 has 4.68 beyond)");
  check(tail_percentile(1000) == 99.0, "1000 samples: p99");
  check(tail_percentile(9999) == 99.0, "9999 samples: p99.9 has 9.999 beyond");
  check(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  check(tail_percentile(100000) == 99.99, "100000 samples: p99.99");
  check(tail_percentile(10'000'000) == 99.99, "ladder tops out at p99.99");
  check(tail_percentile(40, 20) == 50.0, "custom min_beyond");
}

void test_wrapper_is_bit_identical() {
  using namespace jqos;
  e2e::RunSpec spec;
  spec.workload = e2e::Workload::kHubCoded;
  spec.seed = 43;
  spec.threads = 1;
  spec.duration = sec(40);
  const e2e::UntracedRun plain = e2e::run_untraced(spec);
  const e2e::TracedRun traced = e2e::run_traced(spec);
  check(plain.out.events > 0 && plain.out.packets_sent > 0, "short hub_coded run did work");
  check(plain.out.fingerprint == traced.out.fingerprint, "traced fingerprint == untraced");
  check(plain.out.events == traced.out.events, "traced events == untraced");
  check(traced.layers.at("dc.data.calls") > 0, "wrapper saw DC data packets");
  check(traced.layers.at("receiver.data.calls") > 0, "wrapper saw receiver data packets");
  const e2e::UntracedRun again = e2e::run_untraced(spec);
  check(again.out.fingerprint == plain.out.fingerprint, "repeated run is bit-identical");
}

}  // namespace

int main() {
  test_tail_rule();
  test_wrapper_is_bit_identical();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
