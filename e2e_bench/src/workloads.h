// The four end-to-end workloads of the J-QoS benchmark and the measurements
// taken from one run of each.
//
// A workload is a fixed deployment (its paths, drawn once from the workload's
// own topology seed) plus a traffic and loss realisation drawn from the run
// seed. Every run goes through the public layers only: exp::WanScenario,
// exp::ShardedRunner and exp::ScenarioShard for the CBR workloads,
// workload::run_churn for the churn soak. See NOTES.md for why each workload
// exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"

namespace jqos::e2e {

enum class Workload { kHubCoded, kWan45Sharded, kChurnWeb, kHubSwitch };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

struct RunSpec {
  Workload workload = Workload::kHubCoded;
  std::uint64_t seed = 0;
  unsigned threads = 1;  // Passed explicitly to every runner; never 0.
  // Simulated length; 0 selects the workload's benchmark length. The self
  // tests use short runs.
  SimDuration duration = 0;
};

// Deterministic results of one run: everything here is a pure function of
// the RunSpec minus its thread count, and the fingerprint covers all of it.
struct Outcomes {
  std::uint64_t events = 0;
  std::uint64_t packets_sent = 0;      // Application data packets.
  std::uint64_t delivered_direct = 0;  // Delivered by the primary path.
  std::uint64_t recovered = 0;         // Lost there, recovered in time.
  std::uint64_t lost = 0;              // Neither delivered nor recovered.
  std::uint64_t sessions = 0;          // Completed sessions (CBR: one per path).
  std::uint64_t app_payload_bytes = 0;
  std::uint64_t cloud_bytes = 0;       // Delivered on inter-DC links.
  // Recovery latency (detection -> recovered delivery) quantiles.
  double recovery_p50_ms = 0.0;
  double recovery_tail_ms = 0.0;
  double recovery_tail_pct = 0.0;      // The percentile recovery_tail_ms is.
  std::uint64_t recovery_samples = 0;
  // Completion of the application's unit of work: a session (churn) or a
  // frame, i.e. one CBR packet delivered on its primary path.
  double completion_p50_ms = 0.0;
  double completion_p99_ms = 0.0;
  // Output checks.
  std::uint64_t paths_not_conserved = 0;  // delivered + recovered + lost != sent.
  std::uint64_t leaked_flows = 0;
  std::uint64_t fingerprint = 0;
};

// One untraced run: host timings around the public calls only.
struct UntracedRun {
  Outcomes out;
  double setup_s = 0.0;  // Median of set-up probes (path synthesis + shard
                         // construction, timed outside the run call).
  double run_s = 0.0;    // The workload's run call (shard build included
                         // where the runner builds shards inside run()).
  double wall_s = 0.0;   // Construction + run call + teardown.
  double cpu_s = 0.0;    // Process user + system time over the same span.
  unsigned threads_used = 0;
  std::size_t shards = 0;
};

UntracedRun run_untraced(const RunSpec& spec);

// The traced run: the benchmark builds the shards itself (exp::plan_shards
// + exp::ScenarioShard, same partition and event-queue backend as the
// runner), re-attaches every sender, receiver and DataCenter behind a timing
// wrapper, and times each shard's run. The churn workload has no such hook;
// its traced run reports the counters run_churn returns. `layers` holds the
// per-layer metrics by name.
struct TracedRun {
  Outcomes out;
  double run_s = 0.0;
  std::map<std::string, double> layers;
};

TracedRun run_traced(const RunSpec& spec);

// The highest of p50, p90, p95, p99, p99.9 and p99.99 with at least
// `min_beyond` samples above it among `n` samples, i.e.
// n * (1 - p/100) >= min_beyond. Returns 0 when even the median has fewer
// (fewer than 2 * min_beyond samples).
double tail_percentile(std::uint64_t n, std::uint64_t min_beyond = 10);

}  // namespace jqos::e2e
