#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <span>

#include "common/alloc_probe.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "exp/scenario.h"
#include "exp/sharded_runner.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "timed_node.h"
#include "workload/churn.h"

namespace jqos::e2e {
namespace {

// Topology seeds: each workload is one fixed deployment; the run seed
// drives traffic, loss and jitter on it.
constexpr std::uint64_t kHubTopologySeed = 43;
constexpr std::uint64_t kWanTopologySeed = 42;
constexpr std::size_t kHubPaths = 8;
constexpr std::size_t kWanPaths = 45;

// Churn soak shape: 15 host pairs, Poisson web-mix sessions of MTU-sized
// packets at 100 pps, capped at 300 packets (3 s) per session.
constexpr std::size_t kChurnPairs = 15;
constexpr double kChurnSessionsPerSec = 600.0;
constexpr std::size_t kChurnPayload = 1472;
constexpr std::uint32_t kChurnMaxPackets = 300;

// Set-up probes per untraced run; the run reports their median.
constexpr int kSetupProbes = 5;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Host wall and process CPU time accumulated over the windows between
// start() and stop(), so the benchmark's own result processing between
// windows is left out.
class Stopwatch {
 public:
  void start() {
    wall0_ = Clock::now();
    cpu0_ = process_cpu_seconds();
  }
  void stop() {
    wall_s += seconds_since(wall0_);
    cpu_s += process_cpu_seconds() - cpu0_;
  }
  double wall_s = 0.0;
  double cpu_s = 0.0;

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
};

bool is_churn(Workload w) { return w == Workload::kChurnWeb; }

std::vector<geo::PathSample> cbr_paths(Workload w) {
  if (w == Workload::kWan45Sharded) {
    Rng rng(kWanTopologySeed);
    return geo::planetlab_paths(kWanPaths, rng);
  }
  Rng rng(kHubTopologySeed);
  auto paths = geo::planetlab_paths(kHubPaths, rng);
  // One (DC1, DC2) pair: the whole deployment is one interaction group, so
  // every stream meets in one encoder and one recovery DC.
  for (auto& p : paths) {
    p.dc1 = paths[0].dc1;
    p.dc2 = paths[0].dc2;
  }
  return paths;
}

exp::WanScenarioParams cbr_params(Workload w, std::uint64_t seed) {
  exp::WanScenarioParams params;
  params.seed = seed;
  params.service = w == Workload::kHubSwitch ? ServiceType::kForward : ServiceType::kCode;
  params.send_direct = w != Workload::kHubSwitch;
  params.coding.k = 6;
  params.coding.cross_coded = 2;
  params.coding.in_block = 5;
  params.coding.in_coded = 1;
  params.coding.queue_timeout = msec(300);
  params.cbr.on_duration = minutes(2);
  params.cbr.mean_off = minutes(1);
  params.cbr.packets_per_second = 100.0;
  return params;
}

SimDuration benchmark_duration(Workload w) {
  // Short runs: run.py repeats each workload over several seeds and reports
  // medians, which is steadier than one long run on a shared machine. The
  // CBR runs cover the first two-minute ON period, when every path sends,
  // so each run does the same amount of work whatever its seed.
  switch (w) {
    case Workload::kHubCoded: return minutes(2);
    case Workload::kWan45Sharded: return minutes(2);
    case Workload::kChurnWeb: return sec(10);
    // Receiver gap tracking makes path switching superlinear in run length
    // (see NOTES.md); one simulated minute keeps a run to a few seconds.
    case Workload::kHubSwitch: return minutes(1);
  }
  return minutes(1);
}

SimDuration run_duration(const RunSpec& spec) {
  return spec.duration > 0 ? spec.duration : benchmark_duration(spec.workload);
}

workload::ChurnConfig churn_config(const RunSpec& spec) {
  workload::ChurnConfig cfg;
  cfg.num_pairs = kChurnPairs;
  cfg.duration = run_duration(spec);
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.sessions_per_sec = kChurnSessionsPerSec;
  cfg.mix = workload::AppMix::kWebTransfer;
  cfg.payload_bytes = kChurnPayload;
  cfg.packets_per_second = 100.0;
  cfg.max_session_packets = kChurnMaxPackets;
  cfg.scenario.seed = spec.seed;
  cfg.num_threads = spec.threads;
  return cfg;
}

// The paths run_churn synthesises for a config (same derived stream).
std::vector<geo::PathSample> churn_paths(const workload::ChurnConfig& cfg) {
  Rng geo_rng(Rng::derive(cfg.scenario.seed, "churn-paths"));
  return geo::planetlab_paths(cfg.num_pairs, geo_rng);
}

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

double percentile_or_zero(const Samples& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}

// Link counters split by role: a path's direct Internet link (sender ->
// receiver) and the inter-DC backbone (DC -> DC).
struct LinkSplit {
  netsim::LinkStats direct;
  netsim::LinkStats cloud;
};

void add_link(netsim::LinkStats& into, const netsim::LinkStats& s) {
  into.offered_packets += s.offered_packets;
  into.dropped_packets += s.dropped_packets;
  into.queue_drops += s.queue_drops;
  into.delivered_bytes += s.delivered_bytes;
}

// Adds one Network's links; `paths` are the paths that network carries.
void add_links(netsim::Network& net, overlay::OverlayNetwork& ov,
               std::span<const exp::PathRuntime* const> paths, LinkSplit& split) {
  std::set<NodeId> dcs;
  for (std::size_t j = 0; j < ov.dc_count(); ++j) dcs.insert(ov.dc(j).id());
  std::set<std::pair<NodeId, NodeId>> direct;
  for (const exp::PathRuntime* rt : paths) direct.insert({rt->sender->id(), rt->receiver->id()});
  net.for_each_link([&](const netsim::Link& l) {
    if (dcs.count(l.from()) != 0 && dcs.count(l.to()) != 0) {
      add_link(split.cloud, l.stats());
    } else if (direct.count({l.from(), l.to()}) != 0) {
      add_link(split.direct, l.stats());
    }
  });
}

void add_links(exp::ScenarioShard& shard, LinkSplit& split) {
  std::vector<const exp::PathRuntime*> paths;
  for (std::size_t i = 0; i < shard.path_count(); ++i) paths.push_back(&shard.path(i));
  add_links(shard.net(), shard.overlay(), paths, split);
}

// Everything a CBR run reports, gathered from its paths (in global index
// order) and the link counters of the networks that carried them.
Outcomes collect_cbr(std::span<const exp::PathRuntime* const> paths, const LinkSplit& links,
                     std::uint64_t events, const services::EncoderStats& enc,
                     const services::RecoveryStatsDc& rec, std::size_t payload_bytes) {
  Outcomes o;
  o.events = events;
  Samples recovery;
  Samples completion;
  Fnv fp;
  for (const exp::PathRuntime* rt : paths) {
    const std::uint64_t sent = rt->app->stats().packets_sent;
    o.packets_sent += sent;
    o.delivered_direct += rt->delivered_direct;
    o.recovered += rt->recovered;
    o.lost += rt->lost;
    if (rt->delivered_direct + rt->recovered + rt->lost != sent) ++o.paths_not_conserved;
    for (double v : rt->recovery_ms.values()) recovery.add(v);
    for (double v : rt->receiver->direct_delay_ms().values()) completion.add(v);
    fp.mix(sent);
    fp.mix(rt->delivered_direct);
    fp.mix(rt->recovered);
    fp.mix(rt->lost);
    for (exp::Outcome oc : rt->outcome) fp.mix(static_cast<std::uint64_t>(oc));
    for (double v : rt->recovery_ms.values()) fp.mix_double(v);
    fp.mix(rt->receiver->direct_delay_ms().count());
  }
  o.sessions = paths.size();
  o.app_payload_bytes = o.packets_sent * payload_bytes;
  o.cloud_bytes = links.cloud.delivered_bytes;

  o.recovery_samples = recovery.count();
  o.recovery_tail_pct = tail_percentile(o.recovery_samples);
  o.recovery_p50_ms = percentile_or_zero(recovery, 50.0);
  o.recovery_tail_ms = percentile_or_zero(recovery, o.recovery_tail_pct);
  o.completion_p50_ms = percentile_or_zero(completion, 50.0);
  o.completion_p99_ms = percentile_or_zero(completion, 99.0);

  for (std::uint64_t v :
       {events, enc.data_packets, enc.coded_sent, enc.timer_flushes, rec.batches_stored,
        rec.batches_expired, rec.recovered_sent, rec.nacks, rec.coop_success,
        links.cloud.delivered_bytes, links.direct.delivered_bytes}) {
    fp.mix(v);
  }
  for (double v : {o.completion_p50_ms, o.completion_p99_ms}) fp.mix_double(v);
  o.fingerprint = fp.h;
  return o;
}

Outcomes collect_churn(const workload::ChurnResult& r, std::size_t payload_bytes) {
  Outcomes o;
  o.events = r.events;
  o.packets_sent = r.totals.packets_sent;
  o.delivered_direct = r.totals.delivered_direct;
  o.recovered = r.totals.recovered;
  o.lost = r.totals.lost;
  o.sessions = r.totals.sessions_completed;
  o.app_payload_bytes = o.packets_sent * payload_bytes;
  // run_churn exposes no link counters: the backbone carries DC1's coded
  // packets, so their payload bytes stand in for the delivered bytes.
  o.cloud_bytes = r.encoder.coded_sent * payload_bytes;
  o.recovery_samples = r.recovery_ms.count();
  o.recovery_tail_pct = tail_percentile(o.recovery_samples);
  o.recovery_p50_ms = r.recovery_ms.empty() ? 0.0 : r.recovery_ms.percentile(50.0);
  o.recovery_tail_ms =
      r.recovery_ms.empty() ? 0.0 : r.recovery_ms.percentile(o.recovery_tail_pct);
  o.completion_p50_ms = r.completion_ms.empty() ? 0.0 : r.completion_ms.percentile(50.0);
  o.completion_p99_ms = r.completion_ms.empty() ? 0.0 : r.completion_ms.percentile(99.0);
  if (o.delivered_direct + o.recovered + o.lost != o.packets_sent) o.paths_not_conserved = 1;
  o.leaked_flows = r.totals.leaked_flows;
  o.fingerprint = r.fingerprint();
  return o;
}

using Layers = std::map<std::string, double>;

void put_class(Layers& L, const std::string& prefix, const HandlerTally& h) {
  L[prefix + ".calls"] = static_cast<double>(h.calls);
  L[prefix + ".busy_s"] = static_cast<double>(h.ns) * 1e-9;
  L[prefix + ".ns"] =
      h.calls == 0 ? 0.0 : static_cast<double>(h.ns) / static_cast<double>(h.calls);
}

// Per-class handler metrics of the DCs and receivers.
void put_handlers(Layers& L, const ClassTallies& dc, const ClassTallies& receiver) {
  auto cls = [](const ClassTallies& c, HandlerClass k) { return c[static_cast<std::size_t>(k)]; };
  put_class(L, "dc.data", cls(dc, HandlerClass::kData));
  put_class(L, "dc.coded", cls(dc, HandlerClass::kCoded));
  put_class(L, "dc.nack", cls(dc, HandlerClass::kNack));
  put_class(L, "dc.coop", cls(dc, HandlerClass::kCoop));
  put_class(L, "receiver.data", cls(receiver, HandlerClass::kData));
  HandlerTally recovered = cls(receiver, HandlerClass::kRecovered);
  recovered += cls(receiver, HandlerClass::kCoded);  // In-stream decode at the receiver.
  put_class(L, "receiver.recovered", recovered);
  put_class(L, "receiver.coop_request", cls(receiver, HandlerClass::kCoopRequest));
  put_class(L, "receiver.nack_check", cls(receiver, HandlerClass::kNackCheck));
}

void put_links(Layers& L, const LinkSplit& links) {
  for (const auto& [role, s] : {std::pair<const char*, const netsim::LinkStats&>{"direct", links.direct},
                                {"cloud", links.cloud}}) {
    const std::string p = std::string("link.") + role;
    L[p + ".offered"] = static_cast<double>(s.offered_packets);
    L[p + ".loss_drops"] = static_cast<double>(s.dropped_packets);
    L[p + ".queue_drops"] = static_cast<double>(s.queue_drops);
    L[p + ".delivered_bytes"] = static_cast<double>(s.delivered_bytes);
  }
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SetupTimes {
  double paths_s = 0.0;  // Path synthesis.
  double build_s = 0.0;  // plan_shards + constructing (and discarding) every shard.
};

// Set-up probe: synthesises the workload's paths and constructs every shard
// its runner would build, then discards them. ShardedRunner and run_churn
// build their shards inside the run call, so this times that work on its
// own, the same way for every workload.
SetupTimes probe_setup(const RunSpec& spec) {
  SetupTimes t;
  const auto t0 = Clock::now();
  std::vector<geo::PathSample> paths;
  exp::WanScenarioParams params;
  if (is_churn(spec.workload)) {
    const workload::ChurnConfig cfg = churn_config(spec);
    paths = churn_paths(cfg);
    params = cfg.scenario;
    params.record_delay_samples = false;  // As run_churn runs its shards.
  } else {
    paths = cbr_paths(spec.workload);
    params = cbr_params(spec.workload, spec.seed);
  }
  t.paths_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const netsim::EvqBackend backend = netsim::evq_default_backend();
  for (auto& plan : exp::plan_shards(paths, 0)) {
    exp::ScenarioShard shard(std::move(plan), params, backend);
  }
  t.build_s = seconds_since(t1);
  return t;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kHubCoded, Workload::kWan45Sharded, Workload::kChurnWeb,
                     Workload::kHubSwitch}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHubCoded: return "hub_coded";
    case Workload::kWan45Sharded: return "wan45_sharded";
    case Workload::kChurnWeb: return "churn_web";
    case Workload::kHubSwitch: return "hub_switch";
  }
  return "?";
}

double tail_percentile(std::uint64_t n, std::uint64_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the p-th percentile: n * (1 - p/100), computed
    // in integers (p has at most two decimals) so 10.0 is not 9.999...
    const std::uint64_t scaled_p = static_cast<std::uint64_t>(std::llround(p * 100.0));
    if (n * (10000 - scaled_p) >= min_beyond * 10000) best = p;
  }
  return best;
}

UntracedRun run_untraced(const RunSpec& spec) {
  UntracedRun r;
  std::vector<double> probes;
  for (int i = 0; i < kSetupProbes; ++i) {
    const SetupTimes p = probe_setup(spec);
    probes.push_back(p.paths_s + p.build_s);
  }
  r.setup_s = median_of(probes);

  const SimDuration duration = run_duration(spec);
  // Timed: construction, the run call and teardown. Not timed: reading the
  // results out, which is the benchmark's work.
  Stopwatch watch;
  watch.start();
  switch (spec.workload) {
    case Workload::kHubCoded:
    case Workload::kHubSwitch: {
      const exp::WanScenarioParams params = cbr_params(spec.workload, spec.seed);
      auto sc = std::make_unique<exp::WanScenario>(cbr_paths(spec.workload), params);
      const auto run0 = Clock::now();
      sc->run(duration);
      r.run_s = seconds_since(run0);
      watch.stop();
      std::vector<const exp::PathRuntime*> paths;
      for (std::size_t i = 0; i < sc->path_count(); ++i) paths.push_back(&sc->path(i));
      LinkSplit links;
      add_links(sc->net(), sc->overlay(), paths, links);
      r.out = collect_cbr(paths, links, sc->sim().events_processed(), sc->encoder_totals(),
                          sc->recovery_totals(), params.cbr.payload_bytes);
      r.threads_used = 1;
      r.shards = 1;
      watch.start();
      sc.reset();
      break;
    }
    case Workload::kWan45Sharded: {
      const exp::WanScenarioParams params = cbr_params(spec.workload, spec.seed);
      exp::ShardedRunParams run_params;
      run_params.num_shards = 0;
      run_params.num_threads = spec.threads;
      auto runner =
          std::make_unique<exp::ShardedRunner>(cbr_paths(spec.workload), params, run_params);
      const auto run0 = Clock::now();
      runner->run(duration);
      r.run_s = seconds_since(run0);
      watch.stop();
      std::vector<const exp::PathRuntime*> paths;
      for (std::size_t i = 0; i < runner->path_count(); ++i) paths.push_back(&runner->path(i));
      LinkSplit links;
      for (std::size_t i = 0; i < runner->shard_count(); ++i) add_links(runner->shard(i), links);
      r.out = collect_cbr(paths, links, runner->total_events(), runner->encoder_totals(),
                          runner->recovery_totals(), params.cbr.payload_bytes);
      r.threads_used = runner->threads_used();
      r.shards = runner->shard_count();
      watch.start();
      runner.reset();
      break;
    }
    case Workload::kChurnWeb: {
      const workload::ChurnConfig cfg = churn_config(spec);
      const auto run0 = Clock::now();
      const workload::ChurnResult res = workload::run_churn(cfg);
      r.run_s = seconds_since(run0);
      watch.stop();
      r.out = collect_churn(res, cfg.payload_bytes);
      r.threads_used = res.threads_used;
      r.shards = res.shards_used;
      watch.start();  // run_churn has already torn its shards down.
      break;
    }
  }
  watch.stop();
  r.wall_s = watch.wall_s;
  r.cpu_s = watch.cpu_s;
  return r;
}

TracedRun run_traced(const RunSpec& spec) {
  TracedRun t;
  Layers& L = t.layers;
  const SimDuration duration = run_duration(spec);

  if (is_churn(spec.workload)) {
    // run_churn builds and runs its shards internally and offers no hook:
    // the traced run reports the counters it returns, plus set-up split
    // into path synthesis and shard construction by the set-up probe.
    const workload::ChurnConfig cfg = churn_config(spec);
    const SetupTimes setup = probe_setup(spec);
    L["geo.paths_s"] = setup.paths_s;
    L["exp.shard_build_s"] = setup.build_s;

    alloc_probe::reset();
    const double cpu0 = process_cpu_seconds();
    const auto run0 = Clock::now();
    const workload::ChurnResult res = workload::run_churn(cfg);
    t.run_s = seconds_since(run0);
    const double cpu = process_cpu_seconds() - cpu0;
    const std::uint64_t allocs = alloc_probe::allocations();
    t.out = collect_churn(res, cfg.payload_bytes);

    const double pkts = static_cast<double>(std::max<std::uint64_t>(1, res.totals.packets_sent));
    const double events = static_cast<double>(std::max<std::uint64_t>(1, res.events));
    L["enc.coded_per_data"] =
        static_cast<double>(res.encoder.coded_sent) /
        static_cast<double>(std::max<std::uint64_t>(1, res.encoder.data_packets));
    L["enc.timer_flushes"] = static_cast<double>(res.encoder.timer_flushes);
    L["enc.flow_departures"] = static_cast<double>(res.encoder.flow_departures);
    L["dc2.batches_stored"] = static_cast<double>(res.recovery.batches_stored);
    L["dc2.batches_expired"] = static_cast<double>(res.recovery.batches_expired);
    L["dc2.recovered_sent"] = static_cast<double>(res.recovery.recovered_sent);
    L["dc2.coop_success_ratio"] =
        static_cast<double>(res.recovery.coop_success) /
        static_cast<double>(std::max<std::uint64_t>(1, res.recovery.coop_ops));
    L["dc2.batch_use_ratio"] =
        static_cast<double>(res.recovery.recovered_sent) /
        static_cast<double>(std::max<std::uint64_t>(1, res.recovery.batches_stored));
    L["netsim.events_per_packet"] = events / pkts;
    // No handler is wrapped, so the whole run is residual.
    L["netsim.residual_ns_per_event"] = t.run_s * 1e9 / events;
    L["allocs_per_packet"] = static_cast<double>(allocs) / pkts;
    L["fec.bytes_coded"] = static_cast<double>(res.encoder.coded_sent) *
                           static_cast<double>(cfg.scenario.coding.k) *
                           static_cast<double>(cfg.payload_bytes);
    L["exp.parallel_efficiency"] = cpu / (t.run_s * static_cast<double>(res.threads_used));
    L["churn.sessions_opened"] = static_cast<double>(res.totals.sessions_opened);
    L["churn.leaked_flows"] = static_cast<double>(res.totals.leaked_flows);
    // Not observable through run_churn: reported as 0 (see NOTES.md).
    put_handlers(L, {}, {});
    put_links(L, {});
    L["pool.hit_ratio"] = 0.0;
    L["pool.high_water"] = 0.0;
    L["exp.shard_events_max_over_mean"] = 0.0;
    L["exp.critical_path_s"] = 0.0;
    L["receiver.nack_useful_ratio"] = 0.0;
    return t;
  }

  const auto g0 = Clock::now();
  const auto paths = cbr_paths(spec.workload);
  L["geo.paths_s"] = seconds_since(g0);
  const exp::WanScenarioParams params = cbr_params(spec.workload, spec.seed);
  const netsim::EvqBackend backend = netsim::evq_default_backend();
  auto plans = exp::plan_shards(paths, 0);
  const std::size_t n = plans.size();
  // At most one thread per shard, as the runner clamps it.
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(spec.threads, n));

  // The shard is declared last so it is destroyed before the wrappers its
  // Network points to, and they before the tallies they write.
  struct ShardTrace {
    ClassTallies dc{};
    ClassTallies receiver{};
    ClassTallies sender{};
    std::vector<std::unique_ptr<TimedNode>> wrappers;
    std::unique_ptr<exp::ScenarioShard> shard;
    double build_s = 0.0;
    double run_s = 0.0;
  };
  std::vector<ShardTrace> st(n);

  alloc_probe::reset();
  const auto phase0 = Clock::now();
  parallel_for_indexed(n, threads, [&](std::size_t i) {
    ShardTrace& s = st[i];
    const auto b0 = Clock::now();
    s.shard = std::make_unique<exp::ScenarioShard>(std::move(plans[i]), params, backend);
    s.build_s = seconds_since(b0);
    exp::ScenarioShard& sh = *s.shard;
    auto wrap = [&](netsim::Node& node, ClassTallies& tallies) {
      s.wrappers.push_back(std::make_unique<TimedNode>(node, tallies));
      sh.net().attach(*s.wrappers.back());
    };
    for (std::size_t j = 0; j < sh.overlay().dc_count(); ++j) wrap(sh.overlay().dc(j), s.dc);
    for (std::size_t p = 0; p < sh.path_count(); ++p) {
      wrap(*sh.path(p).sender, s.sender);
      wrap(*sh.path(p).receiver, s.receiver);
    }
    const auto r0 = Clock::now();
    sh.run(duration);
    s.run_s = seconds_since(r0);
  });
  const double phase_s = seconds_since(phase0);
  const std::uint64_t allocs = alloc_probe::allocations();

  std::vector<const exp::PathRuntime*> by_index(paths.size(), nullptr);
  LinkSplit links;
  std::uint64_t events = 0;
  services::EncoderStats enc;
  services::RecoveryStatsDc rec;
  ClassTallies dc{};
  ClassTallies receiver{};
  ClassTallies sender{};
  double build_sum = 0.0;
  double run_sum = 0.0;
  double run_max = 0.0;
  double busy_sum = 0.0;
  std::uint64_t shard_events_max = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
  std::uint64_t high_water = 0;
  for (ShardTrace& s : st) {
    exp::ScenarioShard& sh = *s.shard;
    add_links(sh, links);
    for (std::size_t p = 0; p < sh.path_count(); ++p) {
      by_index.at(sh.path(p).global_index) = &sh.path(p);
    }
    const std::uint64_t ev = sh.sim().events_processed();
    events += ev;
    shard_events_max = std::max(shard_events_max, ev);
    enc += sh.encoder_totals();
    rec += sh.recovery_totals();
    for (std::size_t c = 0; c < dc.size(); ++c) {
      dc[c] += s.dc[c];
      receiver[c] += s.receiver[c];
      sender[c] += s.sender[c];
    }
    build_sum += s.build_s;
    run_sum += s.run_s;
    run_max = std::max(run_max, s.run_s);
    busy_sum += s.build_s + s.run_s;
    for (std::size_t k = 0; k < sh.pool_count(); ++k) {
      reused += sh.pool(k).reused();
      fresh += sh.pool(k).fresh();
      high_water += sh.pool(k).high_water();
    }
  }
  t.run_s = phase_s;
  t.out = collect_cbr(by_index, links, events, enc, rec, params.cbr.payload_bytes);

  std::uint64_t nacks_sent = 0;
  std::uint64_t recovered_delivered = 0;
  for (const exp::PathRuntime* rt : by_index) {
    nacks_sent += rt->receiver->stats().nacks_sent;
    recovered_delivered += rt->receiver->stats().delivered_recovered;
  }

  put_handlers(L, dc, receiver);

  std::uint64_t wrapped_ns = 0;
  for (std::size_t c = 0; c < dc.size(); ++c) wrapped_ns += dc[c].ns + receiver[c].ns + sender[c].ns;

  const double pkts = static_cast<double>(std::max<std::uint64_t>(1, t.out.packets_sent));
  const double ev = static_cast<double>(std::max<std::uint64_t>(1, events));
  L["receiver.nack_useful_ratio"] =
      static_cast<double>(recovered_delivered) /
      static_cast<double>(std::max<std::uint64_t>(1, nacks_sent));
  L["enc.coded_per_data"] = static_cast<double>(enc.coded_sent) /
                            static_cast<double>(std::max<std::uint64_t>(1, enc.data_packets));
  L["enc.timer_flushes"] = static_cast<double>(enc.timer_flushes);
  L["enc.flow_departures"] = static_cast<double>(enc.flow_departures);
  L["dc2.batches_stored"] = static_cast<double>(rec.batches_stored);
  L["dc2.batches_expired"] = static_cast<double>(rec.batches_expired);
  L["dc2.recovered_sent"] = static_cast<double>(rec.recovered_sent);
  L["dc2.coop_success_ratio"] = static_cast<double>(rec.coop_success) /
                                static_cast<double>(std::max<std::uint64_t>(1, rec.coop_ops));
  L["dc2.batch_use_ratio"] = static_cast<double>(rec.recovered_sent) /
                             static_cast<double>(std::max<std::uint64_t>(1, rec.batches_stored));
  L["netsim.events_per_packet"] = ev / pkts;
  L["netsim.residual_ns_per_event"] =
      std::max(0.0, run_sum * 1e9 - static_cast<double>(wrapped_ns)) / ev;
  put_links(L, links);
  L["pool.hit_ratio"] =
      static_cast<double>(reused) / static_cast<double>(std::max<std::uint64_t>(1, reused + fresh));
  L["pool.high_water"] = static_cast<double>(high_water);
  L["allocs_per_packet"] = static_cast<double>(allocs) / pkts;
  L["fec.bytes_coded"] = static_cast<double>(enc.coded_sent) *
                         static_cast<double>(params.coding.k) *
                         static_cast<double>(params.cbr.payload_bytes);
  L["exp.shard_build_s"] = build_sum;
  L["exp.shard_events_max_over_mean"] =
      static_cast<double>(shard_events_max) * static_cast<double>(n) / ev;
  L["exp.critical_path_s"] = run_max;
  L["exp.parallel_efficiency"] = busy_sum / (phase_s * static_cast<double>(threads));
  L["churn.sessions_opened"] = static_cast<double>(t.out.sessions);
  L["churn.leaked_flows"] = 0.0;
  return t;
}

}  // namespace jqos::e2e
