// One run of one benchmark workload, printed as a single JSON line.
//
//   jqos_e2e --workload <name> --seed <n> --threads <n> [--trace 0|1]
//            [--traced-first]
//
// --trace 0 runs the workload once through its public runner and reports the
// end-to-end metrics. --trace 1 runs it untraced and traced (in that order,
// or reversed with --traced-first) and reports the per-layer metrics, the
// tracing overhead and both result fingerprints. run.py drives repeated runs,
// aggregates them and checks the outputs; see NOTES.md.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "common/packet_pool.h"
#include "fec/gf256_simd.h"
#include "netsim/event_queue.h"
#include "workloads.h"

#ifndef JQOS_E2E_BUILD_TYPE
#define JQOS_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace jqos;

// Every JQOS_* knob the program reads; all of them are echoed.
constexpr const char* kKnobs[] = {"JQOS_SIM_LANES",  "JQOS_OBJ_POOL", "JQOS_EVQ_BACKEND",
                                  "JQOS_GF_BACKEND", "JQOS_SIM_THREADS", "JQOS_TCP_CC",
                                  "JQOS_QDISC",      "JQOS_DEBUG_OPS"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

// Minimal JSON object writer: keys in call order, doubles with full
// precision.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(std::string_view key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(key, q + "\"");
  }
  Json& obj(std::string_view key, const Json& o) { return raw(key, o.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double pct(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) / static_cast<double>(den);
}

Json outcome_json(const e2e::Outcomes& o) {
  Json j;
  j.str("fingerprint", hex(o.fingerprint))
      .u64("events", o.events)
      .u64("packets_sent", o.packets_sent)
      .u64("delivered_direct", o.delivered_direct)
      .u64("recovered", o.recovered)
      .u64("lost", o.lost)
      .u64("sessions", o.sessions)
      .u64("paths_not_conserved", o.paths_not_conserved)
      .u64("leaked_flows", o.leaked_flows)
      .num("recovery_tail_pct", o.recovery_tail_pct)
      .u64("recovery_samples", o.recovery_samples);
  return j;
}

Json config_json(const e2e::RunSpec& spec, unsigned threads_used, std::size_t shards) {
  Json knobs;
  for (const char* k : kKnobs) {
    const char* v = std::getenv(k);
    knobs.str(k, v == nullptr ? "<unset>" : v);
  }
  Json j;
  j.obj("env", knobs)
      .str("evq_backend", netsim::evq_backend_name(netsim::evq_default_backend()))
      .str("gf_backend", fec::gf_backend_name())
      .u64("obj_pool", PacketPool::env_enabled() ? 1 : 0)
      .u64("threads_requested", spec.threads)
      .u64("threads_used", threads_used)
      .u64("shards", shards)
      .u64("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .str("compiler", __VERSION__)
      .str("build_type", JQOS_E2E_BUILD_TYPE)
#ifdef NDEBUG
      .u64("ndebug", 1);
#else
      .u64("ndebug", 0);
#endif
  return j;
}

int usage() {
  std::fprintf(stderr,
               "usage: jqos_e2e --workload hub_coded|wan45_sharded|churn_web|hub_switch\n"
               "                --seed <n> --threads <n> [--trace 0|1] [--traced-first]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunSpec spec;
  bool have_workload = false;
  bool have_seed = false;
  int trace = 0;
  bool traced_first = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const auto w = e2e::parse_workload(argv[++i]);
      if (!w) return usage();
      spec.workload = *w;
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      spec.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage();
      have_seed = true;
    } else if (a == "--threads" && has_value) {
      const long t = std::strtol(argv[++i], nullptr, 10);
      if (t < 1 || t > 1024) return usage();
      spec.threads = static_cast<unsigned>(t);
    } else if (a == "--trace" && has_value) {
      const std::string_view v = argv[++i];
      if (v != "0" && v != "1") return usage();
      trace = v == "1" ? 1 : 0;
    } else if (a == "--traced-first") {
      traced_first = true;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed) return usage();

  Json out;
  out.str("workload", e2e::workload_name(spec.workload))
      .u64("seed", spec.seed)
      .u64("trace", static_cast<std::uint64_t>(trace));

  if (trace == 0) {
    const e2e::UntracedRun r = e2e::run_untraced(spec);
    const e2e::Outcomes& o = r.out;
    Json m;
    m.num("events_per_s", static_cast<double>(o.events) / r.run_s)
        .num("packets_per_s", static_cast<double>(o.packets_sent) / r.run_s)
        .num("sessions_per_s", static_cast<double>(o.sessions) / r.run_s)
        .num("wall_s", r.wall_s)
        .num("setup_s", r.setup_s)
        .num("cpu_s", r.cpu_s)
        .num("peak_rss_mb", peak_rss_mb())
        .num("recovered_pct", pct(o.recovered, o.recovered + o.lost))
        .num("lost_pct", pct(o.lost, o.packets_sent))
        .num("recovery_p50_ms", o.recovery_p50_ms)
        .num("recovery_tail_ms", o.recovery_tail_ms)
        .num("cloud_bytes_pct", pct(o.cloud_bytes, o.app_payload_bytes))
        .num("completion_p50_ms", o.completion_p50_ms)
        .num("completion_p99_ms", o.completion_p99_ms);
    out.obj("outcome", outcome_json(o))
        .obj("metrics", m)
        .num("run_s", r.run_s)
        .obj("config", config_json(spec, r.threads_used, r.shards));
  } else {
    e2e::UntracedRun plain;
    e2e::TracedRun traced;
    if (traced_first) {
      traced = e2e::run_traced(spec);
      plain = e2e::run_untraced(spec);
    } else {
      plain = e2e::run_untraced(spec);
      traced = e2e::run_traced(spec);
    }
    Json layers;
    for (const auto& [name, value] : traced.layers) layers.num(name, value);
    const e2e::Outcomes& o = traced.out;
    layers.num("recovered_pct", pct(o.recovered, o.recovered + o.lost))
        .num("lost_pct", pct(o.lost, o.packets_sent))
        .num("recovery_p50_ms", o.recovery_p50_ms)
        .num("recovery_tail_ms", o.recovery_tail_ms)
        .num("recovery.tail_percentile", traced.out.recovery_tail_pct)
        .num("recovery.samples", static_cast<double>(traced.out.recovery_samples))
        .num("trace_overhead_pct", 100.0 * (traced.run_s / plain.run_s - 1.0));
    out.obj("outcome", outcome_json(traced.out))
        .obj("untraced_outcome", outcome_json(plain.out))
        .obj("layers", layers)
        .num("run_s", traced.run_s)
        .num("untraced_run_s", plain.run_s)
        .obj("config", config_json(spec, plain.threads_used, plain.shards));
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}
