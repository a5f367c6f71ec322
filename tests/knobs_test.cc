// Table-driven tests for the JQOS_* knob table (common/knobs.h): every row
// resolves unset to its module's default, every accepted spelling to its
// documented setting, and every bad value -- bogus, wrong case, empty -- to
// the one std::invalid_argument shape. The rows below are keyed by variable
// name and checked against knobs::kAll, so a knob added to the table without
// a row here fails the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/knobs.h"
#include "common/packet_pool.h"
#include "common/parallel.h"
#include "fec/gf256_simd.h"
#include "netsim/event_queue.h"
#include "netsim/queue_disc.h"
#include "test_guards.h"
#include "transport/congestion.h"

namespace jqos {
namespace {

using jqos::testing::EnvVarGuard;

struct Row {
  const char* name;
  std::function<std::string()> resolve;  // The owning module's resolution.
  std::string unset;                     // Resolution with the variable unset.
  std::vector<std::pair<std::string, std::string>> accepted;  // spelling -> resolution.
  std::string wrong_case;  // Numeric knobs have no case: a spelled-out word.
};

std::string gf_if_available(fec::GfBackend b) {
  return fec::gf_backend_name(fec::gf_backend_available(b) ? b
                                                           : fec::gf_available_backends().back());
}

std::vector<Row> rows() {
  const std::string hw = std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  const std::string best = fec::gf_backend_name(fec::gf_available_backends().back());
  return {
      {"JQOS_SIM_THREADS",
       [] { return std::to_string(resolve_sim_threads()); },
       hw,
       {{"1", "1"}, {"3", "3"}, {"4", "4"}, {"+4", "4"}, {"16", "16"}},
       "Four"},
      {"JQOS_OBJ_POOL",
       [] { return std::string(PacketPool::env_enabled() ? "on" : "off"); },
       "on",
       {{"1", "on"}, {"0", "off"}},
       "ON"},
      {"JQOS_EVQ_BACKEND",
       [] { return std::string(netsim::evq_backend_name(netsim::evq_default_backend())); },
       "ladder",
       {{"heap", "heap"}, {"ladder", "ladder"}, {"auto", "ladder"}},
       "LADDER"},
      {"JQOS_GF_BACKEND",
       [] { return std::string(fec::gf_backend_name(fec::gf_best_backend())); },
       best,
       {{"scalar", "scalar"},
        {"ssse3", gf_if_available(fec::GfBackend::kSsse3)},
        {"avx2", gf_if_available(fec::GfBackend::kAvx2)},
        {"auto", best}},
       "AVX2"},
      {"JQOS_TCP_CC",
       [] { return std::string(transport::cc_kind_name(transport::TcpParams{}.resolved_cc())); },
       "reno",
       {{"reno", "reno"},
        {"rack", "rack"},
        {"bbr", "bbr"},
        {"bbrlite", "bbr"},
        {"bbr-lite", "bbr"}},
       "Reno"},
      {"JQOS_QDISC",
       [] { return std::string(netsim::qdisc_kind_name(netsim::QdiscConfig{}.resolved_kind())); },
       "taildrop",
       {{"taildrop", "taildrop"}, {"fifo", "taildrop"}, {"red", "red"}, {"codel", "codel"}},
       "RED"},
  };
}

// Every row of the table, paired with its test row.
std::vector<std::pair<knobs::Knob, Row>> table() {
  std::vector<std::pair<knobs::Knob, Row>> out;
  const std::vector<Row> all = rows();
  for (const knobs::Knob& knob : knobs::kAll) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Row& r) { return std::string(r.name) == knob.name; });
    if (it == all.end()) {
      ADD_FAILURE() << knob.name << " has no test row";
      continue;
    }
    out.emplace_back(knob, *it);
  }
  EXPECT_EQ(out.size(), all.size()) << "a test row names no knob in the table";
  return out;
}

TEST(Knobs, UnsetResolvesToTheModuleDefault) {
  for (const auto& [knob, row] : table()) {
    const EnvVarGuard env(knob.name, std::nullopt);
    EXPECT_EQ(row.resolve(), row.unset) << knob.name;
  }
}

TEST(Knobs, EveryAcceptedSpellingResolves) {
  for (const auto& [knob, row] : table()) {
    for (const auto& [spelling, resolution] : row.accepted) {
      const EnvVarGuard env(knob.name, spelling);
      EXPECT_EQ(row.resolve(), resolution) << knob.name << "='" << spelling << "'";
    }
  }
}

TEST(Knobs, BadValuesThrowOneMessageShape) {
  for (const auto& [knob, row] : table()) {
    for (const std::string& bad : {std::string("bogus"), row.wrong_case, std::string()}) {
      SCOPED_TRACE(std::string(knob.name) + "='" + bad + "'");
      const EnvVarGuard env(knob.name, bad);
      try {
        (void)row.resolve();
        ADD_FAILURE() << "accepted a bad value";
      } catch (const std::invalid_argument& e) {
        const std::string name(knob.name);
        EXPECT_EQ(std::string(e.what()),
                  name + "='" + bad + "' is not a valid setting; expected " + knob.expected +
                      ". Unset " + name + " to use the default.");
      }
    }
  }
}

TEST(Knobs, UnknownJqosNamesAreIgnored) {
  // e2e_bench/run.py still exports the retired JQOS_SIM_LANES.
  const EnvVarGuard lanes("JQOS_SIM_LANES", std::string("0"));
  for (const auto& [knob, row] : table()) {
    const EnvVarGuard env(knob.name, std::nullopt);
    EXPECT_EQ(row.resolve(), row.unset) << knob.name;
  }
}

}  // namespace
}  // namespace jqos
