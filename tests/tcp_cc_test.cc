// Differential + behavioral tests for the pluggable congestion-control
// layer (transport/congestion.h).
//
// The Reno golden tests pin the refactor: the FCT samples and server stats
// below were captured from the pre-refactor TcpWorkload (hard-coded Reno)
// on the exact scenario reproduced here. RenoCc must stay byte-identical —
// any drift in these arrays means the transport split changed behavior.
// The scenario sets `tcp.cc` explicitly, so the pins are immune to the
// JQOS_TCP_CC environment override.
#include <gtest/gtest.h>

#include <cstdlib>

#include "app/web.h"
#include "netsim/network.h"
#include "overlay/datacenter.h"
#include "services/coding/encoder_dc.h"
#include "services/coding/recovery_dc.h"
#include "services/forwarding/forwarding_service.h"
#include "transport/tcp_model.h"

namespace jqos::transport {
namespace {

// Mirrors the pre-refactor capture harness: 40 short web transfers under
// Google-study burst loss (p_first = 0.02, p_subsequent = 0.5), 200 ms RTT,
// optionally through the J-QoS CR-WAN coding overlay.
app::WebResult run_golden_scenario(bool with_jqos, const TcpParams& tcp) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  Rng rng(42);

  auto registry = std::make_shared<services::FlowRegistry>();
  endpoint::Sender server(net);
  std::unique_ptr<overlay::DataCenter> dc1, dc2;
  std::shared_ptr<services::ForwardingService> fwd1;
  if (with_jqos) {
    dc1 = std::make_unique<overlay::DataCenter>(net, 0, "dc1");
    dc2 = std::make_unique<overlay::DataCenter>(net, 1, "dc2");
    fwd1 = std::make_shared<services::ForwardingService>();
    dc1->install(fwd1);
    dc2->install(std::make_shared<services::ForwardingService>());
    services::CodingParams cp;
    cp.k = 6;
    cp.cross_coded = 2;
    cp.in_block = 16;
    cp.in_coded = 1;
    cp.queue_timeout = msec(10);
    dc1->install(std::make_shared<services::CodingEncoderService>(*dc1, cp, registry));
    services::RecoveryParams rp;
    rp.coop_deadline = msec(150);
    dc2->install(std::make_shared<services::RecoveryService>(*dc2, rp, registry));
  }

  endpoint::ReceiverConfig rc;
  rc.rtt_estimate = msec(200);
  rc.recovery_give_up = msec(250);
  if (dc2) rc.dc2 = dc2->id();
  endpoint::Receiver client(net, rc);

  net.add_link(server.id(), client.id(), netsim::make_fixed_latency(msec(100)),
               netsim::make_google_burst(0.02, 0.5, rng.fork("fwd-loss")));
  net.add_link(client.id(), server.id(), netsim::make_fixed_latency(msec(100)),
               netsim::make_bernoulli_loss(0.002, rng.fork("rev-loss")));
  if (dc1) {
    fwd1->set_next_hop(client.id(), dc2->id());
    for (auto [a, b, lat] : {std::tuple{server.id(), dc1->id(), msec(15)},
                             std::tuple{dc1->id(), dc2->id(), msec(100)},
                             std::tuple{dc2->id(), client.id(), msec(15)},
                             std::tuple{client.id(), dc2->id(), msec(15)}}) {
      net.add_link(a, b, netsim::make_fixed_latency(lat), netsim::make_no_loss());
    }
  }

  endpoint::SessionManager sessions(registry);
  endpoint::RegisterRequest req;
  req.delays.y_ms = 100.0;
  req.delays.delta_s_ms = 15.0;
  req.delays.delta_r_ms = 15.0;
  req.delays.x_ms = 100.0;
  if (with_jqos) {
    req.force_service = ServiceType::kCode;
    req.dc1 = dc1->id();
    req.dc2 = dc2->id();
  } else {
    req.force_service = ServiceType::kNone;
  }

  app::WebWorkloadParams params;
  params.requests = 40;
  params.response_bytes = 50 * 1000;
  params.request_bytes = 12;
  params.tcp = tcp;
  return app::run_web_workload(net, server, client, sessions, req, params);
}

void expect_fct_trace(const Samples& got, const std::vector<double>& want) {
  ASSERT_EQ(got.values().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.values()[i], want[i], 1e-6) << "FCT sample " << i << " drifted";
  }
}

TEST(CongestionControl, RenoGoldenPlainTcp) {
  TcpParams tcp;
  tcp.cc = CcKind::kReno;  // Pin explicitly: the test must ignore JQOS_TCP_CC.
  const app::WebResult r = run_golden_scenario(/*with_jqos=*/false, tcp);

  EXPECT_EQ(r.completed, 40u);
  EXPECT_EQ(r.server.retransmits, 57u);
  EXPECT_EQ(r.server.timeouts, 3u);
  EXPECT_EQ(r.server.fast_retransmits, 36u);
  EXPECT_EQ(r.acks, 1440u);
  EXPECT_EQ(r.server.ecn_echoes, 0u);  // Nothing marks on a latency-only path.
  expect_fct_trace(
      r.fct_ms,
      {800,      800, 800,  800,  800,  800, 800, 2028.506, 800, 1800,
       800,      800, 800,  800,  1800, 800, 800, 800,      800, 800,
       800,      800, 800,  1000, 800,  800, 800, 800,      1000, 800,
       800, 1432.127, 800, 1000, 1000, 1000, 800, 800,      800, 800});
}

TEST(CongestionControl, RenoGoldenOverCrwan) {
  TcpParams tcp;
  tcp.cc = CcKind::kReno;
  const app::WebResult r = run_golden_scenario(/*with_jqos=*/true, tcp);

  EXPECT_EQ(r.completed, 40u);
  EXPECT_EQ(r.server.retransmits, 45u);
  EXPECT_EQ(r.server.timeouts, 5u);
  EXPECT_EQ(r.server.fast_retransmits, 26u);
  EXPECT_EQ(r.acks, 1450u);
  expect_fct_trace(
      r.fct_ms,
      {800,      800, 800, 800,      800, 800,  800,      1439.502, 800, 1800,
       800,      800, 800, 800,      1400, 800, 800,      800,      800, 800,
       800,      800, 800, 1032,     800, 800,  800,      800,      860, 800,
       800, 1598.143, 800, 860, 2430.210, 860,  1260,     860,      800, 800});
}

// The other controllers need not (and do not) match Reno's trace; they must
// still complete every transfer under the same bursty loss. Bounds are kept
// loose so this stays a liveness test, not an accidental pin.
TEST(CongestionControl, RackCompletesUnderBurstLoss) {
  TcpParams tcp;
  tcp.cc = CcKind::kRack;
  const app::WebResult r = run_golden_scenario(/*with_jqos=*/false, tcp);
  EXPECT_EQ(r.completed, 40u);
  EXPECT_GT(r.server.retransmits, 0u);
  for (double v : r.fct_ms.values()) {
    EXPECT_GE(v, 800.0);  // 4 RTTs minimum: SYN, request, 2+ data windows.
    EXPECT_LT(v, 60e3);
  }
}

TEST(CongestionControl, BbrLiteCompletesUnderBurstLoss) {
  TcpParams tcp;
  tcp.cc = CcKind::kBbrLite;
  const app::WebResult r = run_golden_scenario(/*with_jqos=*/false, tcp);
  EXPECT_EQ(r.completed, 40u);
  for (double v : r.fct_ms.values()) {
    EXPECT_GE(v, 800.0);
    EXPECT_LT(v, 60e3);
  }
}

// BBR paces: after a transfer with measurable delivery rate it must report
// a nonzero pacing rate, while Reno stays ack-clocked (rate 0). Uses a
// clean path so the rate estimate is deterministic in sign.
TEST(CongestionControl, BbrReportsPacingRateRenoDoesNot) {
  for (const CcKind kind : {CcKind::kReno, CcKind::kBbrLite}) {
    netsim::Simulator sim;
    netsim::Network net(sim);
    auto registry = std::make_shared<services::FlowRegistry>();
    endpoint::Sender server(net);
    endpoint::ReceiverConfig rc;
    rc.rtt_estimate = msec(200);
    endpoint::Receiver client(net, rc);
    net.add_link(server.id(), client.id(), netsim::make_fixed_latency(msec(100)),
                 netsim::make_no_loss());
    net.add_link(client.id(), server.id(), netsim::make_fixed_latency(msec(100)),
                 netsim::make_no_loss());
    endpoint::SessionManager sessions(registry);
    endpoint::RegisterRequest req;
    req.force_service = ServiceType::kNone;

    TcpParams tcp;
    tcp.cc = kind;
    TcpWorkload workload(net, server, client, sessions, req, tcp);
    workload.run(2, 50 * 1000);
    sim.run();

    EXPECT_EQ(workload.completed(), 2u);
    if (kind == CcKind::kBbrLite) {
      EXPECT_GT(workload.cc().pacing_rate_bps(), 0.0) << workload.cc().name();
    } else {
      EXPECT_EQ(workload.cc().pacing_rate_bps(), 0.0) << workload.cc().name();
    }
  }
}

TEST(CongestionControl, KindNamesRoundTrip) {
  for (const CcKind k : {CcKind::kReno, CcKind::kRack, CcKind::kBbrLite}) {
    const auto parsed = parse_cc_kind(cc_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
    EXPECT_STREQ(make_congestion_controller(k)->name(), cc_kind_name(k));
  }
  EXPECT_EQ(parse_cc_kind("bbr"), CcKind::kBbrLite);  // CLI/env spelling.
  EXPECT_FALSE(parse_cc_kind("cubic").has_value());
}

TEST(CongestionControl, ResolutionUsesPinnedKind) {
  TcpParams p;
  p.cc = CcKind::kRack;
  EXPECT_EQ(p.resolved_cc(), CcKind::kRack);
  EXPECT_STREQ(make_congestion_controller(p.resolved_cc())->name(), "rack");
}

}  // namespace
}  // namespace jqos::transport
