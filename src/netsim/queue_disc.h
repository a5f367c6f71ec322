// Queue disciplines for finite-bandwidth links: the policy half of the
// link-layer split. `Link` owns the mechanism (analytic FIFO serialization
// via tx_free_at_); a QueueDisc decides, per arriving packet, whether it is
// enqueued, ECN-marked, or dropped.
//
// The simulator never materializes a packet queue: because the FIFO order
// and the serialization times are analytically known at enqueue time, every
// AQM decision can be made at arrival using the packet's *predicted* dequeue
// time as the clock ("virtual dequeue"). This keeps the per-packet cost at
// O(1) with no extra events, and — critically for the determinism contract —
// keeps all decisions in arrival order, which is also dequeue order.
//
// Implementations:
//   TailDropFifo  byte-capped drop-tail (the default; a finite buffer where
//                 the pre-refactor link modelled an infinite one)
//   RedQueue      Random Early Detection (EWMA average queue, probabilistic
//                 early drop/mark between min/max thresholds; Floyd/Jacobson)
//   CoDelQueue    Controlled Delay (sojourn-time target/interval control law
//                 with inverse-sqrt drop spacing; Nichols/Jacobson)
//
// RED and CoDel can mark ECT packets (Packet::ecn_capable) with CE instead
// of dropping, which the TCP model echoes back to the sender (see
// docs/TRANSPORT.md for the end-to-end ECN wiring).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/knobs.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace jqos::netsim {

enum class QdiscKind : std::uint8_t { kTailDrop = 0, kRed = 1, kCoDel = 2 };

const char* qdisc_kind_name(QdiscKind k);
std::optional<QdiscKind> parse_qdisc_kind(std::string_view name);

struct QdiscConfig {
  // nullopt resolves through the JQOS_QDISC knob (docs/BENCHMARKING.md,
  // "Environment overrides"), defaulting to tail-drop. Tests that pin a
  // discipline are immune to the env.
  std::optional<QdiscKind> kind;

  // Hard byte cap shared by every discipline. The default comfortably
  // exceeds the largest backlog any existing scenario builds (~140 KB in
  // bench_fig10), so capping the previously infinite buffer changes no
  // pinned trace.
  std::size_t limit_bytes = 1 << 20;

  // Mark ECT packets with CE instead of dropping (RED/CoDel early action
  // only; the hard byte cap always drops).
  bool ecn = true;

  // RED knobs. Zero thresholds derive from limit_bytes (min = limit/8,
  // max = limit/4) so a bare {kind = kRed} is usable.
  std::size_t red_min_bytes = 0;
  std::size_t red_max_bytes = 0;
  double red_max_p = 0.1;  // Mark probability at the max threshold.
  double red_wq = 0.002;   // EWMA weight per arrival.

  // CoDel knobs (RFC 8289 defaults).
  SimDuration codel_target = msec(5);
  SimDuration codel_interval = msec(100);

  QdiscKind resolved_kind() const {
    return kind ? *kind : knobs::read(knobs::kQdisc, QdiscKind::kTailDrop, parse_qdisc_kind);
  }
};

enum class QdiscVerdict : std::uint8_t { kEnqueue = 0, kMark = 1, kDrop = 2 };

// Everything a discipline may inspect about the analytic FIFO at arrival.
struct QueueSnapshot {
  SimTime now = 0;        // Arrival time.
  SimTime dequeue_at = 0; // When this packet would start serializing (>= now).
  std::size_t backlog_bytes = 0;    // Queued ahead of this packet.
  std::size_t backlog_packets = 0;
  std::size_t packet_bytes = 0;     // Wire size of the arriving packet.
  bool ecn_capable = false;         // Sender set ECT; marking is meaningful.

  SimDuration sojourn() const { return dequeue_at - now; }
};

class QueueDisc {
 public:
  virtual ~QueueDisc() = default;
  virtual const char* name() const = 0;
  // Called once per offered packet, in arrival (== dequeue) order.
  virtual QdiscVerdict admit(const QueueSnapshot& q) = 0;
};

using QueueDiscPtr = std::unique_ptr<QueueDisc>;

// ---- concrete disciplines (exposed for unit tests) ----------------------

class TailDropFifo final : public QueueDisc {
 public:
  explicit TailDropFifo(const QdiscConfig& cfg) : limit_bytes_(cfg.limit_bytes) {}
  const char* name() const override { return "taildrop"; }
  QdiscVerdict admit(const QueueSnapshot& q) override;

 private:
  std::size_t limit_bytes_;
};

class RedQueue final : public QueueDisc {
 public:
  RedQueue(const QdiscConfig& cfg, Rng rng);
  const char* name() const override { return "red"; }
  QdiscVerdict admit(const QueueSnapshot& q) override;

  double avg_bytes() const { return avg_; }

 private:
  std::size_t limit_bytes_;
  std::size_t min_th_;
  std::size_t max_th_;
  double max_p_;
  double wq_;
  bool ecn_;
  Rng rng_;
  double avg_ = 0.0;  // EWMA of the backlog, in bytes.
  int count_ = -1;    // Packets since the last mark/drop (RED's `count`).
};

// The instantaneous-probability half of RED's drop decision, exposed so the
// unit test can pin the curve against hand-computed values.
double red_mark_probability(double avg_bytes, std::size_t min_th, std::size_t max_th,
                            double max_p);

class CoDelQueue final : public QueueDisc {
 public:
  explicit CoDelQueue(const QdiscConfig& cfg);
  const char* name() const override { return "codel"; }
  QdiscVerdict admit(const QueueSnapshot& q) override;

  bool dropping() const { return dropping_; }
  std::uint32_t drop_count() const { return count_; }

 private:
  QdiscVerdict mark_or_drop(const QueueSnapshot& q);
  SimTime control_law(SimTime t) const;

  std::size_t limit_bytes_;
  SimDuration target_;
  SimDuration interval_;
  bool ecn_;
  SimTime first_above_ = 0;  // 0 = sojourn currently below target.
  SimTime drop_next_ = 0;    // Next scheduled drop while in dropping state.
  bool dropping_ = false;
  std::uint32_t count_ = 0;  // Drops in the current dropping state.
};

// Builds the configured discipline. `rng` feeds RED's probabilistic drops;
// derive it from a stable identity (Network uses the (from, to) link pair)
// so traces are independent of link-creation order.
QueueDiscPtr make_queue_disc(const QdiscConfig& cfg, Rng rng);

}  // namespace jqos::netsim
