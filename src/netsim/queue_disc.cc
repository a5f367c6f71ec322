#include "netsim/queue_disc.h"

#include <cmath>

namespace jqos::netsim {

const char* qdisc_kind_name(QdiscKind k) {
  switch (k) {
    case QdiscKind::kTailDrop: return "taildrop";
    case QdiscKind::kRed: return "red";
    case QdiscKind::kCoDel: return "codel";
  }
  return "?";
}

std::optional<QdiscKind> parse_qdisc_kind(std::string_view name) {
  if (name == "taildrop" || name == "fifo") return QdiscKind::kTailDrop;
  if (name == "red") return QdiscKind::kRed;
  if (name == "codel") return QdiscKind::kCoDel;
  return std::nullopt;
}

// ---- TailDropFifo --------------------------------------------------------

QdiscVerdict TailDropFifo::admit(const QueueSnapshot& q) {
  if (q.backlog_bytes + q.packet_bytes > limit_bytes_) return QdiscVerdict::kDrop;
  return QdiscVerdict::kEnqueue;
}

// ---- RedQueue ------------------------------------------------------------

double red_mark_probability(double avg_bytes, std::size_t min_th, std::size_t max_th,
                            double max_p) {
  if (avg_bytes < static_cast<double>(min_th)) return 0.0;
  if (avg_bytes >= static_cast<double>(max_th)) return 1.0;
  return max_p * (avg_bytes - static_cast<double>(min_th)) /
         static_cast<double>(max_th - min_th);
}

RedQueue::RedQueue(const QdiscConfig& cfg, Rng rng)
    : limit_bytes_(cfg.limit_bytes),
      min_th_(cfg.red_min_bytes != 0 ? cfg.red_min_bytes : cfg.limit_bytes / 8),
      max_th_(cfg.red_max_bytes != 0 ? cfg.red_max_bytes : cfg.limit_bytes / 4),
      max_p_(cfg.red_max_p),
      wq_(cfg.red_wq),
      ecn_(cfg.ecn),
      rng_(rng) {
  if (max_th_ <= min_th_) max_th_ = min_th_ + 1;
}

QdiscVerdict RedQueue::admit(const QueueSnapshot& q) {
  if (q.backlog_bytes + q.packet_bytes > limit_bytes_) return QdiscVerdict::kDrop;
  avg_ = (1.0 - wq_) * avg_ + wq_ * static_cast<double>(q.backlog_bytes);

  const double pb = red_mark_probability(avg_, min_th_, max_th_, max_p_);
  if (pb <= 0.0) {
    count_ = -1;
    return QdiscVerdict::kEnqueue;
  }
  if (pb >= 1.0) {
    count_ = 0;
    return ecn_ && q.ecn_capable ? QdiscVerdict::kMark : QdiscVerdict::kDrop;
  }
  // Uniformize mark spacing (Floyd/Jacobson): pa = pb / (1 - count * pb).
  ++count_;
  const double denom = 1.0 - static_cast<double>(count_) * pb;
  const double pa = denom <= 0.0 ? 1.0 : std::min(pb / denom, 1.0);
  if (rng_.bernoulli(pa)) {
    count_ = 0;
    return ecn_ && q.ecn_capable ? QdiscVerdict::kMark : QdiscVerdict::kDrop;
  }
  return QdiscVerdict::kEnqueue;
}

// ---- CoDelQueue ----------------------------------------------------------

CoDelQueue::CoDelQueue(const QdiscConfig& cfg)
    : limit_bytes_(cfg.limit_bytes),
      target_(cfg.codel_target),
      interval_(cfg.codel_interval),
      ecn_(cfg.ecn) {}

SimTime CoDelQueue::control_law(SimTime t) const {
  return t + static_cast<SimDuration>(
                 static_cast<double>(interval_) /
                 std::sqrt(static_cast<double>(count_ == 0 ? 1 : count_)));
}

QdiscVerdict CoDelQueue::mark_or_drop(const QueueSnapshot& q) {
  return ecn_ && q.ecn_capable ? QdiscVerdict::kMark : QdiscVerdict::kDrop;
}

QdiscVerdict CoDelQueue::admit(const QueueSnapshot& q) {
  if (q.backlog_bytes + q.packet_bytes > limit_bytes_) return QdiscVerdict::kDrop;

  // The control law runs on the virtual dequeue clock: this admit decision
  // stands in for the dequeue of the same packet later, and q.sojourn() is
  // exactly the queueing delay that dequeue would observe.
  const SimTime now = q.dequeue_at;
  bool ok_to_drop = true;
  if (q.sojourn() < target_ || q.backlog_bytes < q.packet_bytes) {
    // Below target (or the queue is nearly empty): leave the dropping state.
    first_above_ = 0;
    ok_to_drop = false;
  } else if (first_above_ == 0) {
    // Just crossed the target; give the queue one interval to drain.
    first_above_ = now + interval_;
    ok_to_drop = false;
  } else if (now < first_above_) {
    ok_to_drop = false;
  }

  if (dropping_) {
    if (!ok_to_drop) {
      dropping_ = false;
      return QdiscVerdict::kEnqueue;
    }
    if (now >= drop_next_) {
      ++count_;
      drop_next_ = control_law(drop_next_);
      return mark_or_drop(q);
    }
    return QdiscVerdict::kEnqueue;
  }

  if (ok_to_drop) {
    dropping_ = true;
    // Re-entering shortly after leaving resumes at a higher drop rate.
    count_ = (count_ > 2 && now - drop_next_ < 16 * interval_) ? count_ - 2 : 1;
    drop_next_ = control_law(now);
    return mark_or_drop(q);
  }
  return QdiscVerdict::kEnqueue;
}

// ---- factory -------------------------------------------------------------

QueueDiscPtr make_queue_disc(const QdiscConfig& cfg, Rng rng) {
  switch (cfg.resolved_kind()) {
    case QdiscKind::kTailDrop: return std::make_unique<TailDropFifo>(cfg);
    case QdiscKind::kRed: return std::make_unique<RedQueue>(cfg, rng);
    case QdiscKind::kCoDel: return std::make_unique<CoDelQueue>(cfg);
  }
  return std::make_unique<TailDropFifo>(cfg);
}

}  // namespace jqos::netsim
