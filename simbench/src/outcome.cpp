#include "outcome.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace simbench {

using namespace tdtcp;

namespace {

constexpr std::size_t kMinBeyond = 10;

FctPercentile NearestRank(const std::vector<double>& sorted, double p,
                          double cap_us) {
  FctPercentile out;
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * n)), 1, sorted.size());
  out.value_us = sorted[rank - 1];
  out.supported = sorted.size() - rank >= kMinBeyond;
  out.censored = out.value_us >= cap_us;
  return out;
}

}  // namespace

Outcome Summarize(const ExperimentConfig& config, const ExperimentResult& r) {
  Outcome o;
  // RunExperiment's goodput sampler ticks from t=0 until the run (churn
  // drain included) stops, on a grid the run's end time lies on.
  o.sim_span_ms = r.seq_samples.empty() ? r.duration.micros_f() / 1e3
                                        : r.seq_samples.back().t.micros_f() / 1e3;
  o.sim_events = r.sim_events;
  const double span_s = o.sim_span_ms / 1e3;
  o.goodput_gbps = r.goodput_bps / 1e9;
  if (span_s > 0) {
    o.goodput_gbps +=
        static_cast<double>(r.churn.bytes_completed) * 8.0 / span_s / 1e9;
  }

  if (config.churn.enabled) {
    o.target = config.churn.target_connections;
    o.opened = r.churn.opened;
    o.refused = r.churn.deferred;
    o.closed = r.churn.closed;
    o.abnormal = r.churn.abnormal();
    o.app_timeouts = r.churn.app_timeouts;
    std::memcpy(o.reasons, r.churn.reasons, sizeof(o.reasons));
    o.all_closed = r.churn_all_closed;
    const double attempted = static_cast<double>(o.opened + o.refused);
    if (attempted > 0) {
      o.failed_frac = static_cast<double>(o.abnormal + o.refused) / attempted;
    }
    std::vector<double> fct = r.churn_fct_us;
    std::sort(fct.begin(), fct.end());
    const double cap_us = config.churn.slot_timeout.micros_f();
    o.fct_count = fct.size();
    if (!fct.empty()) {
      const auto censored = static_cast<double>(
          fct.end() - std::lower_bound(fct.begin(), fct.end(), cap_us));
      o.censored_frac = censored / static_cast<double>(fct.size());
    }
    o.fct_p50 = NearestRank(fct, 50, cap_us);
    o.fct_p99 = NearestRank(fct, 99, cap_us);
    o.fct_p999 = NearestRank(fct, 99.9, cap_us);
    o.churn_hash = r.churn_hash;
  }

  o.retransmissions = r.retransmissions;
  o.timeouts = r.timeouts;
  o.undo_events = r.undo_events;
  o.cross_tdn_exemptions = r.cross_tdn_exemptions;
  o.recovery_forced = r.recovery_forced;
  o.recovery_spurious = r.recovery_spurious;
  o.faults_injected = r.faults_injected;
  o.notifications_dropped = r.notifications_dropped;
  o.stale_notifications = r.stale_notifications;
  o.voq_drops = r.voq_drops;
  o.voq_sojourn_p99_us = r.voq_sojourn_p99_us;
  return o;
}

std::vector<std::pair<std::string, double>> Outcome::Fields() const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<std::pair<std::string, double>> f = {
      {"sim_span_ms", sim_span_ms},
      {"sim_events", d(sim_events)},
      {"goodput_gbps", goodput_gbps},
      {"target", d(target)},
      {"opened", d(opened)},
      {"refused", d(refused)},
      {"closed", d(closed)},
      {"abnormal", d(abnormal)},
      {"app_timeouts", d(app_timeouts)},
      {"all_closed", all_closed ? 1.0 : 0.0},
      {"failed_frac", failed_frac},
      {"censored_frac", censored_frac},
      {"fct_count", d(fct_count)},
      {"fct_p50_us", fct_p50.value_us},
      {"fct_p99_us", fct_p99.value_us},
      {"fct_p999_us", fct_p999.value_us},
      // 53 bits, so the value survives a JSON double.
      {"churn_hash", d(churn_hash & ((1ull << 53) - 1))},
      {"retransmissions", d(retransmissions)},
      {"timeouts", d(timeouts)},
      {"undo_events", d(undo_events)},
      {"cross_tdn_exemptions", d(cross_tdn_exemptions)},
      {"recovery_forced", d(recovery_forced)},
      {"recovery_spurious", d(recovery_spurious)},
      {"faults_injected", d(faults_injected)},
      {"notifications_dropped", d(notifications_dropped)},
      {"stale_notifications", d(stale_notifications)},
      {"voq_drops", d(voq_drops)},
      {"voq_sojourn_p99_us", voq_sojourn_p99_us},
  };
  for (std::size_t i = 0; i < kNumCloseReasons; ++i) {
    f.emplace_back(std::string("close_") +
                       CloseReasonName(static_cast<CloseReason>(i)),
                   d(reasons[i]));
  }
  return f;
}

std::vector<std::string> Differences(const Outcome& a, const Outcome& b) {
  const auto fa = a.Fields();
  const auto fb = b.Fields();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    // Bitwise: a deterministic simulation repeats every double exactly.
    if (std::memcmp(&fa[i].second, &fb[i].second, sizeof(double)) != 0) {
      out.push_back(fa[i].first);
    }
  }
  if (a.churn_hash != b.churn_hash) out.push_back("churn_hash(64)");
  return out;
}

}  // namespace simbench
