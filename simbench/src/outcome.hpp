// Simulated outcomes of one run: everything in here is a function of the
// workload and seed alone, so two runs of one seed must agree exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/experiment.hpp"

namespace simbench {

// One latency percentile, reported the way the choosing-metrics rules ask:
// a value at or beyond the application timeout is censored (the latency is
// only known to be at least the cap), and a percentile with fewer than ten
// samples beyond it is not supported by the sample.
struct FctPercentile {
  double value_us = 0;
  bool supported = false;
  bool censored = false;
  // The latency if it is one; 0 when unsupported or censored.
  double reported() const { return supported && !censored ? value_us : 0; }
};

struct Outcome {
  // Simulated time covered by the run, including the churn drain.
  double sim_span_ms = 0;
  std::uint64_t sim_events = 0;
  // Payload delivered per simulated second: long-lived flows over their
  // post-warmup window plus completed churn transfers over the span.
  double goodput_gbps = 0;

  // Churn accounting (zero without churn). `refused` are arrivals that
  // found every slot busy; they are skipped, never retried.
  std::uint64_t target = 0;
  std::uint64_t opened = 0;
  std::uint64_t refused = 0;
  std::uint64_t closed = 0;
  std::uint64_t abnormal = 0;
  std::uint64_t app_timeouts = 0;
  std::uint64_t reasons[tdtcp::kNumCloseReasons] = {};
  bool all_closed = true;
  // (abnormal closes + refused arrivals) / (opened + refused).
  double failed_frac = 0;
  // Share of FCT samples at or beyond the application timeout.
  double censored_frac = 0;
  std::uint64_t fct_count = 0;
  FctPercentile fct_p50, fct_p99, fct_p999;
  std::uint64_t churn_hash = 0;

  // Transport and fabric counters (long-lived flows; churn connections are
  // counted by the churn accounting above).
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t undo_events = 0;
  std::uint64_t cross_tdn_exemptions = 0;
  std::uint64_t recovery_forced = 0;
  std::uint64_t recovery_spurious = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t notifications_dropped = 0;
  std::uint64_t stale_notifications = 0;
  std::uint64_t voq_drops = 0;
  double voq_sojourn_p99_us = 0;

  // Every field as (name, value), in a fixed order: the basis of the
  // identity check and of the detail report.
  std::vector<std::pair<std::string, double>> Fields() const;
};

Outcome Summarize(const tdtcp::ExperimentConfig& config,
                  const tdtcp::ExperimentResult& r);

// Names of the fields on which `a` and `b` differ (empty when identical).
std::vector<std::string> Differences(const Outcome& a, const Outcome& b);

}  // namespace simbench
