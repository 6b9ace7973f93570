#include "app/sweep.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>

namespace tdtcp {

int ResolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

void ParallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  jobs = ResolveJobs(jobs);
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

// Two-sided 95% Student-t critical values by degrees of freedom; seeds-per-
// cell is small, so the normal 1.96 would understate the interval.
double TCritical95(std::size_t df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

}  // namespace

MetricStats ComputeStats(const std::vector<double>& values) {
  MetricStats s;
  s.n = values.size();
  if (s.n == 0) return s;
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n < 2) return s;
  double sq = 0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
  s.ci95 = TCritical95(s.n - 1) * s.stddev /
           std::sqrt(static_cast<double>(s.n));
  return s;
}

namespace {

// Read-back values come from a file. A double outside [0, 2^64) has no
// uint64_t value (the cast would be undefined), so it is rejected.
std::uint64_t ToCount(double v) {
  if (!(v >= 0 && v < 0x1p64)) {
    throw std::runtime_error("tdtcp-sweep: count out of range");
  }
  return static_cast<std::uint64_t>(v);
}

template <class T>
void Assign(T& field, double v) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    field = ToCount(v);
  } else {
    field = static_cast<T>(v);
  }
}

// Hashes are masked to the double mantissa so the value survives the JSON
// round-trip exactly; 53 bits is ample for an equality fingerprint.
constexpr std::uint64_t kHashMask = (1ull << 53) - 1;

// A metric that is the numeric ExperimentResult member `r.FIELD`.
#define TDTCP_FIELD_METRIC(NAME, FIELD)                           \
  SweepMetric {                                                   \
    NAME,                                                         \
        [](const ExperimentResult& r) {                           \
          return static_cast<double>(r.FIELD);                    \
        },                                                        \
        [](ExperimentResult& r, double v) { Assign(r.FIELD, v); } \
  }

// Emission order is pinned by the sweep regression fixtures: new metrics go
// at the end.
constexpr SweepMetric kSweepMetrics[] = {
    TDTCP_FIELD_METRIC("goodput_bps", goodput_bps),
    TDTCP_FIELD_METRIC("total_bytes", total_bytes),
    TDTCP_FIELD_METRIC("retransmissions", retransmissions),
    TDTCP_FIELD_METRIC("timeouts", timeouts),
    TDTCP_FIELD_METRIC("reorder_events", reorder_events),
    TDTCP_FIELD_METRIC("reorder_marked_lost", reorder_marked_lost),
    TDTCP_FIELD_METRIC("duplicate_segments", duplicate_segments),
    TDTCP_FIELD_METRIC("undo_events", undo_events),
    TDTCP_FIELD_METRIC("cross_tdn_exemptions", cross_tdn_exemptions),
    TDTCP_FIELD_METRIC("faults_injected", faults_injected),
    TDTCP_FIELD_METRIC("notifications_dropped", notifications_dropped),
    TDTCP_FIELD_METRIC("stale_notifications", stale_notifications),
    TDTCP_FIELD_METRIC("tdn_inferred_switches", tdn_inferred_switches),
    TDTCP_FIELD_METRIC("voq_shrink_deferred", voq_shrink_deferred),
    // Queue discipline.
    TDTCP_FIELD_METRIC("voq_drops", voq_drops),
    TDTCP_FIELD_METRIC("voq_ce_marked", voq_ce_marked),
    TDTCP_FIELD_METRIC("voq_codel_drops", voq_codel_drops),
    TDTCP_FIELD_METRIC("voq_codel_marks", voq_codel_marks),
    TDTCP_FIELD_METRIC("voq_delay_marked", voq_delay_marked),
    TDTCP_FIELD_METRIC("voq_shared_rejected", voq_shared_rejected),
    TDTCP_FIELD_METRIC("voq_sojourn_mean_us", voq_sojourn_mean_us),
    TDTCP_FIELD_METRIC("voq_sojourn_p99_us", voq_sojourn_p99_us),
    TDTCP_FIELD_METRIC("voq_sojourn_max_us", voq_sojourn_max_us),
    {"trace_hash",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.trace_hash & kHashMask);
     },
     [](ExperimentResult& r, double v) { Assign(r.trace_hash, v); }},
    TDTCP_FIELD_METRIC("trace_records", trace_records),
    // Churn lifecycles (zero when churn was disabled).
    TDTCP_FIELD_METRIC("churn_opened", churn.opened),
    TDTCP_FIELD_METRIC("churn_closed", churn.closed),
    {"churn_abnormal",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.churn.abnormal());
     },
     // abnormal = closed - normal; churn_closed is already applied.
     [](ExperimentResult& r, double v) {
       r.churn.reasons[static_cast<std::size_t>(CloseReason::kNormal)] =
           r.churn.closed - ToCount(v);
     }},
    TDTCP_FIELD_METRIC("churn_app_timeouts", churn.app_timeouts),
    TDTCP_FIELD_METRIC("churn_bytes", churn.bytes_completed),
    {"churn_hash",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.churn_hash & kHashMask);
     },
     [](ExperimentResult& r, double v) { Assign(r.churn_hash, v); }},
    TDTCP_FIELD_METRIC("churn_all_closed", churn_all_closed),
    // Host recovery agent.
    TDTCP_FIELD_METRIC("recovery_forced", recovery_forced),
    TDTCP_FIELD_METRIC("recovery_rescued", recovery_rescued),
    TDTCP_FIELD_METRIC("recovery_spurious", recovery_spurious),
    // Simulator event core.
    TDTCP_FIELD_METRIC("sim_events", sim_events),
    TDTCP_FIELD_METRIC("sim_cohort_hits", sim_cohort_hits),
    TDTCP_FIELD_METRIC("sim_dead_dropped", sim_dead_dropped),
    TDTCP_FIELD_METRIC("sim_compactions", sim_compactions),
    // Per-size-bucket FCT tails (kFctBucketNames order): count +
    // nearest-rank p50/p99/p99.9 in µs.
    TDTCP_FIELD_METRIC("churn_fct_s_count", churn_fct_bucket[0].count),
    TDTCP_FIELD_METRIC("churn_fct_s_p50_us", churn_fct_bucket[0].p50_us),
    TDTCP_FIELD_METRIC("churn_fct_s_p99_us", churn_fct_bucket[0].p99_us),
    TDTCP_FIELD_METRIC("churn_fct_s_p999_us", churn_fct_bucket[0].p999_us),
    TDTCP_FIELD_METRIC("churn_fct_m_count", churn_fct_bucket[1].count),
    TDTCP_FIELD_METRIC("churn_fct_m_p50_us", churn_fct_bucket[1].p50_us),
    TDTCP_FIELD_METRIC("churn_fct_m_p99_us", churn_fct_bucket[1].p99_us),
    TDTCP_FIELD_METRIC("churn_fct_m_p999_us", churn_fct_bucket[1].p999_us),
    TDTCP_FIELD_METRIC("churn_fct_l_count", churn_fct_bucket[2].count),
    TDTCP_FIELD_METRIC("churn_fct_l_p50_us", churn_fct_bucket[2].p50_us),
    TDTCP_FIELD_METRIC("churn_fct_l_p99_us", churn_fct_bucket[2].p99_us),
    TDTCP_FIELD_METRIC("churn_fct_l_p999_us", churn_fct_bucket[2].p999_us),
    TDTCP_FIELD_METRIC("churn_fct_xl_count", churn_fct_bucket[3].count),
    TDTCP_FIELD_METRIC("churn_fct_xl_p50_us", churn_fct_bucket[3].p50_us),
    TDTCP_FIELD_METRIC("churn_fct_xl_p99_us", churn_fct_bucket[3].p99_us),
    TDTCP_FIELD_METRIC("churn_fct_xl_p999_us", churn_fct_bucket[3].p999_us),
    // Convergence-oracle verdicts + schedule-perturbation accounting.
    TDTCP_FIELD_METRIC("stability_converged", stability_converged),
    TDTCP_FIELD_METRIC("stability_oscillating", stability_oscillating),
    TDTCP_FIELD_METRIC("stability_starved", stability_starved),
    TDTCP_FIELD_METRIC("stability_insufficient", stability_insufficient),
    TDTCP_FIELD_METRIC("stability_worst_amplitude", stability_worst_amplitude),
    TDTCP_FIELD_METRIC("stability_worst_period_us", stability_worst_period_us),
    TDTCP_FIELD_METRIC("schedule_changes", schedule_changes),
    TDTCP_FIELD_METRIC("restart_holds", restart_holds),
    TDTCP_FIELD_METRIC("tdn_reconfigs", tdn_reconfigs),
};

#undef TDTCP_FIELD_METRIC

}  // namespace

std::span<const SweepMetric> SweepMetrics() { return kSweepMetrics; }

std::vector<std::pair<std::string, double>> ScalarMetrics(
    const ExperimentResult& r) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(std::size(kSweepMetrics));
  for (const SweepMetric& m : kSweepMetrics) out.emplace_back(m.name, m.get(r));
  return out;
}

std::vector<std::pair<std::string, MetricStats>> AggregateRuns(
    const std::vector<SweepRun>& runs) {
  std::vector<std::pair<std::string, MetricStats>> out;
  if (runs.empty()) return out;
  out.reserve(std::size(kSweepMetrics));
  std::vector<double> values(runs.size());
  for (const SweepMetric& m : kSweepMetrics) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      values[i] = m.get(runs[i].result);
    }
    out.emplace_back(m.name, ComputeStats(values));
  }
  return out;
}

std::vector<SweepCase> ExpandGrid(const SweepSpec& spec) {
  const std::vector<Variant> variants =
      spec.variants.empty() ? std::vector<Variant>{spec.base.workload.variant}
                            : spec.variants;
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.seed}
                         : spec.seeds;
  const std::vector<SimTime> durations =
      spec.durations.empty() ? std::vector<SimTime>{spec.base.duration}
                             : spec.durations;
  const std::vector<SchedulePoint> schedules =
      spec.schedules.empty()
          ? std::vector<SchedulePoint>{{"", spec.base.schedule}}
          : spec.schedules;
  const std::vector<QdiscPoint> qdiscs =
      spec.qdiscs.empty()
          ? std::vector<QdiscPoint>{{"", spec.base.topology.voq}}
          : spec.qdiscs;

  std::vector<SweepCase> cases;
  cases.reserve(variants.size() * schedules.size() * qdiscs.size() *
                durations.size() * seeds.size());
  for (Variant v : variants) {
    for (const SchedulePoint& sp : schedules) {
      for (const QdiscPoint& qp : qdiscs) {
        for (SimTime d : durations) {
          for (std::uint64_t seed : seeds) {
            SweepCase c;
            c.label = VariantName(v);
            if (!sp.label.empty()) c.label += "/" + sp.label;
            if (!qp.label.empty()) c.label += "/" + qp.label;
            c.schedule_label = sp.label;
            c.qdisc_label = qp.label;
            c.config = spec.base;
            // Qdisc before variant: the variant's queue knobs (DCTCP's ECN
            // threshold) then compose on top of the chosen discipline.
            c.config.WithQdiscConfig(qp.qdisc)
                .WithVariant(v)
                .WithSchedule(sp.schedule)
                .WithDuration(d)
                .WithSeed(seed);
            cases.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cases;
}

namespace {

std::vector<ExperimentResult> RunAll(const std::vector<SweepCase>& cases,
                                     int jobs) {
  std::vector<ExperimentResult> results(cases.size());
  ParallelFor(jobs, cases.size(), [&](std::size_t i) {
    results[i] = RunExperiment(cases[i].config);
  });
  return results;
}

// Throws unless every metric of every pooled run matches its serial rerun
// bit for bit (NaN included, so the comparison is on the bit pattern).
void RequireBitIdentical(const std::vector<SweepCase>& cases,
                         const std::vector<ExperimentResult>& pooled,
                         const std::vector<ExperimentResult>& serial) {
  std::string diff;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const SweepMetric& m : kSweepMetrics) {
      const double a = m.get(pooled[i]);
      const double b = m.get(serial[i]);
      if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
        continue;
      }
      char line[256];
      std::snprintf(line, sizeof line, "\n  %s seed %llu %s: %.17g != %.17g",
                    cases[i].label.c_str(),
                    static_cast<unsigned long long>(cases[i].config.seed),
                    m.name, a, b);
      diff += line;
    }
  }
  if (!diff.empty()) {
    throw std::runtime_error("jobs=1 != jobs=N (pooled != serial):" + diff);
  }
}

}  // namespace

SweepResult RunCases(const std::vector<SweepCase>& cases,
                     std::size_t seeds_per_cell, int jobs,
                     bool check_bit_identity) {
  if (seeds_per_cell == 0 || cases.size() % seeds_per_cell != 0) {
    throw std::invalid_argument(
        "RunCases: cases must hold seeds_per_cell runs per cell");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ExperimentResult> results = RunAll(cases, jobs);
  SweepResult out;
  out.jobs = ResolveJobs(jobs);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (check_bit_identity) RequireBitIdentical(cases, results, RunAll(cases, 1));

  for (std::size_t i = 0; i < cases.size(); i += seeds_per_cell) {
    SweepCell cell;
    cell.label = cases[i].label;
    cell.variant = cases[i].config.workload.variant;
    cell.duration = cases[i].config.duration;
    // Axis labels travel on the case itself — no label-string surgery.
    cell.schedule_label = cases[i].schedule_label;
    cell.qdisc_label = cases[i].qdisc_label;
    for (std::size_t k = 0; k < seeds_per_cell; ++k) {
      cell.runs.push_back(
          SweepRun{cases[i + k].config.seed, std::move(results[i + k])});
    }
    cell.metrics = AggregateRuns(cell.runs);
    out.cells.push_back(std::move(cell));
  }
  return out;
}

SweepResult RunSweep(const SweepSpec& spec) {
  return RunCases(ExpandGrid(spec), spec.seeds.empty() ? 1 : spec.seeds.size(),
                  spec.jobs);
}

}  // namespace tdtcp
