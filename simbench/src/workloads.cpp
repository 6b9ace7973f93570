#include "workloads.hpp"

#include "app/flow_cdf.hpp"

namespace simbench {

using namespace tdtcp;

namespace {

// Sizes are chosen so one RunExperiment takes about a second on one core:
// long enough to time, short enough that a run repeats it several times.
constexpr std::uint32_t kRotorLifecycles = 30'000;
constexpr int kPaperBulkMs = 1'000;
constexpr std::uint32_t kShortflowLifecycles = 20'000;
constexpr int kShortflowMs = 1'600;  // about the arrival window of the churn

}  // namespace

std::optional<WorkloadKind> WorkloadFromName(std::string_view name) {
  if (name == "rotor-churn") return WorkloadKind::kRotorChurn;
  if (name == "paper-bulk") return WorkloadKind::kPaperBulk;
  if (name == "faulted-shortflows") return WorkloadKind::kFaultedShortflows;
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kRotorChurn:
      return "rotor-churn";
    case WorkloadKind::kPaperBulk:
      return "paper-bulk";
    case WorkloadKind::kFaultedShortflows:
      return "faulted-shortflows";
  }
  return "?";
}

ExperimentConfig MakeConfig(WorkloadKind w, std::uint64_t seed,
                            Observe observe) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp).WithSeed(seed);
  // Only the goodput sampler stays, at a coarse 1 ms (RunExperiment always
  // runs it); the VOQ and reordering series are figure inputs, not outcomes.
  cfg.WithSampling(false, false).WithSampleInterval(SimTime::Millis(1));
  switch (w) {
    case WorkloadKind::kRotorChurn:
      // bench_scaleout's websearch/uniform cell: every host an open-loop
      // Poisson source, websearch sizes / 24 capped at 2 MB.
      cfg.WithRotorFabric(8)
          .WithDurationMs(10)
          .WithRackPolicy(RackPolicy::kUniform)
          .WithFlowSizeCdf(BuiltinFlowSizeCdf("websearch"), 1.0 / 24);
      cfg.workload.num_flows = 0;
      cfg.churn.enabled = true;
      cfg.churn.target_connections = kRotorLifecycles;
      cfg.churn.mean_interarrival = SimTime::Micros(100);
      cfg.churn.max_concurrent = 2048;
      cfg.churn.size_cap_bytes = 2'000'000;
      break;
    case WorkloadKind::kPaperBulk:
      // §5.1: two racks, 16 long-lived TDTCP flows, the paper's 20 ms warmup.
      cfg.WithFlows(16)
          .WithDuration(SimTime::Millis(kPaperBulkMs))
          .WithWarmup(SimTime::Millis(20));
      break;
    case WorkloadKind::kFaultedShortflows: {
      // bench_shortflows' agent/codel cell, scaled up.
      cfg.WithDurationMs(kShortflowMs)
          .WithQdisc(QdiscKind::kCodel)
          .WithRecovery(RecoveryMode::kAgent);
      cfg.workload.num_flows = 2;
      cfg.churn.enabled = true;
      cfg.churn.target_connections = kShortflowLifecycles;
      cfg.churn.mean_interarrival = SimTime::Micros(60);
      cfg.churn.min_transfer_bytes = 8940;
      cfg.churn.max_transfer_bytes = 4 * 8940;
      cfg.churn.max_concurrent = 24;
      FaultPlan plan;
      plan.fabric.gilbert_elliott = true;
      plan.fabric.ge_p_good_to_bad = 0.002;
      plan.fabric.ge_p_bad_to_good = 0.2;
      plan.control.notify_loss_rate = 0.05;
      cfg.fault = plan;
      break;
    }
  }
  cfg.workload.base.invariant_checks = observe.invariant_checks;
  if (observe.trace) cfg.WithTrace();
  return cfg;
}

}  // namespace simbench
