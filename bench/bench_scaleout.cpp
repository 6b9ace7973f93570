// Production-scale workload engine bench: an N-rack rotor fabric under
// heavy-tailed flow-size-CDF churn, sustaining ~1M connection lifecycles per
// run.
//
// Each cell drives every host in an 8-rack (default) RotorNet-style fabric
// as an independent Poisson source, with transfer sizes drawn from a
// built-in flow-size distribution (websearch = DCTCP §2.2, datamining =
// VL2) and destinations picked by a rack-selection policy (uniform
// all-to-all or skewed hotspot). Sizes are scaled down from the published
// distributions (and capped at 2 MB) so a million lifecycles stay
// wall-time-feasible while keeping the shape heavy-tailed across all four
// FCT size buckets; the scale factors are part of the cell definition and
// the tracked baseline.
//
// Reported per cell: lifecycle accounting (every opened connection must
// reach a definite CloseReason — the bench exits nonzero otherwise) and
// per-size-bucket nearest-rank FCT percentiles, plus the 53-bit churn/trace
// determinism fingerprints. --check-bit-identity has the runner rerun every
// case at jobs=1 and compare every sweep metric against the parallel run:
// the jobs=1 == jobs=N contract, enforced with a nonzero exit.
//
// Flags beyond the shared bench set:
//   --lifecycles=N        connection lifecycles per cell (default 1000000)
//   --racks=N             fabric size, even >= 2 (default 8)
//   --policy=NAME         keep only cells with this rack policy
//   --check-bit-identity  rerun serially and compare every sweep metric
//
// With --out the table is written as tdtcp-bench/1 JSON (the tracked
// BENCH_scaleout.json baseline, gated with tools/bench_compare.py) and the
// full per-cell results as tdtcp-sweep/1 JSON/CSV (<out>_sweep.json/.csv),
// which carry the churn_fct_<bucket>_* metric family. With --seeds=K the
// table and the tdtcp-bench/1 report show seed 1 and the sweep files carry
// every seed; the lifecycle contract is checked on every run.
#include "bench_util.hpp"

#include "app/flow_cdf.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

struct ScaleoutArgs {
  std::uint32_t lifecycles = 1'000'000;
  std::uint32_t racks = 8;
  std::string policy;             // "" = all cells
  bool check_bit_identity = false;
};

// Takes one scaleout-specific flag (BenchFlags::parse).
bool ParseScaleoutFlag(const char* a, ScaleoutArgs& out) {
  const auto count = [](const char* flag, const char* v) {
    return ParseNumber<std::uint32_t>("bench_scaleout", flag, v);
  };
  if (std::strncmp(a, "--lifecycles=", 13) == 0) {
    out.lifecycles = std::max(1u, count("--lifecycles", a + 13));
  } else if (std::strncmp(a, "--racks=", 8) == 0) {
    out.racks = std::max(2u, count("--racks", a + 8));
  } else if (std::strncmp(a, "--policy=", 9) == 0) {
    out.policy = a + 9;
    RequireKnownName("bench_scaleout", "--policy", a + 9, RackPolicyFromName,
                     "uniform | permutation | hotspot");
  } else if (std::strcmp(a, "--check-bit-identity") == 0) {
    out.check_bit_identity = true;
  } else {
    return false;
  }
  return true;
}

struct Cell {
  std::string name;
  std::string cdf;       // built-in distribution name
  double scale;          // size_scale applied to every draw
  RackPolicy policy;
};

std::vector<Cell> Cells() {
  // Scale factors keep ~1M lifecycles wall-time-feasible while spanning all
  // four size buckets: websearch/24 tops out just above the 1 MB xl edge;
  // datamining/16's super-heavy tail is clamped by the 2 MB cap (so capped
  // samples land in xl).
  return {
      Cell{"websearch/uniform", "websearch", 1.0 / 24, RackPolicy::kUniform},
      Cell{"datamining/uniform", "datamining", 1.0 / 16, RackPolicy::kUniform},
      Cell{"websearch/hotspot", "websearch", 1.0 / 24, RackPolicy::kHotspot},
  };
}

ExperimentConfig CellConfig(const Cell& cell, const ScaleoutArgs& sargs,
                            const BenchArgs& args) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithRotorFabric(sargs.racks)
                             .WithDurationMs(args.duration_ms)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithRackPolicy(cell.policy)
                             .WithFlowSizeCdf(BuiltinFlowSizeCdf(cell.cdf),
                                              cell.scale)
                             .WithTrace();
  // Churn-only: the lifecycle population is the entire workload.
  cfg.workload.num_flows = 0;
  cfg.churn.enabled = true;
  cfg.churn.target_connections = sargs.lifecycles;
  // Per-source mean gap: every host in the fabric is a source, so the
  // aggregate arrival rate scales with racks * hosts_per_rack.
  cfg.churn.mean_interarrival = SimTime::Micros(100);
  cfg.churn.max_concurrent = 2048;
  cfg.churn.size_cap_bytes = 2'000'000;
  cfg.churn.hotspot_rack = 0;
  cfg.churn.hotspot_fraction = 0.5;
  return cfg;
}

BenchRun ToRun(const SweepCell& cell) {
  const ExperimentResult& r = FirstRun(cell);
  BenchRun run;
  run.name = cell.label;
  run.iterations = 1;
  auto& c = run.counters;
  c["opened"] = static_cast<double>(r.churn.opened);
  c["closed"] = static_cast<double>(r.churn.closed);
  c["abnormal"] = static_cast<double>(r.churn.abnormal());
  c["deferred"] = static_cast<double>(r.churn.deferred);
  c["app_timeouts"] = static_cast<double>(r.churn.app_timeouts);
  c["all_closed"] = r.churn_all_closed ? 1.0 : 0.0;
  c["sim_events"] = static_cast<double>(r.sim_events);
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    const std::string prefix = std::string("fct_") + kFctBucketNames[b];
    const auto& bucket = r.churn_fct_bucket[b];
    c[prefix + "_count"] = static_cast<double>(bucket.count);
    c[prefix + "_p50_us"] = bucket.p50_us;
    c[prefix + "_p99_us"] = bucket.p99_us;
    c[prefix + "_p999_us"] = bucket.p999_us;
  }
  // 53-bit determinism fingerprints (JSON-double safe).
  c["churn_hash"] = static_cast<double>(r.churn_hash & ((1ull << 53) - 1));
  c["trace_hash"] = static_cast<double>(r.trace_hash & ((1ull << 53) - 1));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleoutArgs sargs;
  BenchFlags flags;
  flags.usage =
      "[--lifecycles=N] [--racks=R] [--policy=uniform|permutation|hotspot] "
      "[--check-bit-identity]";
  flags.parse = [&](const char* a) { return ParseScaleoutFlag(a, sargs); };
  const BenchArgs args = ParseBenchArgs(argc, argv, 10, flags);

  std::vector<SweepCase> cells;
  for (const Cell& cell : Cells()) {
    if (sargs.policy.empty() || RackPolicyName(cell.policy) == sargs.policy) {
      cells.push_back({cell.name, CellConfig(cell, sargs, args)});
    }
  }

  std::printf("Scale-out workload engine: %u-rack rotor fabric, %u connection "
              "lifecycles per cell,\nper-source Poisson arrivals, CDF flow "
              "sizes, per-size-bucket FCT tails:\n\n",
              sargs.racks, sargs.lifecycles);

  SweepResult sweep;
  try {
    sweep = RunBenchCells(cells, args, sargs.check_bit_identity);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "FAIL %s\n", e.what());
    return 1;
  }
  if (sargs.check_bit_identity) std::fprintf(stderr, "  bit-identity: OK\n");

  bool ok = true;
  std::printf("%-20s %9s %8s %8s | %-9s %-9s %-9s %-9s\n", "cell", "closed",
              "abnorml", "defer", "s p99_us", "m p99_us", "l p99_us",
              "xl p99_us");
  BenchReport report;
  report.context = "bench_scaleout";
  for (const SweepCell& cell : sweep.cells) {
    const BenchRun run = ToRun(cell);
    std::printf("%-20s %9.0f %8.0f %8.0f | %-9.0f %-9.0f %-9.0f %-9.0f\n",
                cell.label.c_str(), run.counters.at("closed"),
                run.counters.at("abnormal"), run.counters.at("deferred"),
                run.counters.at("fct_s_p99_us"),
                run.counters.at("fct_m_p99_us"),
                run.counters.at("fct_l_p99_us"),
                run.counters.at("fct_xl_p99_us"));
    report.runs.push_back(run);
    // The lifecycle contract: every opened connection reaches kClosed with a
    // definite CloseReason, and the generator hit its target.
    for (const SweepRun& sr : cell.runs) {
      const ExperimentResult& r = sr.result;
      if (!r.churn_all_closed || r.churn.opened != sargs.lifecycles ||
          r.churn.closed != r.churn.opened) {
        std::fprintf(stderr,
                     "FAIL %s seed %llu: lifecycle leak (opened=%llu "
                     "closed=%llu all_closed=%d, target=%u)\n",
                     cell.label.c_str(),
                     static_cast<unsigned long long>(sr.seed),
                     static_cast<unsigned long long>(r.churn.opened),
                     static_cast<unsigned long long>(r.churn.closed),
                     r.churn_all_closed ? 1 : 0, sargs.lifecycles);
        ok = false;
      }
    }
  }

  WriteOut(args, &sweep, &report);
  return ok ? 0 : 1;
}
