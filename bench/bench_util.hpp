// Shared bench harness, a thin layer over the sweep engine (app/sweep.hpp).
// A bench declares its cells as fully-resolved SweepCases (or a base config
// and a variant list, via RunVariants); RunBenchCells runs --seeds seeds of
// each cell through RunCases on the pool with the shared overrides applied,
// and WriteOut is the one --out writer (app/result_io.hpp).
//
// Every bench accepts the shared flags
//     ./bench_xxx [duration_ms] [--duration-ms=D] [--jobs=N] [--seeds=K]
//                 [--qdisc=NAME] [--recovery=MODE] [--out=path]
//                 [--schedule-jitter=US] [--day-skew=S]
// and honours each or refuses it: a bench that builds its own simulations
// (bench_incast, bench_fairness) lists the ones it cannot honour in
// BenchFlags::refused, and its usage message leaves them out. --jobs=0 (the
// default) uses one worker per hardware thread; results are bit-identical
// at any job count. --seeds=K runs seeds 1..K per
// cell and aggregates mean +/- 95% CI (tables print the first seed unless
// they print means). --qdisc selects the VOQ queue discipline (droptail |
// codel | delaymark | sharedpool), --recovery the tail-recovery mode (off |
// rack | agent); empty keeps the config's default. Longer durations average
// more optical weeks per seed (the paper averages thousands).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/experiment.hpp"
#include "app/result_io.hpp"
#include "app/sweep.hpp"
#include "trace/samplers.hpp"

namespace tdtcp::bench {

struct BenchArgs {
  std::string prog;   // argv[0], for messages
  int duration_ms = 0;
  int jobs = 0;       // 0 = hardware concurrency
  int seeds = 1;      // seeds 1..K per configuration point
  std::string qdisc;  // VOQ discipline name ("" = config default)
  std::string recovery;  // recovery mode name ("" = config default)
  std::string out;    // base path for --out files ("" = don't write)
  // Adversarial-schedule axes, applied to every run (0 = nominal schedule):
  // --schedule-jitter=J adds a uniform +/- J µs draw to every day/night
  // boundary; --day-skew=S stretches even days by (1+S) and shrinks odd days
  // by (1-S), S in [0, 1).
  double schedule_jitter_us = 0.0;
  double day_skew = 0.0;
  std::vector<std::string> given;  // the --flag names on the command line
};

// What a bench adds to the shared flag set and what it takes away; the
// usage message lists exactly the flags the bench accepts.
struct BenchFlags {
  // Usage text of the bench's own flags, e.g. "[--racks=R]".
  std::string usage;
  // Takes one argument the shared set does not know; returns whether it
  // took it.
  std::function<bool(const char*)> parse;
  // Shared flags the bench cannot honour (it builds its own simulations):
  // giving one prints the usage and exits 2.
  std::vector<std::string> refused;
};

[[noreturn]] inline void ExitUsage(const std::string& prog,
                                   const BenchFlags& own) {
  static constexpr const char* kShared[][2] = {
      {"--duration-ms", "[--duration-ms=D]"}, {"--jobs", "[--jobs=N]"},
      {"--seeds", "[--seeds=K]"},             {"--qdisc", "[--qdisc=NAME]"},
      {"--recovery", "[--recovery=MODE]"},    {"--out", "[--out=path]"},
      {"--schedule-jitter", "[--schedule-jitter=US]"},
      {"--day-skew", "[--day-skew=S]"},
  };
  std::string usage = "usage: " + prog + " [duration_ms]";
  for (const auto& [name, text] : kShared) {
    if (std::find(own.refused.begin(), own.refused.end(), name) ==
        own.refused.end()) {
      usage += std::string(" ") + text;
    }
  }
  if (!own.usage.empty()) usage += " " + own.usage;
  std::fprintf(stderr, "%s\n", usage.c_str());
  std::exit(2);
}

// Parses the whole of `v` as a number; exits 2 on anything else (atoi would
// read "x" as 0 and silently fall back to a default).
template <class T>
T ParseNumber(const char* prog, const char* flag, const char* v) {
  T out{};
  const char* end = v + std::strlen(v);
  const auto [p, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || p != end) {
    std::fprintf(stderr, "%s: %s needs a number, got '%s'\n", prog, flag, v);
    std::exit(2);
  }
  return out;
}

// Exits 2 unless `from_name` accepts the value of --`flag`.
template <class FromName>
void RequireKnownName(const char* prog, const char* flag, const char* value,
                      FromName from_name, const char* expected) {
  try {
    (void)from_name(value);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "%s: unknown %s '%s' (expected %s)\n", prog, flag,
                 value, expected);
    std::exit(2);
  }
}

// Parses the shared flags plus the bench's own (`own`). An argument neither
// set takes, or a shared flag the bench refuses, prints the usage and exits
// 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv, int default_ms,
                                const BenchFlags& own = {}) {
  BenchArgs args;
  args.prog = argv[0];
  args.duration_ms = default_ms;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    // Matches "--NAME=VALUE", leaving VALUE in v.
    const auto flag = [&](const char* name) {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(a, name, n) != 0 || a[n] != '=') return false;
      v = a + n + 1;
      args.given.push_back(name);
      return true;
    };
    if (flag("--duration-ms")) {
      args.duration_ms = ParseNumber<int>(argv[0], "--duration-ms", v);
    } else if (flag("--jobs")) {
      args.jobs = ParseNumber<int>(argv[0], "--jobs", v);
    } else if (flag("--seeds")) {
      args.seeds = std::max(1, ParseNumber<int>(argv[0], "--seeds", v));
    } else if (flag("--qdisc")) {
      RequireKnownName(argv[0], "--qdisc", v, QdiscKindFromName,
                       "droptail | codel | delaymark | sharedpool");
      args.qdisc = v;
    } else if (flag("--recovery")) {
      RequireKnownName(argv[0], "--recovery", v, RecoveryModeFromName,
                       "off | rack | agent");
      args.recovery = v;
    } else if (flag("--out")) {
      args.out = v;
    } else if (flag("--schedule-jitter")) {
      args.schedule_jitter_us =
          ParseNumber<double>(argv[0], "--schedule-jitter", v);
      if (args.schedule_jitter_us < 0.0) {
        std::fprintf(stderr, "%s: --schedule-jitter must be >= 0 µs\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (flag("--day-skew")) {
      args.day_skew = ParseNumber<double>(argv[0], "--day-skew", v);
      if (args.day_skew < 0.0 || args.day_skew >= 1.0) {
        std::fprintf(stderr, "%s: --day-skew must be in [0, 1)\n", argv[0]);
        std::exit(2);
      }
    } else if (a[0] != '-' && std::atoi(a) > 0) {
      args.duration_ms = std::atoi(a);  // legacy positional [duration_ms]
    } else if (!own.parse || !own.parse(a)) {
      ExitUsage(args.prog, own);
    }
  }
  for (const std::string& name : own.refused) {
    if (std::find(args.given.begin(), args.given.end(), name) !=
        args.given.end()) {
      std::fprintf(stderr, "%s: %s is not supported by this bench\n",
                   args.prog.c_str(), name.c_str());
      ExitUsage(args.prog, own);
    }
  }
  if (args.duration_ms <= 0) args.duration_ms = default_ms;
  return args;
}

// Applies --qdisc, --recovery, --schedule-jitter and --day-skew (when given)
// to one resolved config. Each sets fields that nothing else in a cell
// derives from (the VOQ kind, the recovery mode, the perturbation), so the
// result does not depend on whether this runs before or after WithVariant.
inline void ApplySharedFlags(ExperimentConfig& cfg, const BenchArgs& args) {
  if (!args.qdisc.empty()) cfg.WithQdisc(QdiscKindFromName(args.qdisc));
  if (!args.recovery.empty()) {
    cfg.WithRecovery(RecoveryModeFromName(args.recovery));
  }
  if (args.schedule_jitter_us != 0.0 || args.day_skew != 0.0) {
    PerturbationConfig p = cfg.perturb;  // keep any bench-specific changes
    p.day_skew = args.day_skew;
    p.jitter = SimTime::Picos(
        static_cast<std::int64_t>(args.schedule_jitter_us * 1e6));
    cfg.WithSchedulePerturbation(std::move(p));
  }
}

// The one bench runner: every cell (a fully-resolved case, its seed aside)
// runs under seeds 1..--seeds with the shared flags applied, all through
// RunCases on the pool. Cells come back in input order.
inline SweepResult RunBenchCells(const std::vector<SweepCase>& cells,
                                 const BenchArgs& args,
                                 bool check_bit_identity = false) {
  std::vector<SweepCase> cases;
  cases.reserve(cells.size() * static_cast<std::size_t>(args.seeds));
  for (const SweepCase& cell : cells) {
    for (int seed = 1; seed <= args.seeds; ++seed) {
      SweepCase& c = cases.emplace_back(cell);
      c.config.WithSeed(static_cast<std::uint64_t>(seed));
      ApplySharedFlags(c.config, args);
    }
  }
  std::fprintf(stderr, "  sweep: %zu cells x %d seed%s, jobs=%d...\n",
               cells.size(), args.seeds, args.seeds == 1 ? "" : "s",
               ResolveJobs(args.jobs));
  SweepResult sweep = RunCases(cases, static_cast<std::size_t>(args.seeds),
                               args.jobs, check_bit_identity);
  std::fprintf(stderr, "  done in %.2fs wall\n", sweep.wall_seconds);
  return sweep;
}

// The first seed's run of a cell: what the printed tables show.
inline const ExperimentResult& FirstRun(const SweepCell& cell) {
  return cell.runs.front().result;
}

// A cell's cross-seed statistics for one SweepMetrics() name.
inline const MetricStats& Stat(const SweepCell& cell, const std::string& name) {
  for (const auto& [n, s] : cell.metrics) {
    if (n == name) return s;
  }
  throw std::out_of_range("no sweep metric " + name);
}

// The one --out writer. With a tdtcp-bench/1 report the report goes to
// <out>.json and the sweep to <out>_sweep.json/.csv; without one the sweep
// goes to <out>.json/.csv. A failed write exits 1: the tables are printed,
// but the file a later comparison reads is missing.
inline void WriteOut(const BenchArgs& args, const SweepResult* sweep,
                     const BenchReport* report = nullptr) {
  if (args.out.empty()) return;
  const std::string sweep_base = report ? args.out + "_sweep" : args.out;
  try {
    if (report) {
      WriteBenchJson(args.out + ".json", *report);
      std::fprintf(stderr, "  wrote %s.json (schema %s)\n", args.out.c_str(),
                   kBenchSchemaVersion);
    }
    if (sweep) {
      WriteSweepJson(sweep_base + ".json", *sweep);
      WriteSweepCsv(sweep_base + ".csv", *sweep);
      std::fprintf(stderr, "  wrote %s.json, %s.csv (schema %s)\n",
                   sweep_base.c_str(), sweep_base.c_str(),
                   kSweepSchemaVersion);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: --out failed: %s\n", args.prog.c_str(),
                 e.what());
    std::exit(1);
  }
}

// Runs each variant under `base` through RunBenchCells and writes --out;
// one cell per variant, in order. Duration/warmup come from `base` (set
// them via WithDurationMs(args.duration_ms) or explicitly).
inline std::vector<SweepCell> RunVariants(const std::vector<Variant>& variants,
                                          const ExperimentConfig& base,
                                          const BenchArgs& args) {
  SweepSpec spec;
  spec.base = base;
  spec.variants = variants;
  SweepResult sweep = RunBenchCells(ExpandGrid(spec), args);
  WriteOut(args, &sweep);
  return std::move(sweep.cells);
}

// Prints a paper-style sequence-number table: one row per `row_step_us`,
// one column per curve, values in bytes since the window start.
inline void PrintSeqTable(const std::vector<NamedSeries>& series,
                          double row_step_us, const char* unit = "bytes") {
  std::printf("\n%-10s", "time_us");
  for (const auto& s : series) std::printf(" %14s", s.name.c_str());
  std::printf("   (%s)\n", unit);
  if (series.empty() || series.front().points.empty()) return;
  double next_row = 0;
  for (std::size_t i = 0; i < series.front().points.size(); ++i) {
    const double t = series.front().points[i].offset_us;
    if (t + 1e-9 < next_row) continue;
    next_row = t + row_step_us;
    std::printf("%-10.0f", t);
    for (const auto& s : series) {
      if (i < s.points.size()) {
        std::printf(" %14.0f", s.points[i].mean);
      } else {
        std::printf(" %14s", "");
      }
    }
    std::printf("\n");
  }
}

// Mean of a folded curve's values (0 when empty).
inline double CurveMean(const std::vector<FoldedPoint>& curve) {
  double sum = 0;
  for (const FoldedPoint& p : curve) sum += p.mean;
  return curve.empty() ? 0.0 : sum / curve.size();
}

inline void PrintGoodputSummary(const std::vector<SweepCell>& runs,
                                double optimal_bps, double packet_only_bps) {
  const bool ci = !runs.empty() && Stat(runs.front(), "goodput_bps").n > 1;
  std::printf("\n%-10s %10s %8s %8s%s\n", "variant", "goodput", "of-opt",
              "vs-pkt", ci ? "    ci95" : "");
  std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx\n", "optimal", optimal_bps / 1e9,
              100.0, optimal_bps / packet_only_bps);
  for (const SweepCell& r : runs) {
    const MetricStats& g = Stat(r, "goodput_bps");
    std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx", VariantName(r.variant),
                g.mean / 1e9, 100.0 * g.mean / optimal_bps,
                g.mean / packet_only_bps);
    if (ci) std::printf("  +-%.2f Gb", g.ci95 / 1e9);
    std::printf("\n");
  }
  std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx\n", "pkt-only",
              packet_only_bps / 1e9, 100.0 * packet_only_bps / optimal_bps,
              1.0);
}

// Assembles the standard figure bundle: per-variant seq curves plus the
// analytic optimal/packet-only lines from the first run.
inline std::vector<NamedSeries> SeqSeries(const std::vector<SweepCell>& runs) {
  std::vector<NamedSeries> series;
  if (!runs.empty()) {
    series.push_back(NamedSeries{"optimal", FirstRun(runs.front()).optimal_curve});
  }
  for (const SweepCell& r : runs) {
    series.push_back(NamedSeries{VariantName(r.variant), FirstRun(r).seq_curve});
  }
  if (!runs.empty()) {
    series.push_back(
        NamedSeries{"packet_only", FirstRun(runs.front()).packet_only_curve});
  }
  return series;
}

inline std::vector<NamedSeries> VoqSeries(const std::vector<SweepCell>& runs) {
  std::vector<NamedSeries> series;
  for (const SweepCell& r : runs) {
    series.push_back(NamedSeries{VariantName(r.variant), FirstRun(r).voq_curve});
  }
  return series;
}

inline double AnalyticOptimalBps(const ExperimentConfig& cfg) {
  const Schedule schedule(cfg.schedule);
  return schedule.OptimalBits(schedule.week_length(),
                              cfg.topology.packet_mode.rate_bps,
                              cfg.topology.circuit_mode.rate_bps) /
         schedule.week_length().seconds();
}

}  // namespace tdtcp::bench
