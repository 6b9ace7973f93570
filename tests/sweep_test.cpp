// The thread-parallel sweep engine (app/sweep) and its result emission
// (app/result_io): determinism across job counts, aggregation math, grid
// expansion, and the tdtcp-sweep/1 JSON round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/result_io.hpp"
#include "app/sweep.hpp"

namespace tdtcp {
namespace {

// A short paper-config run: two 1400us optical weeks, no sampling overhead.
ExperimentConfig TinyConfig(Variant v) {
  return PaperConfig(v)
      .WithFlows(2)
      .WithDuration(SimTime::Micros(2800))
      .WithWarmup(SimTime::Micros(1400))
      .WithSampling(false, false)
      .WithSampleInterval(SimTime::Micros(100))
      .WithPlotWeeks(1);
}

SweepSpec TinySpec(int jobs) {
  SweepSpec spec;
  spec.base = TinyConfig(Variant::kTdtcp);
  spec.variants = {Variant::kTdtcp, Variant::kCubic};
  spec.seeds = {1, 2, 3};
  spec.jobs = jobs;
  return spec;
}

// ---------------------------------------------------------------------------
// ParallelFor / ResolveJobs
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RunsInlineWithOneJob) {
  int sum = 0;  // no atomics needed: jobs=1 must not spawn threads
  ParallelFor(1, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(ParallelFor(4, 64,
                           [](std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ResolveJobs, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveJobs(3), 3);
  EXPECT_GE(ResolveJobs(0), 1);
}

// ---------------------------------------------------------------------------
// Aggregation math, against hand-computed fixtures
// ---------------------------------------------------------------------------

TEST(ComputeStats, HandComputedFixture) {
  // {4, 8, 6, 2}: mean 5, sample variance (1+9+1+9)/3 = 20/3.
  const MetricStats s = ComputeStats({4, 8, 6, 2});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(20.0 / 3.0), 1e-12);
  // 95% CI half-width with t_{0.975, df=3} = 3.182.
  EXPECT_NEAR(s.ci95, 3.182 * std::sqrt(20.0 / 3.0) / 2.0, 1e-9);
}

TEST(ComputeStats, SingleValueHasNoSpread) {
  const MetricStats s = ComputeStats({42.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(ComputeStats, LargeSampleUsesNormalCritical) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 ? 1.0 : -1.0);
  const MetricStats s = ComputeStats(v);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  const double stddev = std::sqrt(100.0 / 99.0);
  EXPECT_NEAR(s.stddev, stddev, 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * stddev / 10.0, 1e-9);  // df=99 -> z
}

TEST(AggregateRuns, AggregatesEveryScalarMetricAcrossSeeds) {
  SweepRun a, b;
  a.seed = 1;
  a.result.goodput_bps = 10e9;
  a.result.retransmissions = 100;
  b.seed = 2;
  b.result.goodput_bps = 20e9;
  b.result.retransmissions = 300;
  const auto metrics = AggregateRuns({a, b});
  ASSERT_EQ(metrics.size(), ScalarMetrics(a.result).size());
  EXPECT_EQ(metrics[0].first, "goodput_bps");
  EXPECT_DOUBLE_EQ(metrics[0].second.mean, 15e9);
  bool found_rtx = false;
  for (const auto& [name, st] : metrics) {
    if (name == "retransmissions") {
      found_rtx = true;
      EXPECT_DOUBLE_EQ(st.mean, 200.0);
      EXPECT_NEAR(st.stddev, std::sqrt(2.0) * 100.0, 1e-9);
      // t_{0.975, df=1} = 12.706.
      EXPECT_NEAR(st.ci95, 12.706 * std::sqrt(2.0) * 100.0 / std::sqrt(2.0),
                  1e-6);
    }
  }
  EXPECT_TRUE(found_rtx);
}

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

TEST(ExpandGrid, VariantMajorOrderAndSeedBlocks) {
  SweepSpec spec = TinySpec(1);
  spec.schedules.push_back({"relaxed", spec.base.schedule});
  const auto cases = ExpandGrid(spec);
  // 2 variants x 1 schedule x 1 duration x 3 seeds.
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(cases[0].label, "tdtcp/relaxed");
  EXPECT_EQ(cases[3].label, "cubic/relaxed");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cases[static_cast<std::size_t>(i)].config.seed,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(cases[static_cast<std::size_t>(i)].config.workload.variant,
              Variant::kTdtcp);
    EXPECT_EQ(cases[static_cast<std::size_t>(i + 3)].config.workload.variant,
              Variant::kCubic);
  }
}

TEST(ExpandGrid, EmptyAxesFallBackToBase) {
  SweepSpec spec;
  spec.base = TinyConfig(Variant::kDctcp);
  spec.base.seed = 7;
  const auto cases = ExpandGrid(spec);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].config.seed, 7u);
  EXPECT_EQ(cases[0].config.workload.variant, Variant::kDctcp);
  EXPECT_EQ(cases[0].config.duration, spec.base.duration);
}

// ---------------------------------------------------------------------------
// Determinism: jobs=1 and jobs=4 must be bit-identical per seed
// ---------------------------------------------------------------------------

void ExpectIdenticalResults(const ExperimentResult& a,
                            const ExperimentResult& b) {
  // goodput_bps is a double computed from event-exact byte counts: bitwise
  // equality is the contract, not approximate equality.
  EXPECT_EQ(a.goodput_bps, b.goodput_bps);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.reorder_events, b.reorder_events);
  EXPECT_EQ(a.duplicate_segments, b.duplicate_segments);
  EXPECT_EQ(a.cross_tdn_exemptions, b.cross_tdn_exemptions);
  ASSERT_EQ(a.seq_samples.size(), b.seq_samples.size());
  for (std::size_t i = 0; i < a.seq_samples.size(); ++i) {
    EXPECT_EQ(a.seq_samples[i].t, b.seq_samples[i].t);
    EXPECT_EQ(a.seq_samples[i].value, b.seq_samples[i].value);
  }
}

TEST(RunSweep, BitIdenticalAcrossJobCounts) {
  const SweepResult serial = RunSweep(TinySpec(1));
  const SweepResult parallel = RunSweep(TinySpec(4));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const SweepCell& sc = serial.cells[c];
    const SweepCell& pc = parallel.cells[c];
    EXPECT_EQ(sc.label, pc.label);
    ASSERT_EQ(sc.runs.size(), 3u);
    ASSERT_EQ(pc.runs.size(), 3u);
    for (std::size_t r = 0; r < sc.runs.size(); ++r) {
      EXPECT_EQ(sc.runs[r].seed, pc.runs[r].seed);
      ExpectIdenticalResults(sc.runs[r].result, pc.runs[r].result);
    }
    // Aggregates derive from identical inputs in identical order.
    ASSERT_EQ(sc.metrics.size(), pc.metrics.size());
    for (std::size_t m = 0; m < sc.metrics.size(); ++m) {
      EXPECT_EQ(sc.metrics[m].first, pc.metrics[m].first);
      EXPECT_EQ(sc.metrics[m].second.mean, pc.metrics[m].second.mean);
      EXPECT_EQ(sc.metrics[m].second.ci95, pc.metrics[m].second.ci95);
    }
  }
}

TEST(RunCases, ResultsArriveInInputOrder) {
  std::vector<SweepCase> cases = {
      {"tdtcp", TinyConfig(Variant::kTdtcp)},
      {"cubic", TinyConfig(Variant::kCubic)},
      {"dctcp", TinyConfig(Variant::kDctcp)},
  };
  const SweepResult sweep = RunCases(cases, 1, 3);
  ASSERT_EQ(sweep.cells.size(), 3u);
  EXPECT_EQ(sweep.cells[0].runs.front().result.variant, Variant::kTdtcp);
  EXPECT_EQ(sweep.cells[1].runs.front().result.variant, Variant::kCubic);
  EXPECT_EQ(sweep.cells[2].runs.front().result.variant, Variant::kDctcp);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(sweep.cells[i].label, cases[i].label);
    EXPECT_GT(sweep.cells[i].runs.front().result.total_bytes, 0u);
  }
}

TEST(RunCases, GroupsSeedsPerCellInInputOrder) {
  // Cell labels and seeds deliberately out of order: the runner keeps the
  // input order and never sorts.
  const auto seeded = [](std::string label, Variant v, std::uint64_t seed) {
    SweepCase c{std::move(label), TinyConfig(v).WithSeed(seed)};
    c.qdisc_label = "q";
    return c;
  };
  const std::vector<SweepCase> cases = {
      seeded("zeta", Variant::kCubic, 5), seeded("zeta", Variant::kCubic, 2),
      seeded("alpha", Variant::kTdtcp, 7), seeded("alpha", Variant::kTdtcp, 1),
  };
  const SweepResult sweep = RunCases(cases, 2, 4);
  EXPECT_EQ(sweep.jobs, 4);
  EXPECT_GT(sweep.wall_seconds, 0.0);
  ASSERT_EQ(sweep.cells.size(), 2u);
  const std::uint64_t want_seeds[2][2] = {{5, 2}, {7, 1}};
  for (std::size_t c = 0; c < 2; ++c) {
    const SweepCell& cell = sweep.cells[c];
    EXPECT_EQ(cell.label, cases[2 * c].label);
    EXPECT_EQ(cell.variant, cases[2 * c].config.workload.variant);
    EXPECT_EQ(cell.qdisc_label, "q");
    EXPECT_EQ(cell.duration, SimTime::Micros(2800));
    ASSERT_EQ(cell.runs.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(cell.runs[k].seed, want_seeds[c][k]);
      ExpectIdenticalResults(cell.runs[k].result,
                             RunExperiment(cases[2 * c + k].config));
    }
    const auto want = AggregateRuns(cell.runs);
    ASSERT_EQ(cell.metrics.size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(cell.metrics[m].first, want[m].first);
      EXPECT_EQ(cell.metrics[m].second.n, 2u);
      EXPECT_EQ(cell.metrics[m].second.mean, want[m].second.mean);
      EXPECT_EQ(cell.metrics[m].second.ci95, want[m].second.ci95);
    }
  }
}

TEST(RunCases, EqualsRunSweepOnTheSameGridAtAnyJobCount) {
  for (const int jobs : {1, 4}) {
    const SweepSpec spec = TinySpec(jobs);
    const SweepResult grid = RunSweep(spec);
    const SweepResult cases =
        RunCases(ExpandGrid(spec), spec.seeds.size(), jobs);
    EXPECT_EQ(cases.jobs, grid.jobs);
    EXPECT_GT(cases.wall_seconds, 0.0);
    ASSERT_EQ(cases.cells.size(), grid.cells.size());
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      const SweepCell& a = cases.cells[c];
      const SweepCell& b = grid.cells[c];
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.variant, b.variant);
      EXPECT_EQ(a.duration, b.duration);
      ASSERT_EQ(a.runs.size(), b.runs.size());
      for (std::size_t r = 0; r < a.runs.size(); ++r) {
        EXPECT_EQ(a.runs[r].seed, b.runs[r].seed);
        EXPECT_EQ(ScalarMetrics(a.runs[r].result),
                  ScalarMetrics(b.runs[r].result))
            << a.label << " jobs=" << jobs;
      }
      ASSERT_EQ(a.metrics.size(), b.metrics.size());
      for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        EXPECT_EQ(a.metrics[m].second.mean, b.metrics[m].second.mean);
        EXPECT_EQ(a.metrics[m].second.stddev, b.metrics[m].second.stddev);
      }
    }
  }
}

TEST(RunCases, BitIdentityCheckPassesOnDeterministicRuns) {
  const std::vector<SweepCase> cases = ExpandGrid(TinySpec(4));
  EXPECT_NO_THROW(RunCases(cases, 3, 4, /*check_bit_identity=*/true));
}

TEST(RunCases, RejectsCasesThatDoNotSplitIntoCells) {
  const std::vector<SweepCase> cases = {
      {"a", TinyConfig(Variant::kTdtcp)},
      {"b", TinyConfig(Variant::kTdtcp)},
      {"c", TinyConfig(Variant::kTdtcp)},
  };
  EXPECT_THROW(RunCases(cases, 0, 1), std::invalid_argument);
  EXPECT_THROW(RunCases(cases, 2, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// tdtcp-sweep/1 JSON round-trip
// ---------------------------------------------------------------------------

// SweepFromJson(SweepToJson(sweep)) must give back every scalar metric and
// aggregate bit-for-bit (%.17g round-trips doubles exactly).
void ExpectScalarsRoundTrip(const SweepResult& sweep) {
  const std::string json = SweepToJson(sweep);
  EXPECT_NE(json.find(kSweepSchemaVersion), std::string::npos);

  const SweepResult back = SweepFromJson(json);
  EXPECT_EQ(back.jobs, sweep.jobs);
  ASSERT_EQ(back.cells.size(), sweep.cells.size());
  for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
    const SweepCell& orig = sweep.cells[c];
    const SweepCell& rt = back.cells[c];
    EXPECT_EQ(rt.label, orig.label);
    EXPECT_EQ(rt.variant, orig.variant);
    EXPECT_EQ(rt.duration, orig.duration);
    ASSERT_EQ(rt.runs.size(), orig.runs.size());
    for (std::size_t r = 0; r < orig.runs.size(); ++r) {
      EXPECT_EQ(rt.runs[r].seed, orig.runs[r].seed);
      const auto want = ScalarMetrics(orig.runs[r].result);
      const auto got = ScalarMetrics(rt.runs[r].result);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t m = 0; m < want.size(); ++m) {
        EXPECT_EQ(got[m].first, want[m].first);
        EXPECT_EQ(got[m].second, want[m].second)
            << orig.label << " seed " << orig.runs[r].seed << " "
            << want[m].first;
      }
    }
    ASSERT_EQ(rt.metrics.size(), orig.metrics.size());
    for (std::size_t m = 0; m < orig.metrics.size(); ++m) {
      EXPECT_EQ(rt.metrics[m].first, orig.metrics[m].first);
      EXPECT_EQ(rt.metrics[m].second.mean, orig.metrics[m].second.mean);
      EXPECT_EQ(rt.metrics[m].second.stddev, orig.metrics[m].second.stddev);
      EXPECT_EQ(rt.metrics[m].second.ci95, orig.metrics[m].second.ci95);
      EXPECT_EQ(rt.metrics[m].second.n, orig.metrics[m].second.n);
    }
  }
}

TEST(ResultIo, JsonRoundTripPreservesScalars) {
  SweepSpec spec = TinySpec(2);
  spec.seeds = {1, 2};
  ExpectScalarsRoundTrip(RunSweep(spec));

  // Churn, a perturbed schedule and the convergence oracle (it reads the
  // trace ring) light up the churn_*, stability_* and schedule metric
  // families a plain bulk run leaves at zero.
  PerturbationConfig perturb;
  perturb.day_skew = 0.2;
  perturb.jitter = SimTime::Micros(3);
  ScheduleChange faster;
  faster.at = SimTime::Millis(1);
  faster.day_length = SimTime::Micros(90);
  ScheduleChange shrink;
  shrink.at = SimTime::Millis(2);
  shrink.live_tdns = 1;
  ScheduleChange regrow;
  regrow.at = SimTime::Millis(3);
  regrow.live_tdns = 2;
  perturb.changes = {faster, shrink, regrow};
  perturb.restarts.push_back(
      RestartWindow{SimTime::Micros(2500), SimTime::Micros(300)});
  SweepSpec churn = TinySpec(2);
  churn.base.WithDuration(SimTime::Millis(4))
      .WithTrace(1u << 14)
      .WithChurn(20, SimTime::Micros(150))
      .WithSchedulePerturbation(perturb);
  churn.seeds = {1, 2};
  const SweepResult sweep = RunSweep(churn);

  std::set<std::string> nonzero;
  for (const SweepCell& cell : sweep.cells) {
    for (const SweepRun& run : cell.runs) {
      for (const auto& [name, value] : ScalarMetrics(run.result)) {
        if (value != 0) nonzero.insert(name);
      }
    }
  }
  for (const char* name :
       {"churn_opened", "churn_closed", "churn_bytes", "churn_hash",
        "churn_all_closed", "churn_fct_m_count", "stability_converged",
        "schedule_changes", "restart_holds", "tdn_reconfigs"}) {
    EXPECT_TRUE(nonzero.count(name)) << name << " is zero in every run";
  }
  ExpectScalarsRoundTrip(sweep);
}

TEST(ResultIo, RejectsWrongSchema) {
  EXPECT_THROW(SweepFromJson("{\"schema\":\"tdtcp-sweep/999\",\"cells\":[]}"),
               std::runtime_error);
  EXPECT_THROW(SweepFromJson("not json at all"), std::runtime_error);
}

TEST(ResultIo, ParseJsonHandlesWriterSubset) {
  const JsonValue v = ParseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": \"x\\\"y\", \"c\": {\"d\": null}}");
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.Find("b")->string, "x\"y");
  EXPECT_EQ(v.Find("c")->Find("d")->type, JsonValue::Type::kNull);
}

TEST(ResultIo, MalformedInputIsRejectedNotUndefinedBehavior) {
  // Each of these used to be UB or an uncaught std::stod/stoi exception;
  // all must surface as a clear runtime_error.
  const char* bad[] = {
      "",                         // empty input
      "{",                        // truncated object
      "[1, 2",                    // truncated array
      "{\"a\": }",                // missing value
      "{\"a\" 1}",                // missing colon
      "\"unterminated",           // unterminated string
      "{\"a\": 1} trailing",      // trailing characters
      "1e",                       // malformed number (stod would throw)
      "-",                        // sign with no digits
      "1.2.3",                    // number with junk suffix
      "1e999999",                 // overflow
      "\"\\uzzzz\"",              // non-hex \u escape
      "\"\\u12",                  // truncated \u escape
      "\"\\q\"",                  // unsupported escape
      "nul",                      // truncated literal
  };
  for (const char* text : bad) {
    EXPECT_THROW(ParseJson(text), std::runtime_error) << "input: " << text;
  }
  // Well-formed JSON whose counter no uint64_t can hold (the cast would be
  // undefined) is rejected too.
  const auto sweep_with = [](const std::string& value) {
    return "{\"schema\":\"tdtcp-sweep/1\",\"jobs\":1,\"wall_seconds\":0,"
           "\"cells\":[{\"label\":\"tdtcp\",\"variant\":\"tdtcp\","
           "\"duration_ps\":1,\"runs\":[{\"seed\":1,\"metrics\":{"
           "\"churn_opened\":" +
           value + "}}]}]}";
  };
  EXPECT_THROW(SweepFromJson(sweep_with("-1")), std::runtime_error);
  EXPECT_THROW(SweepFromJson(sweep_with("1e300")), std::runtime_error);
  EXPECT_EQ(SweepFromJson(sweep_with("7")).cells[0].runs[0].result.churn.opened,
            7u);
}

TEST(ResultIo, DeeplyNestedInputFailsInsteadOfOverflowingStack) {
  // "[[[[..." would recurse once per byte without a depth limit.
  const std::string bomb(100'000, '[');
  EXPECT_THROW(ParseJson(bomb), std::runtime_error);
  const std::string obj_bomb = [] {
    std::string s;
    for (int i = 0; i < 10'000; ++i) s += "{\"a\":";
    return s;
  }();
  EXPECT_THROW(ParseJson(obj_bomb), std::runtime_error);
}

TEST(ResultIo, TruncatedSweepJsonAlwaysThrowsCleanly) {
  // Fuzz-ish: every prefix of a real sweep document must either parse (only
  // the full document can) or throw runtime_error — never crash or return
  // garbage silently.
  SweepSpec spec = TinySpec(1);
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1};
  const std::string json = SweepToJson(RunSweep(spec));
  // Step through prefixes coarsely (every 7th byte) to keep runtime small,
  // plus the last 32 one-byte steps where the structure closes.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < json.size(); n += 7) cuts.push_back(n);
  for (std::size_t n = json.size() > 32 ? json.size() - 32 : 0;
       n < json.size(); ++n) {
    cuts.push_back(n);
  }
  for (std::size_t n : cuts) {
    EXPECT_THROW(SweepFromJson(json.substr(0, n)), std::runtime_error)
        << "prefix length " << n;
  }
  // Corrupted interior bytes: flip structural characters to junk. Any
  // outcome is fine except UB: either it still parses (benign mutation) or
  // it throws a clear exception (parse error, unknown variant name, ...).
  for (std::size_t i = 0; i < json.size(); i += 11) {
    std::string mutated = json;
    mutated[i] = '?';
    try {
      SweepFromJson(mutated);
    } catch (const std::exception&) {
      // expected for structural corruption
    }
  }
  // The intact document still parses.
  EXPECT_NO_THROW(SweepFromJson(json));
}

TEST(ResultIo, FileRoundTripAndCsv) {
  SweepSpec spec = TinySpec(2);
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1, 2};
  const SweepResult sweep = RunSweep(spec);
  const std::string json_path = ::testing::TempDir() + "/sweep_test.json";
  const std::string csv_path = ::testing::TempDir() + "/sweep_test.csv";
  WriteSweepJson(json_path, sweep);
  WriteSweepCsv(csv_path, sweep);
  const SweepResult back = ReadSweepJson(json_path);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].runs.size(), 2u);
  // CSV has a header plus at least per-seed and aggregate rows.
  FILE* f = std::fopen(csv_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_EQ(std::string(line).rfind("label,variant,schedule,qdisc,duration_ms,seed",
                                    0), 0u);
  int rows = 0;
  while (std::fgets(line, sizeof line, f)) ++rows;
  std::fclose(f);
  EXPECT_GE(rows, 2 + 3);  // 2 seeds + mean/stddev/ci95
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(ResultIo, WritersThrowWhenTheDiskIsFull) {
  // /dev/full accepts the open and fails every flush with ENOSPC: a writer
  // must report that rather than leave a truncated file behind.
  const std::string full = "/dev/full";
  if (std::FILE* f = std::fopen(full.c_str(), "w")) {
    std::fclose(f);
  } else {
    GTEST_SKIP() << "no " << full << " on this platform";
  }
  SweepSpec spec = TinySpec(1);
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1};
  const SweepResult sweep = RunSweep(spec);
  EXPECT_THROW(WriteSweepJson(full, sweep), std::runtime_error);
  EXPECT_THROW(WriteSweepCsv(full, sweep), std::runtime_error);
  BenchReport report;
  report.runs.push_back(BenchRun{"BM_Example", 1, 1, 1, 1, {}});
  EXPECT_THROW(WriteBenchJson(full, report), std::runtime_error);
}

}  // namespace
}  // namespace tdtcp
