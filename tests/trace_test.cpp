// Instrumentation: samplers, week folding, per-day deltas, CDFs, CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/simulator.hpp"
#include "trace/samplers.hpp"

namespace tdtcp {
namespace {

TEST(SeriesSampler, SamplesAtFixedInterval) {
  Simulator sim;
  double value = 0;
  SeriesSampler s(sim, SimTime::Micros(10), [&] { return value; });
  s.Start();
  sim.Schedule(SimTime::Micros(25), [&] { value = 7; });
  sim.RunUntil(SimTime::Micros(100));
  ASSERT_GE(s.samples().size(), 10u);
  EXPECT_EQ(s.samples()[0].t, SimTime::Zero());
  EXPECT_EQ(s.samples()[1].t, SimTime::Micros(10));
  EXPECT_EQ(s.samples()[2].value, 0.0);
  EXPECT_EQ(s.samples()[3].value, 7.0);  // t=30 > 25
}

std::vector<Sample> LinearCounter(SimTime interval, int n, double slope) {
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sample{interval * i, slope * i});
  }
  return out;
}

TEST(FoldWeeks, LinearSeriesFoldsToLinearCurve) {
  // 10-sample weeks, value grows 2 per sample.
  auto samples = LinearCounter(SimTime::Micros(10), 101, 2.0);
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_DOUBLE_EQ(curve.front().mean, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().mean, 20.0);
  EXPECT_DOUBLE_EQ(curve[5].offset_us, 50.0);
  EXPECT_DOUBLE_EQ(curve[5].mean, 10.0);
}

TEST(FoldWeeks, AveragesAcrossWeeks) {
  // Alternate weeks with slope 1 and slope 3: the folded mean is slope 2.
  std::vector<Sample> samples;
  double v = 0;
  for (int i = 0; i < 200; ++i) {
    const int week = i / 10;
    samples.push_back(Sample{SimTime::Micros(10) * i, v});
    v += (week % 2 == 0) ? 1.0 : 3.0;
  }
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.back().mean, 20.0, 1.0);
}

TEST(FoldWeeks, WarmupSkipsEarlySamples) {
  // First week is garbage (slope 100), remaining weeks slope 1.
  std::vector<Sample> samples;
  double v = 0;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Sample{SimTime::Micros(10) * i, v});
    v += (i < 10) ? 100.0 : 1.0;
  }
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Micros(100), 1);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.back().mean, 10.0, 0.5);
}

TEST(FoldWeeks, PlotWeeksTilesExpectedGain) {
  auto samples = LinearCounter(SimTime::Micros(10), 101, 1.0);
  auto one = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  auto three = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 3);
  ASSERT_FALSE(three.empty());
  EXPECT_NEAR(three.back().mean, 3 * one.back().mean, 1e-9);
  EXPECT_NEAR(three.back().offset_us, 300.0, 1e-9);
}

TEST(FoldWeeks, DegenerateInputsReturnEmpty) {
  EXPECT_TRUE(FoldWeeks({}, SimTime::Micros(100), SimTime::Zero()).empty());
  auto two = LinearCounter(SimTime::Micros(10), 2, 1.0);
  EXPECT_TRUE(FoldWeeks(two, SimTime::Micros(1), SimTime::Zero()).empty());
}

// A level series: 10 samples per 100us week, value = `level(week, k)`.
std::vector<Sample> LevelSeries(int weeks, double (*level)(int, int)) {
  std::vector<Sample> out;
  for (int w = 0; w < weeks; ++w) {
    for (int k = 0; k < 10; ++k) {
      out.push_back(Sample{SimTime::Micros(10) * (w * 10 + k), level(w, k)});
    }
  }
  return out;
}

TEST(FoldLevels, AveragesRawLevelsNotProgress) {
  // Week w holds level w + k at offset k: nothing is taken relative to the
  // week start, so offset k averages (0 + 1 + 2 + 3) / 4 + k.
  const auto samples =
      LevelSeries(4, [](int w, int k) { return double(w + k); });
  const auto curve =
      FoldLevels(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_EQ(curve.size(), 10u);
  for (int k = 0; k < 10; ++k) {
    EXPECT_DOUBLE_EQ(curve[k].offset_us, 10.0 * k);
    EXPECT_DOUBLE_EQ(curve[k].mean, 1.5 + k);
  }
}

TEST(FoldLevels, CountsATrailingWeekWithoutABoundarySample) {
  // Exactly two weeks of samples fold both (FoldWeeks would need one more
  // sample to close the second week).
  const auto samples =
      LevelSeries(2, [](int w, int) { return w == 0 ? 2.0 : 4.0; });
  const auto curve =
      FoldLevels(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_EQ(curve.size(), 10u);
  for (const FoldedPoint& p : curve) EXPECT_DOUBLE_EQ(p.mean, 3.0);
}

TEST(FoldLevels, WarmupSkipsEarlyWeeks) {
  // The first week is garbage (level 100); warmup drops it.
  const auto samples =
      LevelSeries(3, [](int w, int) { return w == 0 ? 100.0 : 5.0; });
  const auto curve =
      FoldLevels(samples, SimTime::Micros(100), SimTime::Micros(100), 1);
  ASSERT_EQ(curve.size(), 10u);
  for (const FoldedPoint& p : curve) EXPECT_DOUBLE_EQ(p.mean, 5.0);
}

TEST(FoldLevels, PlotWeeksRepeatTheMeanWeek) {
  const auto samples = LevelSeries(3, [](int, int k) { return double(k); });
  const auto one = FoldLevels(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  const auto three =
      FoldLevels(samples, SimTime::Micros(100), SimTime::Zero(), 3);
  ASSERT_EQ(three.size(), 3 * one.size());
  for (std::size_t i = 0; i < three.size(); ++i) {
    EXPECT_DOUBLE_EQ(three[i].mean, one[i % one.size()].mean);
    EXPECT_DOUBLE_EQ(three[i].offset_us,
                     one[i % one.size()].offset_us + 100.0 * (i / one.size()));
  }
}

TEST(FoldLevels, DegenerateInputsReturnEmpty) {
  EXPECT_TRUE(FoldLevels({}, SimTime::Micros(100), SimTime::Zero()).empty());
  const auto two = LinearCounter(SimTime::Micros(10), 2, 1.0);
  EXPECT_TRUE(FoldLevels(two, SimTime::Micros(1), SimTime::Zero()).empty());
  EXPECT_TRUE(FoldLevels(two, SimTime::Zero(), SimTime::Zero()).empty());
  // Less than one whole week after warmup.
  const auto short_series = LinearCounter(SimTime::Micros(10), 9, 1.0);
  EXPECT_TRUE(
      FoldLevels(short_series, SimTime::Micros(100), SimTime::Zero()).empty());
}

TEST(PerWeekDeltas, CountsPerWeek) {
  // Counter grows by 5 per week (10 samples of 10us each).
  std::vector<Sample> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Sample{SimTime::Micros(10) * i, 0.5 * i});
  }
  auto deltas = PerWeekDeltas(samples, SimTime::Micros(100), SimTime::Zero());
  ASSERT_GE(deltas.size(), 8u);
  for (double d : deltas) EXPECT_NEAR(d, 5.0, 1e-9);
}

TEST(MakeCdf, SortedWithCorrectProbabilities) {
  auto cdf = MakeCdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].probability, 0.25);
  EXPECT_DOUBLE_EQ(cdf[3].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[3].probability, 1.0);
}

TEST(MakeCdf, EmptyInput) {
  EXPECT_TRUE(MakeCdf({}).empty());
}

TEST(Percentile, InterpolatesBetweenValues) {
  std::vector<double> v{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 95), 95.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(Csv, WritesSeriesFile) {
  const std::string path = "/tmp/tdtcp_trace_test_series.csv";
  NamedSeries a{"alpha", {{0.0, 1.0}, {1.0, 2.0}}};
  NamedSeries b{"beta", {{0.0, 3.0}, {1.0, 4.0}}};
  WriteSeriesCsv(path, {a, b});
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "offset_us,alpha,beta");
  std::getline(f, line);
  EXPECT_EQ(line, "0,1,3");
  std::remove(path.c_str());
}

TEST(Csv, WritesCdfFile) {
  const std::string path = "/tmp/tdtcp_trace_test_cdf.csv";
  WriteCdfCsv(path, "events", MakeCdf({1.0, 2.0}));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "events,cdf");
  std::getline(f, line);
  EXPECT_EQ(line, "1,0.5");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdtcp
