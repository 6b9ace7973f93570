// Event-order soaks against pinned outcomes (DESIGN.md §11).
//
// Two contracts, each checked against constants recorded from the
// event-at-a-time RunNext loop before the event core last changed shape:
//  - sim core: the firing order under randomized same-timestamp
//    collisions, same-tick zero-delay arrivals and cancellations, with the
//    future events on the heap and, separately, on fixed-delay lanes;
//  - experiment level: a seeded churn + fault + trace run's trace_hash,
//    churn_hash, fault_trace_hash, event count and byte total.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <utility>

#include "app/experiment.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {
namespace {

// ---------------------------------------------------------------------------
// Sim core: randomized firing-order soak
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// A deterministic generator independent of the mode under test.
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t Next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
};

// Schedules `rounds` wavefronts of events with heavy timestamp collisions;
// handlers re-schedule (same tick via the immediate lane, and into the
// future), and every third event schedules a victim it then cancels.
// With `lanes` every future event goes through the fixed-delay lane of its
// delay instead of the heap. Returns a digest of (now, marker) in firing
// order.
std::uint64_t RunRandomSoak(std::uint64_t seed, bool lanes) {
  Simulator sim;
  Lcg rng(seed);
  const auto schedule_in = [&sim, lanes](SimTime delay, auto&& fn) {
    return lanes ? sim.ScheduleOnLane(sim.FixedDelayLane(delay), fn)
                 : sim.Schedule(delay, fn);
  };
  Fnv hash;
  std::uint64_t spawned = 0;

  // fanout spawned from inside a handler; bounded so the soak terminates.
  constexpr std::uint64_t kMaxSpawn = 20000;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t marker) {
    hash.Mix(static_cast<std::uint64_t>(sim.now().picos()));
    hash.Mix(marker);
    if (spawned >= kMaxSpawn) return;
    const std::uint64_t r = rng.Next();
    if (r % 4 == 0) {
      // Same-tick follow-up through the zero-delay lane.
      ++spawned;
      const std::uint64_t m = marker * 31 + 1;
      sim.Schedule(SimTime::Zero(), [&fire, m] { fire(m); });
    }
    if (r % 3 == 0) {
      // Future event, colliding with other handlers' picks (mod 7 ticks).
      ++spawned;
      const std::uint64_t m = marker * 31 + 2;
      schedule_in(SimTime::Nanos(1 + (r >> 8) % 7), [&fire, m] { fire(m); });
    }
    if (r % 5 == 0) {
      // Schedule-then-cancel: the dead entry must never fire.
      EventId victim = schedule_in(SimTime::Nanos(1 + (r >> 16) % 5),
                                   [&hash] { hash.Mix(0xdeadu); });
      sim.Cancel(victim);
    }
  };

  for (int i = 0; i < 200; ++i) {
    const std::uint64_t r = rng.Next();
    const std::uint64_t m = 1000000 + i;
    sim.ScheduleAt(SimTime::Nanos(r % 23), [&fire, m] { fire(m); });
  }
  sim.Run();
  hash.Mix(sim.events_executed());
  return hash.h;
}

// {seed, digest}, recorded from the sequential RunNext loop (heap only).
constexpr std::array<std::pair<std::uint64_t, std::uint64_t>, 4>
    kSoakDigests = {{{1, 0x4621863f85dc0ef6ull},
                     {7, 0xf9286bd49da49d2bull},
                     {42, 0x6322021e5b8fc481ull},
                     {1234567, 0xbbcf949b4ebfeb1bull}}};

TEST(BatchSoak, RandomizedFiringOrderMatchesSequential) {
  for (const auto& [seed, digest] : kSoakDigests) {
    EXPECT_EQ(RunRandomSoak(seed, /*lanes=*/false), digest) << "seed " << seed;
  }
}

TEST(BatchSoak, FixedDelayLanesMatchHeapOnlyOrder) {
  for (const auto& [seed, digest] : kSoakDigests) {
    EXPECT_EQ(RunRandomSoak(seed, /*lanes=*/true), digest) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Experiment level: seeded churn + fault run against its pinned outcome
// ---------------------------------------------------------------------------

ExperimentConfig SoakConfig() {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp);
  cfg.duration = SimTime::Millis(10);
  cfg.warmup = SimTime::Millis(2);
  cfg.workload.num_flows = 4;
  cfg.sample_voq = false;
  cfg.sample_reorder = false;
  FaultPlan plan;
  plan.fabric.loss_rate = 0.02;
  plan.control.notify_loss_rate = 0.1;
  plan.control.notify_delay_mean = SimTime::Micros(5);
  plan.control.notify_duplicate_rate = 0.05;
  return cfg.WithFault(plan).WithChurn(30).WithTrace();
}

TEST(BatchSoak, ChurnFaultExperimentBitIdentical) {
  const ExperimentResult r = RunExperiment(SoakConfig());
  EXPECT_EQ(r.trace_hash, 0x7dd796f413387587ull);
  EXPECT_EQ(r.churn_hash, 0x89129775e91920c7ull);
  EXPECT_EQ(r.fault_trace_hash, 0xafa34172975f742dull);
  EXPECT_EQ(r.sim_events, 156582u);
  EXPECT_EQ(r.total_bytes, 17558160u);
  EXPECT_EQ(r.retransmissions, 1330u);
  EXPECT_DOUBLE_EQ(r.goodput_bps, 15063900000.0);
  EXPECT_EQ(r.churn.opened, 30u);
}

}  // namespace
}  // namespace tdtcp
