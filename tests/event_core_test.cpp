// The allocation-free event core's contract (see event_queue.hpp): exact
// FIFO among equal timestamps no matter how slots are recycled, O(1)
// sequence-tagged cancellation that can never alias a later event, the
// zero-delay lane's and the fixed-delay lanes' ordering against the heap,
// dead-entry compaction, and end-to-end bit-identity of a seeded RDCN run
// (plus golden outcomes pinned across event-core changes).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "app/flow_cdf.hpp"
#include "cc/registry.hpp"
#include "net/topology.hpp"
#include "rdcn/controller.hpp"
#include "sim/event_queue.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {
namespace {

// Drains the queue, appending each fired value to `order`.
void Drain(EventQueue& q) {
  SimTime now = SimTime::Zero();
  while (!q.Empty()) q.RunNext(now);
}

TEST(EventCore, FifoPreservedAcrossSlotRecycling) {
  // Slots are recycled LIFO while sequence numbers only grow; firing order
  // must follow schedule order even when a late event lands in a slot that
  // already hosted (and retired) many earlier events.
  EventQueue q;
  std::vector<int> order;
  int tag = 0;
  for (int round = 0; round < 50; ++round) {
    // Same timestamp for every event in the round: only the sequence number
    // can break the tie.
    const SimTime at = SimTime::Nanos(10);
    for (int i = 0; i < 7; ++i) {
      q.Schedule(at, [&order, t = tag++] { order.push_back(t); });
    }
    Drain(q);
  }
  ASSERT_EQ(order.size(), 350u);
  for (int i = 0; i < 350; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventCore, StaleIdNeverCancelsSlotsNewOccupant) {
  EventQueue q;
  bool first_ran = false;
  const EventId stale = q.Schedule(SimTime::Nanos(1),
                                   [&first_ran] { first_ran = true; });
  Drain(q);
  EXPECT_TRUE(first_ran);

  // The fired event's slot is recycled by the next schedule (LIFO freelist).
  bool second_ran = false;
  const EventId fresh = q.Schedule(SimTime::Nanos(2),
                                   [&second_ran] { second_ran = true; });
  ASSERT_EQ(EventQueue::SlotOf(stale), EventQueue::SlotOf(fresh))
      << "test premise: the slot must be recycled";
  ASSERT_NE(EventQueue::SeqOf(stale), EventQueue::SeqOf(fresh));

  q.Cancel(stale);  // must be a no-op against the new occupant
  EXPECT_EQ(q.size(), 1u);
  Drain(q);
  EXPECT_TRUE(second_ran);
}

TEST(EventCore, CancelAfterFireAndDoubleCancelAreNoOps) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(SimTime::Nanos(1), [&fired] { ++fired; });
  Drain(q);
  q.Cancel(id);
  q.Cancel(id);
  EXPECT_EQ(q.size(), 0u);
  q.Schedule(SimTime::Nanos(2), [&fired] { ++fired; });
  Drain(q);
  EXPECT_EQ(fired, 2);
}

TEST(EventCore, SequenceSpaceExhaustionThrowsInsteadOfWrapping) {
  // A wrapped sequence number would silently reorder events; the queue must
  // refuse instead. Jump the counter to the edge rather than scheduling
  // 2^43 events.
  EventQueue q;
  q.ForceNextSeqForTest(EventQueue::kMaxSeq);
  int fired = 0;
  const EventId last = q.Schedule(SimTime::Nanos(1), [&fired] { ++fired; });
  EXPECT_EQ(EventQueue::SeqOf(last), EventQueue::kMaxSeq);
  EXPECT_THROW(q.Schedule(SimTime::Nanos(1), [] {}), std::length_error);
  // The event that did fit still works end to end.
  q.Cancel(last);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventCore, MaxSequenceEventStillOrdersAfterEarlierOnes) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Nanos(5), [&order] { order.push_back(0); });
  q.ForceNextSeqForTest(EventQueue::kMaxSeq);
  q.Schedule(SimTime::Nanos(5), [&order] { order.push_back(1); });
  Drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventCore, ZeroDelayLaneKeepsScheduleOrderAgainstHeap) {
  // Heap events at time T were scheduled before the lane events that a
  // callback at T spawns, so every heap event at T fires first, then the
  // lane events in FIFO order.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    order.push_back(0);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(3); });
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(4); });
  });
  sim.ScheduleAt(SimTime::Nanos(10), [&order] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Nanos(10), [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventCore, ZeroDelayChainsDrainBreadthFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Zero(), [&] {
    order.push_back(0);
    sim.Schedule(SimTime::Zero(), [&] {
      order.push_back(2);
      sim.Schedule(SimTime::Zero(), [&order] { order.push_back(4); });
    });
  });
  sim.Schedule(SimTime::Zero(), [&] {
    order.push_back(1);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventCore, CancelledZeroDelayEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  int others = 0;
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    const EventId id =
        sim.Schedule(SimTime::Zero(), [&fired] { fired = true; });
    sim.Schedule(SimTime::Zero(), [&others] { ++others; });
    sim.Cancel(id);
  });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(others, 1);
}

TEST(EventCore, CompactionBoundsDeadHeapEntries) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(SimTime::Nanos(100 + i), [] {}));
  }
  EXPECT_EQ(q.heap_storage_for_test(), 1000u);
  // Cancel from the back so dead entries pile up in the heap's interior
  // where DropDeadHeads cannot see them.
  for (int i = 999; i >= 100; --i) q.Cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 100u);
  // Dead entries never exceed half the storage once compaction kicks in.
  EXPECT_LE(q.heap_storage_for_test(), 2 * q.size() + 1);
  // The survivors still fire, in order.
  std::vector<int> fired;
  SimTime now = SimTime::Zero();
  int expect = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.NextTime(), SimTime::Nanos(100 + expect));
    q.RunNext(now);
    ++expect;
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventCore, ScheduleNoCancelInterleavesWithCancellableEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Nanos(5), [&order] { order.push_back(0); });
  sim.ScheduleNoCancel(SimTime::Nanos(5), [&order] { order.push_back(1); });
  sim.Schedule(SimTime::Nanos(5), [&order] { order.push_back(2); });
  sim.ScheduleAtNoCancel(SimTime::Nanos(5), [&order] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventCore, SlabGrowsInBlocksAndRecycles) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.Schedule(SimTime::Nanos(i + 1), [] {});
  const std::size_t grown = q.slab_size_for_test();
  EXPECT_GE(grown, 100u);
  Drain(q);
  // Steady state re-uses the recycled slots: no further slab growth.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) q.Schedule(SimTime::Nanos(i + 1), [] {});
    Drain(q);
  }
  EXPECT_EQ(q.slab_size_for_test(), grown);
}

// Digest of every packet a connection sends or receives, in tap order.
std::uint64_t RunSeededRdcnAndHashPackets() {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp);
  Simulator sim;
  Random rng(cfg.seed);
  Topology topo(sim, rng, cfg.topology);
  RdcnController::Config rc;
  rc.schedule = cfg.schedule;
  rc.packet_mode = cfg.topology.packet_mode;
  rc.circuit_mode = cfg.topology.circuit_mode;
  RdcnController controller(sim, rc, {topo.port(0, 1), topo.port(1, 0)},
                            {topo.tor(0), topo.tor(1)});
  controller.Start();

  TcpConfig tc = MakeVariantConfig(Variant::kTdtcp, cfg.workload.base);
  TcpConnection server(sim, topo.host(1, 0), 1, topo.host_id(0, 0), tc);
  TcpConnection client(sim, topo.host(0, 0), 1, topo.host_id(1, 0), tc);

  Fnv1a64 hash;
  const auto tap = [&hash, &sim](TcpConnection::TapDirection dir,
                                 const Packet& p) {
    hash.Mix(static_cast<std::uint64_t>(sim.now().picos()));
    hash.Mix(dir == TcpConnection::TapDirection::kTx ? 1 : 2);
    hash.Mix(p.id);
    hash.Mix(p.seq);
    hash.Mix(p.ack);
    hash.Mix(p.payload);
    hash.Mix(static_cast<std::uint64_t>(p.type));
  };
  server.SetPacketTap(tap);
  client.SetPacketTap(tap);

  server.Listen();
  client.Connect();
  client.SetUnlimitedData(true);
  sim.RunUntil(SimTime::Millis(5));
  // Fold in the aggregate outcome so a divergence after the tap-visible
  // fields would still flip the digest.
  hash.Mix(client.bytes_acked());
  hash.Mix(sim.events_executed());
  return hash.value();
}

TEST(EventCore, SeededRdcnRunIsBitIdentical) {
  const std::uint64_t a = RunSeededRdcnAndHashPackets();
  const std::uint64_t b = RunSeededRdcnAndHashPackets();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}


// ---------------------------------------------------------------------------
// Fixed-delay lanes
// ---------------------------------------------------------------------------

TEST(EventCore, LaneHeapAndZeroDelayEventsAtOneTimeFireInScheduleOrder) {
  // Heap events 0, 2, 4 at 10 ns share one cohort chain; lane events 1 and 3
  // land at the same instant with seqs between them, so advancing the
  // cohort must give way to the lane. The zero-delay events spawned at
  // 10 ns come last.
  Simulator sim;
  const Simulator::LaneId lane = sim.FixedDelayLane(SimTime::Nanos(10));
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    order.push_back(0);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(5); });
  });
  sim.ScheduleOnLane(lane, [&order] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Nanos(10), [&order] { order.push_back(2); });
  sim.ScheduleOnLane(lane, [&order] { order.push_back(3); });
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    order.push_back(4);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(6); });
  });
  // Later and earlier heap neighbours of the lane's instant.
  sim.ScheduleAt(SimTime::Nanos(11), [&order] { order.push_back(7); });
  sim.ScheduleAt(SimTime::Nanos(9), [&order] { order.push_back(-1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventCore, LanesAreSharedByDelayAndRejectNonPositiveDelays) {
  EventQueue q;
  const EventQueue::LaneId a = q.LaneFor(SimTime::Micros(48));
  const EventQueue::LaneId b = q.LaneFor(SimTime::Micros(18));
  EXPECT_NE(a, b);
  EXPECT_EQ(q.LaneFor(SimTime::Micros(48)), a);
  EXPECT_EQ(q.lane_delay(b), SimTime::Micros(18));
  EXPECT_THROW(q.LaneFor(SimTime::Zero()), std::invalid_argument);
  EXPECT_THROW(q.LaneFor(SimTime::Nanos(-1)), std::invalid_argument);
}

TEST(EventCore, CancelLaneHeadMiddleAndTail) {
  EventQueue q;
  const EventQueue::LaneId lane = q.LaneFor(SimTime::Nanos(100));
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 7; ++i) {
    ids.push_back(q.ScheduleOnLane(lane, SimTime::Nanos(100 + 10 * i),
                                   [&fired, i] { fired.push_back(i); }));
  }
  // A heap event between the lane's entries keeps the merge honest.
  q.Schedule(SimTime::Nanos(135), [&fired] { fired.push_back(100); });
  q.Cancel(ids[0]);  // head
  q.Cancel(ids[3]);  // middle
  q.Cancel(ids[6]);  // tail
  q.Cancel(ids[3]);  // double cancel: no-op
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.NextTime(), SimTime::Nanos(110));  // the head's lag is settled
  Drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 100, 4, 5}));
  EXPECT_TRUE(q.Empty());
  // Cancelling everything left on a lane empties it; the lane keeps working.
  const EventId only = q.ScheduleOnLane(lane, SimTime::Nanos(500), [] {});
  q.Cancel(only);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextTime(), SimTime::Max());
  q.ScheduleOnLane(lane, SimTime::Nanos(600),
                   [&fired] { fired.push_back(7); });
  EXPECT_EQ(q.NextTime(), SimTime::Nanos(600));
  Drain(q);
  EXPECT_EQ(fired.back(), 7);
}

TEST(EventCore, CompactedLaneHoldsAtMostTwiceItsLiveEntries) {
  EventQueue q;
  const EventQueue::LaneId lane = q.LaneFor(SimTime::Millis(40));
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.ScheduleOnLane(lane, SimTime::Nanos(i), [] {}));
  }
  // Cancel the head, then every other entry from the back, then the rest
  // of the first half: dead entries pile up where neither the head drop
  // nor anything else reaches them, so only compaction bounds the ring.
  std::size_t live = 1000;
  const auto cancel = [&](std::size_t i) {
    q.Cancel(ids[i]);
    --live;
    ASSERT_EQ(q.size(), live);
    EXPECT_LE(q.lane_storage_for_test(lane), 2 * live);
  };
  cancel(0);
  for (std::size_t i = 999; i >= 501; i -= 2) cancel(i);
  for (std::size_t i = 1; i < 500; ++i) cancel(i);
  // The survivors fire in order, and the lane's lagging heap key never
  // shows: every NextTime is a live entry's time.
  std::vector<std::int64_t> expect{500};
  for (std::size_t i = 502; i < 1000; i += 2) {
    expect.push_back(static_cast<std::int64_t>(i));
  }
  ASSERT_EQ(expect.size(), live);
  SimTime now = SimTime::Zero();
  for (const std::int64_t ns : expect) {
    EXPECT_EQ(q.NextTime(), SimTime::Nanos(ns));
    q.RunNext(now);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventCore, NonMonotoneLanePushThrows) {
  EventQueue q;
  const EventQueue::LaneId lane = q.LaneFor(SimTime::Nanos(5));
  q.ScheduleOnLane(lane, SimTime::Nanos(20), [] {});
  q.ScheduleOnLane(lane, SimTime::Nanos(20), [] {});  // equal times are fine
  EXPECT_THROW(q.ScheduleOnLane(lane, SimTime::Nanos(19), [] {}),
               std::logic_error);
  EXPECT_EQ(q.size(), 2u);  // the rejected push left nothing behind
  // The bound is the latest push, even after it fired.
  Drain(q);
  EXPECT_THROW(q.ScheduleOnLane(lane, SimTime::Nanos(10), [] {}),
               std::logic_error);
  EXPECT_TRUE(q.Empty());
}

// ---------------------------------------------------------------------------
// Golden oracle: event-core changes must not move a single simulated event.
// ---------------------------------------------------------------------------

// A small 8-rack rotor churn run. The slot timeout is cut to 1.5 ms so that
// some lifecycles time out while most are cancelled when they complete,
// anywhere in the timeout stream (oldest first, or behind older ones).
ExperimentConfig GoldenRotorChurn(SimTime fabric_jitter) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithRotorFabric(8)
                             .WithDurationMs(4)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithRackPolicy(RackPolicy::kUniform)
                             .WithFlowSizeCdf(BuiltinFlowSizeCdf("websearch"),
                                              1.0 / 24)
                             .WithTrace();
  cfg.workload.num_flows = 0;
  cfg.topology.fabric_reorder_jitter = fabric_jitter;
  cfg.churn.enabled = true;
  cfg.churn.target_connections = 400;
  cfg.churn.mean_interarrival = SimTime::Micros(100);
  cfg.churn.max_concurrent = 256;
  cfg.churn.size_cap_bytes = 2'000'000;
  cfg.churn.slot_timeout = SimTime::Micros(1500);
  return cfg;
}

struct GoldenCase {
  const char* name;
  SimTime fabric_jitter;
  std::uint64_t sim_events;
  std::uint64_t churn_hash;
  std::uint64_t trace_hash;
  std::uint64_t app_timeouts;
};

TEST(EventCore, GoldenRotorChurnOutcomesArePinned) {
  // Recorded before the fixed-delay lanes existed. The jittered case keeps
  // fabric deliveries on the heap; the plain one sends them through lanes.
  const GoldenCase cases[] = {
      {"plain", SimTime::Zero(), 70055, 8649967883770631400ull,
       7725090584681061753ull, 112},
      {"jittered", SimTime::Micros(2), 66922, 18033784140094836428ull,
       12846390787198832427ull, 109},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const ExperimentResult r = RunExperiment(GoldenRotorChurn(c.fabric_jitter));
    ASSERT_TRUE(r.churn_all_closed);
    EXPECT_GT(r.churn.app_timeouts, 0u);
    EXPECT_LT(r.churn.app_timeouts, r.churn.opened);
    EXPECT_EQ(r.sim_events, c.sim_events);
    EXPECT_EQ(r.churn_hash, c.churn_hash);
    EXPECT_EQ(r.trace_hash, c.trace_hash);
    EXPECT_EQ(r.churn.app_timeouts, c.app_timeouts);
  }
}

}  // namespace
}  // namespace tdtcp
