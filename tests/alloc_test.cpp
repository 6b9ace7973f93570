// The allocation-free claims of the event core and the TCP packet path,
// asserted directly: after warmup, neither a self-rescheduling timer, a
// link/queue packet ping-pong nor an established bulk TCP flow (SACK,
// DSACK, reassembly and cumulative ACKs included) touches the global heap. The counting allocator lives in
// alloc_harness.hpp (shared with tracepoint_test's disabled-path check);
// any steady-state allocation is a test failure, not a perf regression to
// chase later.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_harness.hpp"
#include "cc/registry.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {
namespace {

using test::AllocDelta;
using test::CountAllocations;

// Raw functor timer: no std::function anywhere on the path.
struct Tick {
  Simulator& sim;
  std::int64_t& fires;
  std::int64_t limit;
  void operator()() const {
    if (++fires < limit) sim.Schedule(SimTime::Nanos(100), Tick{*this});
  }
};

TEST(AllocFree, SelfReschedulingTimerSteadyState) {
  Simulator sim;
  std::int64_t fires = 0;
  // Warmup: first fires grow the slot slab, heap buffer, and lane.
  sim.Schedule(SimTime::Nanos(100), Tick{sim, fires, 1000});
  sim.Run();
  ASSERT_EQ(fires, 1000);

  fires = 0;
  const AllocDelta d = CountAllocations([&] {
    sim.Schedule(SimTime::Nanos(100), Tick{sim, fires, 100000});
    sim.Run();
  });
  EXPECT_EQ(fires, 100000);
  EXPECT_EQ(d.news, 0u) << "timer steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

TEST(AllocFree, FixedDelayLaneScheduleCancelSteadyState) {
  // The churn slot-timeout pattern: arm a 40 ms timeout per lifecycle and
  // cancel it when the lifecycle ends, with ~100 lifecycles open at once.
  // One lifecycle outlives the soak, so its timeout stays at the lane's
  // head and every cancelled entry behind it must leave by compaction.
  Simulator sim;
  const Simulator::LaneId lane = sim.FixedDelayLane(SimTime::Millis(40));
  std::int64_t fired = 0;
  sim.ScheduleOnLane(lane, [&fired] { ++fired; });
  EventId open[100] = {};
  std::size_t next = 0;
  const auto cycle = [&] {
    EventId& slot = open[next++ % 100];
    sim.Cancel(slot);
    slot = sim.ScheduleOnLane(lane, [&fired] { ++fired; });
    // Time moves on, slower than the timeout: nothing fires.
    sim.RunFor(SimTime::Micros(1));
  };
  for (int i = 0; i < 1000; ++i) cycle();  // warmup grows slab, ring, heap

  const AllocDelta d = CountAllocations([&] {
    for (int i = 0; i < 10000; ++i) cycle();
  });
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 101u);
  EXPECT_EQ(d.news, 0u) << "lane schedule/cancel steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

// Two links forwarding into each other through a bouncing sink: the
// Link -> Queue -> event -> deliver -> Link cycle exercises the packet
// freelist and the zero-copy handoff.
struct Bouncer : PacketSink {
  Link* out = nullptr;
  std::uint64_t received = 0;
  std::uint64_t limit = 0;
  void HandlePacket(Packet&& p) override {
    ++received;
    if (received < limit) out->Enqueue(std::move(p));
  }
};

TEST(AllocFree, LinkPacketPingPongSteadyState) {
  Simulator sim;
  Bouncer east_sink, west_sink;
  Link::Config lc;
  lc.rate_bps = 100'000'000'000;
  lc.propagation = SimTime::Micros(1);
  Link east(sim, lc, &east_sink);
  Link west(sim, lc, &west_sink);
  east_sink.out = &west;  // arrived east -> bounce back west
  west_sink.out = &east;
  east_sink.limit = west_sink.limit = 1u << 30;

  Packet p;
  p.id = 1;
  p.size_bytes = 9000;
  p.payload = 8940;

  // Warmup bounces grow every pool involved.
  east.Enqueue(Packet(p));
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_GT(east_sink.received + west_sink.received, 100u);

  const AllocDelta d = CountAllocations([&] {
    sim.RunFor(SimTime::Millis(10));
  });
  EXPECT_GT(east_sink.received + west_sink.received, 1000u);
  EXPECT_EQ(d.news, 0u) << "packet path steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
  EXPECT_LE(sim.stashed_packets(), 1u);  // at most the one in flight
}

TEST(AllocFree, TcpBulkSteadyStateWithSackAndReordering) {
  // One unlimited sender across a jittered forward link that also drops
  // every 97th data segment: reordering deeper than the dupACK threshold
  // makes spurious retransmissions (DSACK), the drops make real losses
  // (SACK recovery), and every arrival runs OOO reassembly or in-order
  // delivery with a cumulative ACK.
  Simulator sim;
  Random rng(7);
  Host a(sim, 0), b(sim, 1);
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;
  lc.propagation = SimTime::Micros(2);
  lc.queue.capacity_packets = 1000;
  Link::Config fwd = lc;
  fwd.reorder_jitter = SimTime::Micros(6);
  Link ab(sim, fwd, &b, &rng);
  Link ba(sim, lc, &a);
  a.AttachUplink(&ab);
  b.AttachUplink(&ba);
  std::uint64_t data_seen = 0;
  ab.SetFaultFilter([&data_seen](const Packet& p) {
    return p.payload > 0 && ++data_seen % 97 == 0;
  });

  TcpConfig tc;
  tc.mss = 1000;
  tc.cc_factory = MakeCcFactory("reno");
  TcpConnection rx(sim, &b, 1, 0, tc);
  TcpConnection tx(sim, &a, 1, 1, tc);
  rx.Listen();
  tx.Connect();
  tx.SetUnlimitedData(true);

  // Warmup grows every pool: event slab and lanes, wheel, send-queue ring,
  // reassembly vectors, the delivered scratch, the checker's recount.
  sim.RunUntil(SimTime::Millis(100));
  ASSERT_EQ(tx.state(), TcpConnection::State::kEstablished);

  const TcpStats before_tx = tx.stats();
  const TcpStats before_rx = rx.stats();
  const AllocDelta d = CountAllocations([&] { sim.RunFor(SimTime::Millis(50)); });

  // Every path named above ran inside the counted window.
  EXPECT_GT(rx.stats().bytes_received, before_rx.bytes_received + 1'000'000);
  EXPECT_GT(rx.stats().duplicate_segments, before_rx.duplicate_segments);
  EXPECT_GT(tx.stats().dsacks_received, before_tx.dsacks_received);
  EXPECT_GT(tx.stats().retransmissions, before_tx.retransmissions);
  EXPECT_GT(tx.stats().fast_recoveries, before_tx.fast_recoveries);
  EXPECT_EQ(d.news, 0u) << "TCP segment/ACK steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

}  // namespace
}  // namespace tdtcp
