// Network substrate: queues, links, fabric ports, hosts, ToR switches.
#include <gtest/gtest.h>

#include "net/endpoint_table.hpp"
#include "net/fabric_port.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue_disc.hpp"
#include "net/topology.hpp"
#include "net/tor_switch.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::CaptureSink;

// Packet ids now come from the owning Simulator (Simulator::NextPacketId);
// these standalone queue/link tests just need distinct ids.
std::uint64_t NextTestPacketId() {
  static std::uint64_t next = 1;
  return next++;
}

Packet MakeData(std::uint32_t size = 9000, NodeId dst = 1) {
  Packet p;
  p.id = NextTestPacketId();
  p.type = PacketType::kData;
  p.size_bytes = size;
  p.payload = size - 60;
  p.dst = dst;
  return p;
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

TEST(Queue, DropsWhenFull) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 2});
  EXPECT_TRUE(q.Enqueue(MakeData()));
  EXPECT_TRUE(q.Enqueue(MakeData()));
  EXPECT_FALSE(q.Enqueue(MakeData()));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.occupancy(), 2u);
}

TEST(Queue, FifoOrder) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 10});
  Packet a = MakeData();
  Packet b = MakeData();
  const auto ida = a.id, idb = b.id;
  q.Enqueue(std::move(a));
  q.Enqueue(std::move(b));
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->id, ida);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->id, idb);
  EXPECT_FALSE(q.Dequeue(SimTime::Zero()).has_value());
}

TEST(Queue, EcnMarksAboveThreshold) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 10, .ecn_threshold_packets = 2});
  for (int i = 0; i < 4; ++i) {
    Packet p = MakeData();
    p.ecn = Ecn::kEct0;
    q.Enqueue(std::move(p));
  }
  // First two admitted below threshold, last two marked.
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kEct0);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kEct0);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kCe);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().ce_marked, 2u);
}

TEST(Queue, EcnIgnoresNotEct) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 10, .ecn_threshold_packets = 0});
  q.Enqueue(MakeData());  // NotEct by default
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.stats().ce_marked, 0u);
}

TEST(Queue, RuntimeResizeKeepsPackets) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 4});
  for (int i = 0; i < 4; ++i) q.Enqueue(MakeData());
  q.set_capacity(2);  // shrink below occupancy
  EXPECT_EQ(q.occupancy(), 4u);
  EXPECT_FALSE(q.Enqueue(MakeData()));
  q.set_capacity(50);
  EXPECT_TRUE(q.Enqueue(MakeData()));
}

TEST(Queue, TracksMaxOccupancy) {
  QueueDisc q(QueueDisc::Config{.capacity_packets = 8});
  for (int i = 0; i < 5; ++i) q.Enqueue(MakeData());
  q.Dequeue(SimTime::Zero());
  q.Dequeue(SimTime::Zero());
  EXPECT_EQ(q.stats().max_occupancy, 5u);
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

TEST(Link, SerializationPlusPropagation) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;          // 9000B -> 7.2 us
  lc.propagation = SimTime::Micros(50);
  Link link(sim, lc, &sink);
  link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime::Nanos(7200) + SimTime::Micros(50));
}

TEST(Link, BackToBackSerialization) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;
  lc.propagation = SimTime::Zero();
  Link link(sim, lc, &sink);
  for (int i = 0; i < 3; ++i) link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sim.now(), SimTime::Nanos(3 * 7200));
}

TEST(Link, DisabledHoldsQueue) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;
  lc.propagation = SimTime::Zero();
  Link link(sim, lc, &sink);
  link.set_enabled(false);
  link.Enqueue(MakeData());
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  link.set_enabled(true);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Link, DropsBeyondQueueCapacity) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 1'000'000;  // slow: everything queues
  lc.queue.capacity_packets = 3;
  Link link(sim, lc, &sink);
  for (int i = 0; i < 10; ++i) link.Enqueue(MakeData(1000));
  // 1 in flight + 3 queued; 6 dropped.
  EXPECT_EQ(link.queue().stats().dropped, 6u);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Link, ReorderJitterCanReorder) {
  Simulator sim;
  Random rng(9);
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 100'000'000'000;
  lc.propagation = SimTime::Micros(1);
  lc.reorder_jitter = SimTime::Micros(50);
  lc.queue.capacity_packets = 100;
  Link jlink(sim, lc, &sink, &rng);
  for (int i = 0; i < 50; ++i) {
    jlink.Enqueue(MakeData(1500));
  }
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].id < sink.packets[i - 1].id) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

// ---------------------------------------------------------------------------
// FabricPort
// ---------------------------------------------------------------------------

FabricPort::Config PortConfig() {
  FabricPort::Config fc;
  fc.voq.capacity_packets = 16;
  fc.initial_mode = NetworkMode{0, 10'000'000'000, SimTime::Micros(48), false};
  return fc;
}

NetworkMode CircuitMode() {
  return NetworkMode{1, 100'000'000'000, SimTime::Micros(18), true};
}

TEST(FabricPort, PacketModeTiming) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sim.now(), SimTime::Nanos(7200) + SimTime::Micros(48));
}

TEST(FabricPort, ModeSwitchSpeedsUpLeftovers) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.SetBlackout(true);
  for (int i = 0; i < 10; ++i) port.Enqueue(MakeData(9000));
  port.SetMode(CircuitMode());
  port.SetBlackout(false);
  sim.Run();
  // 10 packets at 100G (720ns each) + 18us propagation: far faster than 10G.
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_LT(sim.now(), SimTime::Micros(30));
}

TEST(FabricPort, BlackoutPausesService) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.SetBlackout(true);
  port.Enqueue(MakeData());
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  port.SetBlackout(false);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(FabricPort, CircuitMarkStamped) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.Enqueue(MakeData());
  sim.Run();
  EXPECT_FALSE(sink.Pop().circuit_mark);
  port.SetMode(CircuitMode());
  port.Enqueue(MakeData());
  sim.Run();
  EXPECT_TRUE(sink.Pop().circuit_mark);
}

TEST(FabricPort, PinnedPacketWaitsForItsNetwork) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);  // packet mode (path 0)
  Packet p = MakeData();
  p.pinned_path = 1;  // circuit
  port.Enqueue(std::move(p));
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(port.pinned_waiting(), 1u);
  port.SetMode(CircuitMode());
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(port.pinned_waiting(), 0u);
}

TEST(FabricPort, ModeChangeRestashesMismatchedPinned) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.initial_mode = CircuitMode();
  FabricPort port(sim, fc, &sink);
  port.SetBlackout(true);  // hold everything in the VOQ
  Packet pinned = MakeData();
  pinned.pinned_path = 1;  // admitted: matches circuit mode
  port.Enqueue(std::move(pinned));
  Packet plain = MakeData();
  port.Enqueue(std::move(plain));
  // Circuit goes away: the pinned packet must go back to the stash, the
  // unpinned one stays in the VOQ and rides the packet network.
  port.SetMode(PortConfig().initial_mode);
  port.SetBlackout(false);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(port.pinned_waiting(), 1u);
}

TEST(FabricPort, PinnedStashCapacityDrops) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.pinned_stash_capacity = 2;
  FabricPort port(sim, fc, &sink);
  for (int i = 0; i < 5; ++i) {
    Packet p = MakeData();
    p.pinned_path = 1;
    port.Enqueue(std::move(p));
  }
  EXPECT_EQ(port.pinned_waiting(), 2u);
  EXPECT_EQ(port.pinned_dropped(), 3u);
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

TEST(Host, DispatchesByFlow) {
  Simulator sim;
  Host host(sim, 7);
  CaptureSink ep1, ep2;
  host.RegisterEndpoint(1, &ep1);
  host.RegisterEndpoint(2, &ep2);
  Packet p = MakeData();
  p.flow = 2;
  p.dst = 7;
  host.HandlePacket(std::move(p));
  EXPECT_TRUE(ep1.packets.empty());
  EXPECT_EQ(ep2.packets.size(), 1u);
}

TEST(Host, UnregisterEndpointChecksTheOwner) {
  Simulator sim;
  Host host(sim, 7);
  CaptureSink ep, stranger;
  host.RegisterEndpoint(4, &ep);
  host.UnregisterEndpoint(4, &stranger);  // not its entry: a no-op
  EXPECT_EQ(host.num_endpoints(), 1u);
  Packet p = MakeData();
  p.flow = 4;
  host.HandlePacket(std::move(p));
  EXPECT_EQ(ep.packets.size(), 1u);
  host.UnregisterEndpoint(4, &ep);
  EXPECT_EQ(host.num_endpoints(), 0u);
}

TEST(EndpointTable, CollidingFlowsSurviveBackwardShiftDeletion) {
  EndpointTable t;
  CaptureSink s[4];
  t.Insert(1, &s[0]);  // sizes the table
  // Three more flows whose probes all start at flow 1's home slot.
  std::vector<FlowId> run = {1};
  for (FlowId f = 2; run.size() < 4; ++f) {
    if (t.HomeSlot(f) == t.HomeSlot(1)) run.push_back(f);
  }
  for (std::size_t i = 1; i < run.size(); ++i) t.Insert(run[i], &s[i]);
  ASSERT_EQ(t.size(), 4u);
  for (std::size_t i = 0; i < run.size(); ++i) EXPECT_EQ(t.Find(run[i]), &s[i]);

  // A foreign sink cannot remove an entry.
  t.Erase(run[1], &s[0]);
  EXPECT_EQ(t.Find(run[1]), &s[1]);
  EXPECT_EQ(t.size(), 4u);

  // Removing the head of the run shifts the rest back: all stay reachable,
  // the vacated flow is gone, and re-inserting it lands at the end.
  t.Erase(run[0], &s[0]);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.Find(run[0]), nullptr);
  for (std::size_t i = 1; i < run.size(); ++i) EXPECT_EQ(t.Find(run[i]), &s[i]);
  t.Erase(run[2], nullptr);  // nullptr: any owner
  EXPECT_EQ(t.Find(run[2]), nullptr);
  EXPECT_EQ(t.Find(run[1]), &s[1]);
  EXPECT_EQ(t.Find(run[3]), &s[3]);
  t.Insert(run[0], &s[0]);
  EXPECT_EQ(t.Find(run[0]), &s[0]);
  EXPECT_EQ(t.size(), 3u);
}

TEST(EndpointTable, GrowsUnderChurnAndKeepsEveryEntry) {
  EndpointTable t;
  CaptureSink sink;
  // A sliding window of 300 live flows over 5000 registrations.
  for (FlowId f = 1; f <= 5000; ++f) {
    t.Insert(f, &sink);
    if (f > 300) t.Erase(f - 300, &sink);
  }
  EXPECT_EQ(t.size(), 300u);
  EXPECT_LE(t.capacity(), 1024u);
  for (FlowId f = 1; f <= 5000; ++f) {
    EXPECT_EQ(t.Find(f), f > 4700 ? &sink : nullptr) << f;
  }
}

TEST(Host, UnknownFlowCounted) {
  Simulator sim;
  Host host(sim, 7);
  Packet p = MakeData();
  p.flow = 99;
  host.HandlePacket(std::move(p));
  EXPECT_EQ(host.dropped_no_endpoint(), 1u);
}

TEST(Host, PullModelNotifiesAllAtOnce) {
  Simulator sim;
  Host host(sim, 0);
  int calls = 0;
  int o1, o2;
  host.AddTdnListener(&o1, [&](TdnId t, bool) { calls += t == 1 ? 1 : 0; });
  host.AddTdnListener(&o2, [&](TdnId t, bool) { calls += t == 1 ? 1 : 0; });
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  EXPECT_EQ(calls, 2);  // immediate, no events needed
}

TEST(Host, PushModelStaggersListeners) {
  Simulator sim;
  Host host(sim, 0);
  host.set_notify_distribution(NotifyDistribution{false, SimTime::Micros(2)});
  std::vector<SimTime> when(2);
  int o1, o2;
  host.AddTdnListener(&o1, [&](TdnId, bool) { when[0] = sim.now(); });
  host.AddTdnListener(&o2, [&](TdnId, bool) { when[1] = sim.now(); });
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  sim.Run();
  EXPECT_EQ(when[0], SimTime::Zero());
  EXPECT_EQ(when[1], SimTime::Micros(2));
}

TEST(Host, PushDeliveryGoesToTheRegistrationThatMatched) {
  // A churned connection's address comes back as a new registration (here
  // for another peer rack) while a staggered push to the old one is still
  // pending: the pending delivery must not reach the newcomer.
  Simulator sim;
  Host host(sim, 0);
  host.set_notify_distribution(NotifyDistribution{false, SimTime::Micros(2)});
  int o1, owner;
  int first = 0, reused = 0, other_rack = 0;
  host.AddTdnListener(&o1, [&](TdnId, bool) { ++first; }, 1);
  host.AddTdnListener(&owner, [&](TdnId, bool) { ++first; }, 1);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  icmp.notify_peer = 1;
  host.HandlePacket(std::move(icmp));
  host.RemoveTdnListener(&owner);
  host.AddTdnListener(&owner, [&](TdnId, bool) { ++other_rack; }, 2);
  host.AddTdnListener(&owner, [&](TdnId, bool) { ++reused; }, 1);
  sim.Run();
  EXPECT_EQ(first, 1);  // o1 heard it; the removed registration did not
  EXPECT_EQ(other_rack, 0);
  EXPECT_EQ(reused, 0);
}

TEST(Host, RemoveTdnListener) {
  Simulator sim;
  Host host(sim, 0);
  int calls = 0;
  int owner;
  host.AddTdnListener(&owner, [&](TdnId, bool) { ++calls; });
  host.RemoveTdnListener(&owner);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// ToRSwitch + Topology
// ---------------------------------------------------------------------------

TEST(Topology, LocalAndRemoteRouting) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);

  CaptureSink ep;
  topo.host(1, 0)->RegisterEndpoint(5, &ep);
  // Send from rack 0 host 0 to rack 1 host 0 (node id 2).
  Packet p = MakeData(9000, topo.host_id(1, 0));
  p.flow = 5;
  topo.host(0, 0)->Send(std::move(p));
  sim.Run();
  ASSERT_EQ(ep.packets.size(), 1u);
  EXPECT_EQ(ep.packets[0].src, topo.host_id(0, 0));
}

TEST(Topology, IntraRackDelivery) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  CaptureSink ep;
  topo.host(0, 1)->RegisterEndpoint(3, &ep);
  Packet p = MakeData(9000, topo.host_id(0, 1));
  p.flow = 3;
  topo.host(0, 0)->Send(std::move(p));
  sim.Run();
  EXPECT_EQ(ep.packets.size(), 1u);
}

TEST(Topology, RackResolver) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 16;
  Topology topo(sim, rng, tc);
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(15), 0u);
  EXPECT_EQ(topo.rack_of(16), 1u);
  EXPECT_EQ(topo.host_id(1, 3), 19u);
}

TEST(ToRSwitch, NotifyViaControlNetworkTiming) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig nc;  // cached, control network
  ToRSwitch tor(sim, 0, nc, &rng);
  Host h0(sim, 0), h1(sim, 1);
  std::vector<SimTime> when(2, SimTime::Max());
  int o0, o1;
  h0.AddTdnListener(&o0, [&](TdnId, bool) { when[0] = sim.now(); });
  h1.AddTdnListener(&o1, [&](TdnId, bool) { when[1] = sim.now(); });
  tor.AttachHost(0, nullptr, &h0);
  tor.AttachHost(1, nullptr, &h1);
  tor.NotifyHosts(1);
  sim.Run();
  // Host 0: ~0.5us gen (lognormal) + 1us control; host 1 strictly later
  // (its generation waits behind host 0's).
  EXPECT_GT(when[0], SimTime::Micros(1));
  EXPECT_LT(when[0], SimTime::Micros(20));
  EXPECT_GT(when[1], when[0]);
  EXPECT_EQ(tor.notifications_sent(), 2u);
}

TEST(ToRSwitch, FreshGenerationSlowerThanCached) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig cached;
  NotifyGenConfig fresh;
  fresh.cached_packet = false;
  ToRSwitch tor_cached(sim, 0, cached, &rng);
  ToRSwitch tor_fresh(sim, 1, fresh, &rng);
  Host h(sim, 0);
  tor_cached.AttachHost(0, nullptr, &h);
  tor_fresh.AttachHost(0, nullptr, &h);
  double cached_sum = 0, fresh_sum = 0;
  for (int i = 0; i < 200; ++i) {
    tor_cached.NotifyHosts(0);
    cached_sum += tor_cached.last_notify_latency()[0].micros_f();
    tor_fresh.NotifyHosts(0);
    fresh_sum += tor_fresh.last_notify_latency()[0].micros_f();
  }
  EXPECT_GT(fresh_sum, cached_sum * 4);  // ~8x at the median per §5.4
}

TEST(ToRSwitch, DataPlaneDeliveryRidesDownlink) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig nc;
  nc.via_control_network = false;
  ToRSwitch tor(sim, 0, nc, &rng);
  Host h(sim, 0);
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 1'000'000;  // slow downlink: ICMP queues behind it
  Link down(sim, lc, &h);
  bool notified = false;
  int owner;
  h.AddTdnListener(&owner, [&](TdnId, bool) { notified = true; });
  tor.AttachHost(0, &down, &h);
  // Pre-fill the downlink with a data packet; the ICMP must wait.
  down.Enqueue(MakeData(9000, 0));
  tor.NotifyHosts(1);
  sim.RunUntil(SimTime::Micros(100));
  EXPECT_FALSE(notified);  // still serializing the data packet (72ms at 1Mbps)
  sim.Run();
  EXPECT_TRUE(notified);
}

}  // namespace
}  // namespace tdtcp
