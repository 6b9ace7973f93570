// Connection lifecycle: active/passive/simultaneous close, RST semantics in
// every state, bounded-retry aborts (SYN, SYN-ACK, RTO, persist), close
// racing a TDN switch, MPTCP meta teardown with orphan reinjection, the
// churn workload under fault injection, and a 10k-cycle churn soak proving
// zero steady-state allocations and zero leaked host registrations.
#include <gtest/gtest.h>

#include "alloc_harness.hpp"

#include "app/experiment.hpp"
#include "app/sweep.hpp"
#include "cc/registry.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::CaptureSink;
using test::LoopbackHarness;
using test::PairHarness;

TcpConfig BaseConfig() {
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  return c;
}

Packet MakeSyn(FlowId flow) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.syn = true;
  p.seq = 0;
  p.size_bytes = 60;
  return p;
}

Packet MakeRst(FlowId flow) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.rst = true;
  p.size_bytes = 60;
  return p;
}

// A peer FIN at stream position `seq` (payload already delivered).
Packet MakeFin(FlowId flow, std::uint64_t seq) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.fin = true;
  p.seq = seq;
  p.payload = 0;
  p.size_bytes = 60;
  return p;
}

// Client established against hand-crafted responses (tcp_test idiom).
struct ClientFixture {
  explicit ClientFixture(TcpConfig config = BaseConfig())
      : harness(sim), conn(sim, &harness.host, 1, 99, config) {
    conn.SetClosedCallback([this](CloseReason r) { observed_reason = r; });
    conn.Connect();
    harness.Settle();
    Packet syn = harness.out.Pop();
    conn.HandlePacket(LoopbackHarness::SynAckFor(
        syn, conn.config().tdtcp_enabled, conn.config().num_tdns));
    harness.Settle();
    harness.out.packets.clear();
    EXPECT_EQ(conn.state(), TcpConnection::State::kEstablished);
  }

  Simulator sim;
  LoopbackHarness harness;
  TcpConnection conn;
  CloseReason observed_reason = CloseReason::kNone;
};

// Two real endpoints over real links.
struct E2eFixture {
  explicit E2eFixture(TcpConfig tx_cfg = BaseConfig(),
                      TcpConfig rx_cfg = BaseConfig())
      : net(sim),
        rx(sim, &net.b, 1, 0, rx_cfg),
        tx(sim, &net.a, 1, 1, tx_cfg) {
    rx.Listen();
    tx.Connect();
    sim.RunUntil(SimTime::Millis(1));
    EXPECT_EQ(tx.state(), TcpConnection::State::kEstablished);
  }

  Simulator sim;
  PairHarness net;
  TcpConnection rx;
  TcpConnection tx;
};

// ---------------------------------------------------------------------------
// Orderly close
// ---------------------------------------------------------------------------

TEST(Lifecycle, ActiveCloseAgainstAutoClosingReceiver) {
  TcpConfig rc = BaseConfig();
  rc.close_on_peer_fin = true;
  E2eFixture f(BaseConfig(), rc);
  f.tx.AddAppData(5000);
  f.tx.Close();  // lingering: the FIN rides out behind the 5 segments
  f.sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(f.tx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.rx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.tx.close_reason(), CloseReason::kNormal);
  EXPECT_EQ(f.rx.close_reason(), CloseReason::kNormal);
  EXPECT_EQ(f.tx.stats().fins_sent, 1u);
  EXPECT_EQ(f.tx.stats().fins_received, 1u);
  EXPECT_EQ(f.rx.stats().bytes_received, 5000u);
  // Closed endpoints deregistered themselves from the demux.
  EXPECT_EQ(f.net.a.num_endpoints(), 0u);
  EXPECT_EQ(f.net.b.num_endpoints(), 0u);
}

TEST(Lifecycle, PassiveCloseHoldsCloseWaitUntilAppCloses) {
  E2eFixture f;  // receiver does NOT auto-close on FIN
  f.tx.AddAppData(2000);
  f.tx.Close();
  f.sim.RunUntil(SimTime::Millis(5));
  // Half-closed: our FIN is acked (FIN-WAIT-2), the peer's app hasn't
  // answered yet (CLOSE-WAIT can last forever).
  EXPECT_EQ(f.tx.state(), TcpConnection::State::kFinWait2);
  EXPECT_EQ(f.rx.state(), TcpConnection::State::kCloseWait);
  f.rx.Close();  // app finally responds: LAST-ACK → closed on the ACK
  f.sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(f.rx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.rx.close_reason(), CloseReason::kNormal);
  f.sim.RunUntil(SimTime::Millis(20));  // tx: TIME-WAIT 2MSL expires
  EXPECT_EQ(f.tx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.tx.close_reason(), CloseReason::kNormal);
}

TEST(Lifecycle, SimultaneousCloseTraversesClosing) {
  E2eFixture f;
  TcpConnection::State mid_tx{}, mid_rx{};
  f.sim.Schedule(SimTime::Micros(100), [&] {
    f.tx.Close();
    f.rx.Close();
  });
  // 15us after the closes: the crossing FINs have each arrived (10us links)
  // but the ACKs covering them have not — both sides sit in CLOSING.
  f.sim.Schedule(SimTime::Micros(115), [&] {
    mid_tx = f.tx.state();
    mid_rx = f.rx.state();
  });
  f.sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(mid_tx, TcpConnection::State::kClosing);
  EXPECT_EQ(mid_rx, TcpConnection::State::kClosing);
  EXPECT_EQ(f.tx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.rx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.tx.close_reason(), CloseReason::kNormal);
  EXPECT_EQ(f.rx.close_reason(), CloseReason::kNormal);
}

TEST(Lifecycle, SimultaneousCloseWithQueuedDataStillSendsFin) {
  // Regression: the peer's FIN arrives while our own FIN is still pending
  // behind cwnd-limited data (FIN-WAIT-1 → CLOSING with fin unsent). The FIN
  // must still go out from CLOSING once the data drains, or both ends hang.
  ClientFixture f;
  f.conn.AddAppData(20000);  // initial_cwnd 10 x mss 1000: half stays queued
  f.harness.Settle();
  f.conn.Close();
  f.harness.Settle();
  ASSERT_EQ(f.conn.state(), TcpConnection::State::kFinWait1);
  ASSERT_EQ(f.conn.stats().fins_sent, 0u);  // 10000 bytes still buffered
  f.conn.HandlePacket(MakeFin(1, 1));  // simultaneous close
  ASSERT_EQ(f.conn.state(), TcpConnection::State::kClosing);
  // Acks drain the stream; the FIN (seq 20001) follows the last byte.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 10001));
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 20001));
  f.harness.Settle();
  EXPECT_EQ(f.conn.stats().fins_sent, 1u);
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 20002));  // FIN acked
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kTimeWait);
  f.sim.RunUntil(f.sim.now() + f.conn.config().time_wait_duration * 2);
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.observed_reason, CloseReason::kNormal);
}

TEST(Lifecycle, RetransmittedPeerFinRestartsTimeWait) {
  ClientFixture f;
  f.conn.Close();
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2));  // FIN (seq 1) acked
  f.conn.HandlePacket(MakeFin(1, 1));
  ASSERT_EQ(f.conn.state(), TcpConnection::State::kTimeWait);
  // A retransmitted FIN re-ACKs and restarts the 2MSL clock.
  f.sim.RunUntil(f.sim.now() + f.conn.config().time_wait_duration / 2);
  f.harness.out.packets.clear();
  f.conn.HandlePacket(MakeFin(1, 1));
  f.harness.Settle();
  ASSERT_FALSE(f.harness.out.Empty());
  EXPECT_EQ(f.harness.out.Pop().ack, 2u);  // FIN's virtual byte re-acked
  f.sim.RunUntil(f.sim.now() + f.conn.config().time_wait_duration * 3 / 4);
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kTimeWait);  // restarted
  f.sim.RunUntil(f.sim.now() + f.conn.config().time_wait_duration);
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.observed_reason, CloseReason::kNormal);
}

// ---------------------------------------------------------------------------
// RST semantics
// ---------------------------------------------------------------------------

TEST(Lifecycle, RstAbortsEstablishedWithoutReply) {
  ClientFixture f;
  f.conn.HandlePacket(MakeRst(1));
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.conn.close_reason(), CloseReason::kPeerReset);
  EXPECT_EQ(f.observed_reason, CloseReason::kPeerReset);
  EXPECT_EQ(f.conn.stats().rsts_received, 1u);
  // Never answer an RST with an RST.
  f.harness.Settle();
  while (!f.harness.out.Empty()) EXPECT_FALSE(f.harness.out.Pop().rst);
}

TEST(Lifecycle, RstInSynReceivedReturnsToListen) {
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection server(sim, &h.host, 1, 99, BaseConfig());
  server.Listen();
  server.HandlePacket(MakeSyn(1));
  ASSERT_EQ(server.state(), TcpConnection::State::kSynReceived);
  server.HandlePacket(MakeRst(1));
  EXPECT_EQ(server.state(), TcpConnection::State::kListen);
  // A peer reset is not a SYN-ACK retransmit give-up.
  EXPECT_EQ(server.stats().synack_give_ups, 0u);
  // The listener is reusable: a fresh handshake succeeds.
  server.HandlePacket(MakeSyn(1));
  server.HandlePacket(LoopbackHarness::Ack(1, 1));
  EXPECT_EQ(server.state(), TcpConnection::State::kEstablished);
}

TEST(Lifecycle, RstInSynReceivedAfterCloseHonorsCloseIntent) {
  // Close() while half-open, then the peer resets: returning to a "fresh
  // listener" would strand the close intent (ClosedFn would never fire) or
  // leak fin_pending_ into the next accepted connection. The endpoint closes
  // like a listener Close() instead.
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection server(sim, &h.host, 1, 99, BaseConfig());
  CloseReason reason = CloseReason::kNone;
  server.SetClosedCallback([&](CloseReason r) { reason = r; });
  server.Listen();
  server.HandlePacket(MakeSyn(1));
  ASSERT_EQ(server.state(), TcpConnection::State::kSynReceived);
  server.Close();  // lingering close intent
  server.HandlePacket(MakeRst(1));
  EXPECT_EQ(server.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(reason, CloseReason::kNormal);
  EXPECT_EQ(h.host.num_endpoints(), 0u);
}

TEST(Lifecycle, SegmentToClosedEndpointDrawsRst) {
  ClientFixture f;
  f.conn.Abort();
  ASSERT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  f.harness.out.packets.clear();
  Packet data;
  data.type = PacketType::kData;
  data.flow = 1;
  data.seq = 1;
  data.payload = 1000;
  data.size_bytes = 1060;
  f.conn.HandlePacket(std::move(data));
  f.harness.Settle();
  ASSERT_FALSE(f.harness.out.Empty());
  EXPECT_TRUE(f.harness.out.Pop().rst);
}

TEST(Lifecycle, AbortSendsRstAndPeerAborts) {
  E2eFixture f;
  f.tx.AddAppData(2000);
  f.sim.RunUntil(SimTime::Millis(2));
  f.tx.Abort();
  EXPECT_EQ(f.tx.close_reason(), CloseReason::kUserAbort);
  EXPECT_GE(f.tx.stats().rsts_sent, 1u);
  f.sim.RunUntil(SimTime::Millis(3));
  EXPECT_EQ(f.rx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.rx.close_reason(), CloseReason::kPeerReset);
}

TEST(Lifecycle, HostRstsUnknownFlowAndSenderAborts) {
  Simulator sim;
  PairHarness net(sim);
  auto rx = std::make_unique<TcpConnection>(sim, &net.b, 1, 0, BaseConfig());
  TcpConnection tx(sim, &net.a, 1, 1, BaseConfig());
  rx->Listen();
  tx.Connect();
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_EQ(tx.state(), TcpConnection::State::kEstablished);
  // The receiver process dies: its endpoint vanishes from the demux, so the
  // next data segment hits the host's closed port and draws a host-level RST.
  rx.reset();
  tx.AddAppData(1000);
  sim.RunUntil(SimTime::Millis(2));
  EXPECT_EQ(tx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(tx.close_reason(), CloseReason::kPeerReset);
}

// ---------------------------------------------------------------------------
// Bounded retries: every place a peer can be dead
// ---------------------------------------------------------------------------

TEST(Lifecycle, SynRetryCapAbortsConnect) {
  TcpConfig c = BaseConfig();
  c.max_syn_retries = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  CloseReason reason = CloseReason::kNone;
  conn.SetClosedCallback([&](CloseReason r) { reason = r; });
  conn.Connect();
  sim.RunUntil(SimTime::Millis(50));  // 1+2 retransmits at 1/3ms, abort at 7ms
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(reason, CloseReason::kConnectTimeout);
  std::size_t syns = 0;
  while (!h.out.Empty()) syns += h.out.Pop().syn ? 1 : 0;
  EXPECT_EQ(syns, 3u);  // original + max_syn_retries
}

TEST(Lifecycle, SynAckRetryCapFallsBackToListen) {
  TcpConfig c = BaseConfig();
  c.max_synack_retries = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection server(sim, &h.host, 1, 99, c);
  server.Listen();
  server.HandlePacket(MakeSyn(1));
  ASSERT_EQ(server.state(), TcpConnection::State::kSynReceived);
  sim.RunUntil(SimTime::Millis(50));  // handshake ACK never arrives
  EXPECT_EQ(server.state(), TcpConnection::State::kListen);
  EXPECT_EQ(server.stats().synack_give_ups, 1u);
  EXPECT_EQ(server.close_reason(), CloseReason::kNone);  // still usable
  // The fallback left a genuinely fresh listener: the next handshake
  // completes and lands in kEstablished, not some leaked teardown state.
  server.HandlePacket(MakeSyn(1));
  server.HandlePacket(LoopbackHarness::Ack(1, 1));
  EXPECT_EQ(server.state(), TcpConnection::State::kEstablished);
}

TEST(Lifecycle, RtoRetryCapAbortsEstablished) {
  TcpConfig c = BaseConfig();
  c.max_rto_retries = 3;
  ClientFixture f(c);
  f.conn.AddAppData(1000);
  f.sim.RunUntil(SimTime::Millis(100));  // nothing ever acked
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.observed_reason, CloseReason::kRetryLimit);
  EXPECT_GE(f.conn.stats().rsts_sent, 1u);  // courtesy RST on the way out
}

TEST(Lifecycle, PersistProbeGiveUpAbortsStalledSender) {
  TcpConfig c = BaseConfig();
  c.max_persist_retries = 3;
  ClientFixture f(c);
  f.conn.AddAppData(1000);
  f.harness.Settle();
  // Peer acks the segment but slams the window shut, then goes silent.
  Packet zero = LoopbackHarness::Ack(1, 1001);
  zero.rcv_window = 0;
  f.conn.HandlePacket(std::move(zero));
  f.conn.AddAppData(1000);  // blocked behind the zero window
  f.sim.RunUntil(SimTime::Millis(500));
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.observed_reason, CloseReason::kPersistTimeout);
}

TEST(Lifecycle, AnsweredProbesNeverAbortLivePeer) {
  TcpConfig c = BaseConfig();
  c.max_persist_retries = 2;
  ClientFixture f(c);
  f.conn.AddAppData(1000);
  f.harness.Settle();
  Packet zero = LoopbackHarness::Ack(1, 1001);
  zero.rcv_window = 0;
  f.conn.HandlePacket(std::move(zero));
  f.conn.AddAppData(1000);
  // A live peer that acks every probe (window still zero) must never trip
  // the give-up cap: an acked probe is an answered probe and resets the
  // budget. With cap 2 the stack tolerates ~3.5 ms of probe silence (RTO
  // floor 500 us, doubling), so a 1 ms ack cadence is comfortably "alive".
  for (int i = 0; i < 20; ++i) {
    f.sim.RunUntil(f.sim.now() + SimTime::Millis(1));
    std::uint64_t highest = 0;
    while (!f.harness.out.Empty()) {
      const Packet p = f.harness.out.Pop();
      if (p.payload > 0) highest = std::max(highest, p.seq + p.payload);
    }
    if (highest > 1000) {
      // `highest` is seq + payload, i.e. already the next expected byte.
      Packet ack = LoopbackHarness::Ack(1, highest);
      ack.rcv_window = 0;
      f.conn.HandlePacket(std::move(ack));
    }
  }
  EXPECT_NE(f.conn.state(), TcpConnection::State::kClosed);
}

// ---------------------------------------------------------------------------
// Hard lifecycle errors (release builds too)
// ---------------------------------------------------------------------------

TEST(Lifecycle, ConnectTwiceThrows) {
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, BaseConfig());
  conn.Connect();
  EXPECT_THROW(conn.Connect(), std::logic_error);
  EXPECT_THROW(conn.Listen(), std::logic_error);
}

TEST(Lifecycle, ClosedConnectionIsNotReusable) {
  ClientFixture f;
  f.conn.Abort();
  ASSERT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_THROW(f.conn.Connect(), std::logic_error);
  EXPECT_THROW(f.conn.Listen(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Close racing a TDN switch
// ---------------------------------------------------------------------------

TEST(Lifecycle, CloseAcrossTdnSwitchRetiresPerTdnState) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  ClientFixture f(c);  // SynAckFor negotiates TD_CAPABLE
  f.conn.AddAppData(2000);
  f.harness.Settle();
  f.conn.Close();  // FIN (seq 2001) follows the two data segments
  f.harness.Settle();
  EXPECT_EQ(f.conn.stats().fins_sent, 1u);
  // The TDN switches while data + FIN are in flight; the ACK for them
  // arrives tagged with the new TDN. The invariant checker's post-close
  // recount (on by default) throws if any per-TDN counter survives.
  f.conn.OnTdnChange(1, false);
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2002, {}, 1));
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kFinWait2);
  f.conn.HandlePacket(MakeFin(1, 1));
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kTimeWait);
  f.conn.OnTdnChange(0, false);  // switch again during TIME-WAIT: harmless
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(5));
  EXPECT_EQ(f.conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(f.observed_reason, CloseReason::kNormal);
  EXPECT_EQ(f.harness.host.num_tdn_listeners(), 0u);
}

// ---------------------------------------------------------------------------
// MPTCP meta teardown
// ---------------------------------------------------------------------------

// Full two-rack RDCN with one MPTCP flow (mptcp_test idiom), receiver
// subflows auto-closing on FIN so one meta Close() drives both ends down.
struct MptcpLifecycleFixture {
  MptcpLifecycleFixture() : rng(1), topo(sim, rng, TopoCfg()) {
    RdcnController::Config rc;
    rc.packet_mode = topo.config().packet_mode;
    rc.circuit_mode = topo.config().circuit_mode;
    controller = std::make_unique<RdcnController>(
        sim, rc, std::vector<FabricPort*>{topo.port(0, 1), topo.port(1, 0)},
        std::vector<ToRSwitch*>{topo.tor(0), topo.tor(1)});
    MptcpConnection::Config mc;
    mc.subflow.mss = 8940;
    MptcpConnection::Config rcv = mc;
    rcv.subflow.close_on_peer_fin = true;
    receiver = std::make_unique<MptcpConnection>(sim, topo.host(1, 0), 1,
                                                 topo.host_id(0, 0), rcv);
    sender = std::make_unique<MptcpConnection>(sim, topo.host(0, 0), 1,
                                               topo.host_id(1, 0), mc);
    receiver->Listen();
    controller->Start();
    sender->Connect();
    sender->SetUnlimitedData(true);
  }

  static TopologyConfig TopoCfg() {
    TopologyConfig tc;
    tc.hosts_per_rack = 2;
    return tc;
  }

  Simulator sim;
  Random rng;
  Topology topo;
  std::unique_ptr<RdcnController> controller;
  std::unique_ptr<MptcpConnection> sender;
  std::unique_ptr<MptcpConnection> receiver;
};

TEST(MptcpLifecycle, GracefulCloseClosesBothMetasAndDeregisters) {
  MptcpLifecycleFixture f;
  f.sim.RunUntil(SimTime::Millis(4));  // both subflows up, data moving
  CloseReason sender_reason = CloseReason::kNone;
  f.sender->SetClosedCallback([&](CloseReason r) { sender_reason = r; });
  f.sender->Close();
  f.sim.RunUntil(SimTime::Millis(30));
  EXPECT_TRUE(f.sender->closed());
  EXPECT_TRUE(f.receiver->closed());
  EXPECT_EQ(f.sender->close_reason(), CloseReason::kNormal);
  EXPECT_EQ(sender_reason, CloseReason::kNormal);
  EXPECT_EQ(f.receiver->close_reason(), CloseReason::kNormal);
  // Both metas released their demux entries and TDN listeners at close.
  EXPECT_EQ(f.topo.host(0, 0)->num_endpoints(), 0u);
  EXPECT_EQ(f.topo.host(1, 0)->num_endpoints(), 0u);
  EXPECT_EQ(f.topo.host(0, 0)->num_tdn_listeners(), 0u);
  EXPECT_EQ(f.topo.host(1, 0)->num_tdn_listeners(), 0u);
}

TEST(MptcpLifecycle, AbortedSubflowReinjectsOrphansOntoSurvivor) {
  MptcpLifecycleFixture f;
  f.sim.RunUntil(SimTime::Micros(1300));  // optical day: subflow 1 active
  ASSERT_EQ(f.sender->active_subflow(), 1u);
  const std::uint64_t acked_before = f.sender->meta_bytes_acked();
  f.sender->subflow(1)->Abort();  // circuit subflow dies mid-burst
  EXPECT_EQ(f.sender->stats().subflow_aborts, 1u);
  EXPECT_GT(f.sender->stats().abort_reinjections, 0u);
  EXPECT_EQ(f.sender->active_subflow(), 0u);  // failover
  EXPECT_FALSE(f.sender->closed());           // meta survives on subflow 0
  f.sim.RunUntil(SimTime::Millis(6));
  // The rescued DSS ranges were delivered: meta progress continued.
  EXPECT_GT(f.sender->meta_bytes_acked(), acked_before);
  f.sender->Close();
  f.sim.RunUntil(SimTime::Millis(30));
  EXPECT_TRUE(f.sender->closed());
  EXPECT_TRUE(f.receiver->closed());
  // First abnormal subflow reason wins on each side.
  EXPECT_EQ(f.sender->close_reason(), CloseReason::kUserAbort);
  EXPECT_EQ(f.receiver->close_reason(), CloseReason::kPeerReset);
}

TEST(MptcpLifecycle, AddMappedDataRefusedOnceFinIsOnTheWire) {
  // The reinjection contract: a subflow whose FIN occupies the last stream
  // byte has no sequence space left, so AddMappedData must refuse (and say
  // so) rather than silently queueing nothing.
  ClientFixture f;
  EXPECT_TRUE(f.conn.AddMappedData(100, 1));
  f.harness.Settle();
  f.conn.Close();  // no buffered data left: FIN goes out immediately
  f.harness.Settle();
  ASSERT_EQ(f.conn.stats().fins_sent, 1u);
  EXPECT_FALSE(f.conn.AddMappedData(100, 101));
  EXPECT_EQ(f.conn.unsent_buffered_bytes(), 0u);
}

TEST(MptcpLifecycle, OrphansWithNoSurvivorCountAsUnrescuedNotReinjected) {
  // Regression: the abort-reinjection stats must not claim rescues that
  // never landed. Kill the active subflow (rescue onto the survivor), then
  // kill the survivor too — its stranded DSS ranges have nowhere to go and
  // must be reported as unrescued, not as reinjections.
  MptcpLifecycleFixture f;
  f.sim.RunUntil(SimTime::Micros(1300));  // optical day: subflow 1 active
  ASSERT_EQ(f.sender->active_subflow(), 1u);
  f.sender->subflow(1)->Abort();
  ASSERT_GT(f.sender->stats().abort_reinjections, 0u);
  EXPECT_EQ(f.sender->stats().unrescued_ranges, 0u);  // subflow 0 took them
  const std::uint64_t rescued = f.sender->stats().reinjections;
  f.sender->subflow(0)->Abort();  // last leg down: nothing left to rescue to
  EXPECT_GT(f.sender->stats().unrescued_ranges, 0u);
  EXPECT_GT(f.sender->stats().unrescued_bytes, 0u);
  EXPECT_EQ(f.sender->stats().reinjections, rescued);  // no phantom rescues
  EXPECT_TRUE(f.sender->closed());
  EXPECT_EQ(f.sender->close_reason(), CloseReason::kUserAbort);
}

// ---------------------------------------------------------------------------
// Churn: open → transfer → close under fault injection
// ---------------------------------------------------------------------------

ExperimentConfig ChurnConfigForTest(std::uint32_t connections) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithFlows(2)
                             .WithDuration(SimTime::Millis(60))
                             .WithWarmup(SimTime::Millis(5))
                             .WithSampling(false, false)
                             .WithTrace()  // churned conns emit lifecycle
                                           // tracepoints into the run ring
                             .WithSeed(7);
  ChurnConfig cc;
  cc.target_connections = connections;
  cc.mean_interarrival = SimTime::Micros(25);
  // A wide slot pool (several cycles per host pair; flow ids demux them)
  // keeps the 10k-connection run's wall time in tier-1 territory.
  cc.max_concurrent = 64;
  cfg.WithChurnConfig(cc);
  FaultPlan plan;
  plan.host_links.gilbert_elliott = true;
  plan.host_links.ge_p_good_to_bad = 0.0005;
  // One host per rack dies mid-run (indices clear of the long-lived flows);
  // rack 1's victim comes back, rack 0's never does.
  plan.host_downs.push_back(
      {1, 3, SimTime::Millis(15), SimTime::Millis(10)});
  plan.host_downs.push_back({0, 5, SimTime::Millis(30), SimTime::Zero()});
  cfg.WithFault(plan);
  return cfg;
}

TEST(Churn, EveryConnectionReachesClosedWithDefiniteReason) {
  // 10k connections through a faulted fabric (burst loss + two host-down
  // windows) with the invariant checker on: the acceptance bar is that every
  // single one reaches kClosed with a definite reason.
  const ExperimentResult r = RunExperiment(ChurnConfigForTest(10000));
  EXPECT_EQ(r.churn.opened, 10000u);
  EXPECT_EQ(r.churn.closed, 10000u);
  EXPECT_TRUE(r.churn_all_closed);
  // Reasons partition the closed population and none is indefinite.
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumCloseReasons; ++i) sum += r.churn.reasons[i];
  EXPECT_EQ(sum, r.churn.closed);
  EXPECT_EQ(r.churn.reasons[static_cast<std::size_t>(CloseReason::kNone)], 0u);
  // The downed hosts made some cycles die abnormally, and most still
  // completed the orderly FIN handshake.
  EXPECT_GT(r.churn.abnormal(), 0u);
  EXPECT_GT(r.churn.normal(), r.churn.abnormal());
  EXPECT_GT(r.faults_injected, 0u);
}

TEST(Churn, SeededChurnIsBitIdenticalAcrossJobs) {
  // The full 10k acceptance run on a 2-worker pool, racing an identical
  // twin: results must not depend on scheduling (the sweep engine's
  // jobs=1 == jobs=N guarantee extended to churn), and the tracepoint
  // stream — which now includes every churned connection's lifecycle
  // points — must hash identically too.
  const ExperimentConfig cfg = ChurnConfigForTest(10000);
  const ExperimentResult solo = RunExperiment(cfg);
  std::vector<ExperimentResult> pooled(2);
  ParallelFor(2, 2, [&](std::size_t i) { pooled[i] = RunExperiment(cfg); });
  for (const ExperimentResult& r : pooled) {
    EXPECT_EQ(r.churn_hash, solo.churn_hash);
    EXPECT_EQ(r.churn.opened, solo.churn.opened);
    EXPECT_EQ(r.churn.closed, solo.churn.closed);
    EXPECT_EQ(r.churn.bytes_completed, solo.churn.bytes_completed);
    EXPECT_EQ(r.fault_trace_hash, solo.fault_trace_hash);
    EXPECT_EQ(r.trace_hash, solo.trace_hash);
    EXPECT_EQ(r.total_bytes, solo.total_bytes);
  }
  EXPECT_NE(solo.churn_hash, 0u);
  EXPECT_NE(solo.trace_hash, 0u);
}

// ---------------------------------------------------------------------------
// Churn soak: zero steady-state allocations, zero leaked registrations
// ---------------------------------------------------------------------------

TEST(ChurnSoak, TenThousandCyclesLeakNothing) {
  Simulator sim;
  PairHarness net(sim);
  TcpConfig tc = BaseConfig();
  TcpConfig rc = tc;
  rc.close_on_peer_fin = true;

  auto one_cycle = [&](FlowId flow) {
    auto rx = std::make_unique<TcpConnection>(sim, &net.b, flow, 0, rc);
    auto tx = std::make_unique<TcpConnection>(sim, &net.a, flow, 1, tc);
    rx->Listen();
    tx->Connect();
    tx->AddAppData(3000);
    tx->Close();
    sim.RunUntil(sim.now() + SimTime::Millis(3));  // covers 2MSL (1ms)
    ASSERT_EQ(tx->state(), TcpConnection::State::kClosed);
    ASSERT_EQ(rx->state(), TcpConnection::State::kClosed);
    ASSERT_EQ(tx->close_reason(), CloseReason::kNormal);
    ASSERT_EQ(rx->close_reason(), CloseReason::kNormal);
  };

  // Warm up lazily-grown capacity (event heap, demux buckets, send queues).
  FlowId flow = 1;
  for (int i = 0; i < 200; ++i) one_cycle(flow++);

  const auto delta = test::CountAllocations([&] {
    for (int i = 0; i < 10'000; ++i) one_cycle(flow++);
  });
  // Per-cycle allocations (connections, buffers, callbacks) are all matched
  // by frees: the churn steady state holds zero net allocations.
  EXPECT_EQ(delta.news, delta.deletes);
  // And the count per cycle is pinned. Each of the two connections makes
  // six: the object, its one CC module, the TdnState array, the send-queue
  // ring, the invariant checker and the checker's recount scratch. The
  // sender adds its pending-bytes ring and the receiver its delivered-
  // segment scratch. None is per segment or per ACK.
  constexpr std::uint64_t kNewsPerCycle = 2 * 6 + 2;
  EXPECT_EQ(delta.news, kNewsPerCycle * 10'000);

  // And zero leaked host registrations across all 10200 open/close cycles.
  EXPECT_EQ(net.a.num_endpoints(), 0u);
  EXPECT_EQ(net.b.num_endpoints(), 0u);
  EXPECT_EQ(net.a.num_tdn_listeners(), 0u);
  EXPECT_EQ(net.b.num_tdn_listeners(), 0u);
}

}  // namespace
}  // namespace tdtcp
