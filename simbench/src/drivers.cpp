#include "drivers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"

namespace simbench {

using namespace tdtcp;
using Clock = std::chrono::steady_clock;

namespace {

// Runs `batch` (which returns the operations it performed) once to warm up,
// then repeatedly for `budget_s`; host nanoseconds per operation.
template <typename Batch>
double NsPerOp(double budget_s, Batch&& batch) {
  batch();
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    ops += batch();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < budget_s);
  return ops == 0 ? 0 : elapsed * 1e9 / static_cast<double>(ops);
}

class CountingSink : public PacketSink {
 public:
  void HandlePacket(Packet&& p) override { bytes_ += p.size_bytes; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

// A self-rescheduling event with a uniform delay of mean 1 µs.
struct Ticker {
  Simulator* sim;
  Random* rng;
  void Fire() {
    sim->ScheduleNoCancel(SimTime::Picos(rng->UniformInt(1, 2'000'000)),
                          [this] { Fire(); });
  }
};

Packet DataPacket(FlowId flow, std::uint32_t bytes) {
  Packet p;
  p.type = PacketType::kData;
  p.flow = flow;
  p.dst = 0;
  p.src = 1;
  p.size_bytes = bytes;
  return p;
}

}  // namespace

double EventNsAtDepth(std::size_t depth, double budget_s) {
  Simulator sim;
  Random rng(1);
  std::vector<Ticker> tickers(std::max<std::size_t>(depth, 1),
                              Ticker{&sim, &rng});
  for (Ticker& t : tickers) t.Fire();
  return NsPerOp(budget_s, [&] {
    const std::uint64_t e0 = sim.events_executed();
    sim.RunFor(SimTime::Micros(100));
    return sim.events_executed() - e0;
  });
}

double WheelNsPerArm(std::size_t timers, double budget_s) {
  Simulator sim;
  TimerWheel wheel(sim);
  Random rng(2);
  const std::size_t n = std::max<std::size_t>(timers, 1);
  // Declared after the wheel: each Timer disarms itself on destruction.
  auto entries = std::make_unique<TimerWheel::Timer[]>(n);
  // An RTO-like spread of deadlines, 10 µs to 10 ms out.
  const auto deadline = [&] {
    return SimTime::Picos(rng.UniformInt(10'000'000, 10'000'000'000));
  };
  for (std::size_t i = 0; i < n; ++i) {
    entries[i].Init(nullptr, [](void*) {});
    wheel.Arm(entries[i], deadline());
  }
  return NsPerOp(budget_s, [&] {
    constexpr std::uint64_t kArms = 10'000;
    for (std::uint64_t k = 0; k < kArms; ++k) {
      const auto i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      wheel.Arm(entries[i], deadline());
    }
    return kArms;
  });
}

double HopNs(std::uint32_t bytes, double budget_s) {
  const TopologyConfig topo;
  Link::Config lc;
  lc.rate_bps = topo.host_link_rate_bps;
  lc.propagation = topo.host_link_delay;
  lc.queue = topo.host_queue;
  Simulator sim;
  CountingSink sink;
  Link link(sim, lc, &sink);
  const std::uint32_t batch = lc.queue.capacity_packets;
  return NsPerOp(budget_s, [&] {
    for (std::uint32_t i = 0; i < batch; ++i) {
      link.Enqueue(DataPacket(1, bytes));
    }
    sim.Run();
    return static_cast<std::uint64_t>(batch);
  });
}

double QdiscNs(QdiscKind kind, double budget_s) {
  QueueDisc::Config qc = TopologyConfig{}.voq;
  qc.kind = kind;
  QueueDisc q(qc);
  // Fill the VOQ at once, then drain it at the 10 Gbps jumbo-frame rate, so
  // sojourn climbs past CoDel's target as it does during a blackout.
  const SimTime service = SimTime::Nanos(7'152);
  SimTime now = SimTime::Zero();
  return NsPerOp(budget_s, [&] {
    constexpr std::uint64_t kRounds = 1'000;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (std::uint32_t i = 0; i < qc.capacity_packets; ++i) {
        Packet p = DataPacket(1, 9000);
        p.enqueue_time = now;
        q.Enqueue(std::move(p));
      }
      while (!q.Empty()) {
        now += service;
        (void)q.Dequeue(now);
      }
    }
    return kRounds * qc.capacity_packets;
  });
}

double DemuxNs(std::size_t endpoints, double budget_s) {
  Simulator sim;
  Host host(sim, 0);
  const std::size_t n = std::max<std::size_t>(endpoints, 1);
  std::vector<CountingSink> sinks(n);
  std::vector<FlowId> flows(n);
  // Churn-style ids: sparse, increasing, from the churn id range.
  for (std::size_t i = 0; i < n; ++i) {
    flows[i] = static_cast<FlowId>(1'000'000 + 37 * i);
    host.RegisterEndpoint(flows[i], &sinks[i]);
  }
  Random rng(3);
  return NsPerOp(budget_s, [&] {
    constexpr std::uint64_t kPackets = 10'000;
    for (std::uint64_t k = 0; k < kPackets; ++k) {
      const auto i = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      host.HandlePacket(DataPacket(flows[i], 64));
    }
    return kPackets;
  });
}

double FanoutNs(std::size_t listeners, const TcpConfig& tcp, double budget_s) {
  Simulator sim;
  Random rng(4);
  TopologyConfig tc;
  Topology topo(sim, rng, tc);
  const std::size_t n = std::max<std::size_t>(listeners, 1);
  TcpConfig cfg = tcp;
  cfg.peer_rack = kAllRacks;
  // n established, idle connections from one host, so a notification
  // reaches n TDTCP listeners that each switch their active TDN.
  std::vector<std::unique_ptr<TcpConnection>> conns;
  Host* local = topo.host(0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const FlowId flow = static_cast<FlowId>(i + 1);
    Host* peer = topo.host(1, static_cast<std::uint32_t>(i % tc.hosts_per_rack));
    conns.push_back(std::make_unique<TcpConnection>(sim, peer, flow,
                                                    local->id(), cfg));
    conns.back()->Listen();
    conns.push_back(
        std::make_unique<TcpConnection>(sim, local, flow, peer->id(), cfg));
    conns.back()->Connect();
  }
  sim.RunFor(SimTime::Millis(2));
  std::uint64_t seq = 0;
  TdnId tdn = 0;
  return NsPerOp(budget_s, [&] {
    constexpr std::uint64_t kNotifies = 2'000;
    for (std::uint64_t k = 0; k < kNotifies; ++k) {
      Packet p;
      p.type = PacketType::kTdnNotify;
      p.dst = local->id();
      p.notify_tdn = tdn;
      p.notify_seq = ++seq;
      p.notify_peer = kAllRacks;
      tdn ^= 1;
      local->HandlePacket(std::move(p));
    }
    // Let whatever the switches scheduled run, so the heap stays shallow.
    sim.RunFor(SimTime::Micros(1));
    return kNotifies;
  });
}

}  // namespace simbench
