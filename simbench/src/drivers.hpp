// Layer drivers: each calls one layer's public functions in a loop, at the
// shape the rig measured (heap depth, endpoints and timers per host,
// listeners per host, packet sizes), and returns host nanoseconds per
// operation. Each loop runs for about `budget_s` host seconds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/queue_disc.hpp"
#include "tcp/tcp_connection.hpp"

namespace simbench {

// Simulator::Schedule + dispatch with `depth` events pending.
double EventNsAtDepth(std::size_t depth, double budget_s);
// TimerWheel::Arm (re-arm of an armed timer) with `timers` armed.
double WheelNsPerArm(std::size_t timers, double budget_s);
// One Link hop (Enqueue to the far sink) for packets of `bytes`, on the
// topology's host link.
double HopNs(std::uint32_t bytes, double budget_s);
// QueueDisc Enqueue + Dequeue of one packet on a paper-sized VOQ.
double QdiscNs(tdtcp::QdiscKind kind, double budget_s);
// Host::HandlePacket demux of a data packet with `endpoints` registered.
double DemuxNs(std::size_t endpoints, double budget_s);
// Host::HandlePacket of a TDN notification fanned out to `listeners`
// established connections configured with `tcp`.
double FanoutNs(std::size_t listeners, const tdtcp::TcpConfig& tcp,
                double budget_s);

}  // namespace simbench
