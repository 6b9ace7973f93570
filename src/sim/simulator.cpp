#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace tdtcp {

// Chunked slab + freelist: pointers stay stable across growth, blocks are
// recycled for the simulation's lifetime, and steady state never allocates.
struct Simulator::PacketPool {
  static constexpr std::size_t kBlockPackets = 64;
  std::vector<std::unique_ptr<Packet[]>> blocks;
  std::vector<Packet*> free;
  std::size_t outstanding = 0;
};

Simulator::Simulator() : packet_pool_(std::make_unique<PacketPool>()) {}
Simulator::~Simulator() = default;

Packet* Simulator::StashPacket(Packet&& p) {
  PacketPool& pool = *packet_pool_;
  if (pool.free.empty()) {
    pool.blocks.push_back(std::make_unique<Packet[]>(PacketPool::kBlockPackets));
    Packet* base = pool.blocks.back().get();
    pool.free.reserve(pool.blocks.size() * PacketPool::kBlockPackets);
    for (std::size_t i = PacketPool::kBlockPackets; i-- > 0;) {
      pool.free.push_back(base + i);
    }
  }
  Packet* slot = pool.free.back();
  pool.free.pop_back();
  ++pool.outstanding;
  *slot = std::move(p);
  return slot;
}

void Simulator::ReleasePacket(Packet* p) {
  packet_pool_->free.push_back(p);
  --packet_pool_->outstanding;
}

std::size_t Simulator::stashed_packets() const {
  return packet_pool_->outstanding;
}

void Simulator::ThrowScheduledInPast(SimTime at) const {
  // A past-time event would silently reorder the event list in release
  // builds (the queue pops it "next" with a stale timestamp), corrupting
  // every downstream measurement. Fail loudly in every build type.
  throw std::logic_error("Simulator::ScheduleAt: event scheduled in the past (at=" +
                         std::to_string(at.picos()) + "ps, now=" +
                         std::to_string(now_.picos()) + "ps)");
}

void Simulator::Run() { RunEvents(SimTime::Max()); }

void Simulator::RunUntil(SimTime until) {
  RunEvents(until);
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::RunEvents(SimTime until) {
  stopped_ = false;
  // RunNext advances the clock before running the callback so that
  // everything the callback does (including relative scheduling) sees the
  // event's time.
  while (!stopped_ && queue_.RunNext(now_, until)) ++events_executed_;
}

}  // namespace tdtcp
