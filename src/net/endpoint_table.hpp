// EndpointTable: a host's FlowId -> socket demux map, flat and open-addressed.
//
// Linear probing over a power-of-two slot array, kept at most half full;
// a flow's probe starts at its Fibonacci hash (the top bits of
// flow * 2^64/phi) so sequential flow ids spread out. Deletion shifts the
// following probe run back instead of leaving tombstones, so lookups never
// lengthen under churn. Registering allocates only when the table doubles;
// a registration costs no node of its own.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace tdtcp {

class EndpointTable {
 public:
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // The slot a lookup of `flow` probes first (tests build collisions with
  // it). Requires capacity() > 0.
  std::size_t HomeSlot(FlowId flow) const {
    return static_cast<std::size_t>((flow * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  PacketSink* Find(FlowId flow) const {
    if (size_ == 0) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(flow);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.sink == nullptr) return nullptr;
      if (s.flow == flow) return s.sink;
    }
  }

  // Maps `flow` to `sink` (non-null), replacing any existing entry.
  void Insert(FlowId flow, PacketSink* sink) {
    assert(sink != nullptr);
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    Slot& s = slots_[Probe(flow)];
    if (s.sink == nullptr) ++size_;
    s = Slot{flow, sink};
  }

  // Removes `flow`'s entry if `owner` is null or is the entry's sink.
  void Erase(FlowId flow, const PacketSink* owner) {
    if (size_ == 0) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = Probe(flow);
    if (slots_[hole].sink == nullptr) return;
    if (owner != nullptr && slots_[hole].sink != owner) return;
    // Backward shift: pull each later entry of the run into the hole unless
    // its home lies cyclically in (hole, j], where it would then be
    // unreachable.
    for (std::size_t j = (hole + 1) & mask; slots_[j].sink != nullptr;
         j = (j + 1) & mask) {
      const std::size_t home = HomeSlot(slots_[j].flow);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

 private:
  struct Slot {
    FlowId flow = 0;
    PacketSink* sink = nullptr;  // null: empty
  };

  // The slot holding `flow`, or the empty slot that ends its probe run.
  std::size_t Probe(FlowId flow) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = HomeSlot(flow);
    while (slots_[i].sink != nullptr && slots_[i].flow != flow) i = (i + 1) & mask;
    return i;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.sink != nullptr) slots_[Probe(s.flow)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace tdtcp
