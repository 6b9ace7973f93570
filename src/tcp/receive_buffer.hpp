// Receiver-side reassembly and SACK/DSACK generation (RFC 2018 / 2883).
//
// TDTCP deliberately keeps the receiver almost unmodified (§3.3); this
// buffer is plain TCP. It tracks out-of-order segments, generates SACK
// blocks most-recent-first, emits a DSACK block when a duplicate arrives
// (which the sender's undo machinery uses to detect spurious
// retransmissions), and preserves MPTCP data-sequence mappings so the
// meta-level can reassemble.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tdtcp {

class ReceiveBuffer {
 public:
  struct Delivered {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;
    bool has_dss = false;
    std::uint64_t dss_seq = 0;
  };

  struct Result {
    // In-order segments released to the application by this arrival. The
    // span views a scratch vector the buffer owns and reuses: it stays
    // valid until the next OnData on this buffer.
    std::span<const Delivered> delivered;
    bool duplicate = false;   // arrival was (fully) already-received data
    SackBlock dsack;          // valid when duplicate
    bool out_of_order = false;
  };

  explicit ReceiveBuffer(std::uint64_t rcv_nxt = 1) : rcv_nxt_(rcv_nxt) {}

  Result OnData(std::uint64_t seq, std::uint32_t len, bool has_dss,
                std::uint64_t dss_seq, SimTime now);

  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t ooo_bytes() const { return ooo_bytes_; }

  // Up to kMaxSackBlocks SACK blocks, in wire order.
  struct SackList {
    std::array<SackBlock, kMaxSackBlocks> blocks{};
    std::uint8_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const SackBlock& operator[](std::size_t i) const { return blocks[i]; }
  };

  // The optional DSACK first, then out-of-order ranges ordered by how
  // recently they grew; ranges that grew at the same instant keep their
  // creation order.
  SackList BuildSackBlocks(const Result& last) const;

 private:
  struct OooSegment {
    std::uint64_t seq;
    std::uint32_t len;
    bool has_dss;
    std::uint64_t dss_seq;
  };
  struct Range {
    std::uint64_t start;
    std::uint64_t end;
    SimTime last_touch;
  };

  void TouchRange(std::uint64_t start, std::uint64_t end, SimTime now);

  std::uint64_t rcv_nxt_;
  std::uint64_t ooo_bytes_ = 0;
  // Buffered out-of-order segments, sorted by seq (seqs are unique).
  std::vector<OooSegment> ooo_;
  // Coalesced OOO ranges. Every touch re-appends its range at the back, so
  // last_touch is non-decreasing front to back.
  std::vector<Range> ranges_;
  std::vector<Delivered> delivered_;  // Result::delivered's storage
};

}  // namespace tdtcp
