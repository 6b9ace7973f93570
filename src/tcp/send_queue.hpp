// The sender's retransmission queue and SACK scoreboard.
//
// Each entry is one transmitted segment, tagged with the TDN it was (last)
// sent on — the per-segment tagging §3.1 adds so ACK processing can credit
// the right TDN ("specific TDN" class, §4.3) and the relaxed reordering
// heuristic (§3.4) can tell delayed cross-TDN traffic from true loss.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace tdtcp {

struct TxSegment {
  std::uint64_t seq = 0;
  std::uint32_t len = 0;           // payload bytes (SYN: 1 virtual byte)
  TdnId tdn = 0;                   // TDN of the most recent transmission
  SimTime first_sent;
  SimTime last_sent;
  std::uint32_t transmissions = 1;
  bool syn = false;
  bool fin = false;  // sequence-occupying FIN (1 virtual byte, like the SYN)
  bool sacked = false;
  bool lost = false;
  bool retrans = false;        // a retransmission is currently in flight
  bool ever_retrans = false;   // Karn: never RTT-sample this segment
  // The host RecoveryAgent forced this segment's (re)transmission; cleared
  // when the forcing is resolved (cumulative ACK = rescued, DSACK =
  // spurious) so each forcing is counted exactly once.
  bool forced_rtx = false;
  // TDN whose recovery episode retransmitted this segment (DSACK undo
  // credits that TDN's undo_retrans).
  TdnId undo_tdn = 0;
  // MPTCP data-sequence mapping of the first payload byte (valid if has_dss).
  bool has_dss = false;
  std::uint64_t dss_seq = 0;

  std::uint64_t end_seq() const { return seq + len; }
};

class SendQueue {
 public:
  // Appends a newly transmitted segment (in sequence order).
  void Append(TxSegment seg);

  bool Empty() const { return segs_.empty(); }
  std::size_t size() const { return segs_.size(); }
  const TxSegment& front() const { return segs_.front(); }
  TxSegment& front() { return segs_.front(); }

  // Removes segments fully covered by cumulative `ack` and invokes
  // `fn(const TxSegment&)` on each before removal (per-TDN accounting, RTT
  // sampling). The visitor is a template parameter, so no callable is
  // type-erased or heap-allocated per ACK.
  template <typename Fn>
  void AckThrough(std::uint64_t ack, Fn&& fn) {
    while (!segs_.empty() && segs_.front().end_seq() <= ack) {
      fn(std::as_const(segs_.front()));
      segs_.pop_front();
    }
  }

  // Marks segments fully covered by the SACK blocks; invokes
  // `fn(TxSegment&)` for each segment that transitions to sacked. Returns
  // the count newly sacked.
  template <typename Fn>
  std::uint32_t ApplySack(std::span<const SackBlock> blocks, Fn&& fn) {
    std::uint32_t newly = 0;
    for (TxSegment& seg : segs_) {
      if (seg.sacked) continue;
      for (const SackBlock& b : blocks) {
        if (seg.seq >= b.start && seg.end_seq() <= b.end) {
          seg.sacked = true;
          highest_sacked_ = std::max(highest_sacked_, seg.end_seq());
          fn(seg);
          ++newly;
          break;
        }
      }
    }
    return newly;
  }

  // Highest sequence that has ever been SACKed (0 if none).
  std::uint64_t highest_sacked() const { return highest_sacked_; }

  // Iterate over all segments (loss marking, retransmit scans).
  Ring<TxSegment>& segments() { return segs_; }
  const Ring<TxSegment>& segments() const { return segs_; }

  // The first segment covering `seq`, or nullptr.
  TxSegment* Find(std::uint64_t seq);

  // Sum of per-flag counts (consistency checking in tests).
  std::uint32_t CountSacked() const;
  std::uint32_t CountLost() const;
  std::uint32_t CountRetrans() const;

 private:
  Ring<TxSegment> segs_;
  std::uint64_t highest_sacked_ = 0;
};

}  // namespace tdtcp
