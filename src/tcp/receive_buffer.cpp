#include "tcp/receive_buffer.hpp"

#include <algorithm>
#include <cassert>

namespace tdtcp {

ReceiveBuffer::Result ReceiveBuffer::OnData(std::uint64_t seq, std::uint32_t len,
                                            bool has_dss, std::uint64_t dss_seq,
                                            SimTime now) {
  Result result;
  delivered_.clear();
  const std::uint64_t end = seq + len;
  const auto pos = std::lower_bound(
      ooo_.begin(), ooo_.end(), seq,
      [](const OooSegment& s, std::uint64_t v) { return s.seq < v; });

  // Fully old data: duplicate; report a DSACK block (RFC 2883).
  if (end <= rcv_nxt_ || (pos != ooo_.end() && pos->seq == seq)) {
    result.duplicate = true;
    result.dsack = SackBlock{seq, end};
    return result;
  }
  if (seq < rcv_nxt_) {
    // Partial overlap with delivered data; trim the stale prefix.
    const std::uint64_t trim = rcv_nxt_ - seq;
    seq = rcv_nxt_;
    len -= static_cast<std::uint32_t>(trim);
    if (has_dss) dss_seq += trim;
  }

  if (seq == rcv_nxt_) {
    // In-order: deliver it plus any now-contiguous buffered segments.
    delivered_.push_back(Delivered{seq, len, has_dss, dss_seq});
    rcv_nxt_ = seq + len;
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->seq == rcv_nxt_) {
      delivered_.push_back(Delivered{it->seq, it->len, it->has_dss, it->dss_seq});
      rcv_nxt_ += it->len;
      ooo_bytes_ -= it->len;
      ++it;
    }
    ooo_.erase(ooo_.begin(), it);
    // Drop ranges that are now fully delivered.
    std::erase_if(ranges_, [this](const Range& r) { return r.end <= rcv_nxt_; });
    for (auto& r : ranges_) r.start = std::max(r.start, rcv_nxt_);
    result.delivered = delivered_;
    return result;
  }

  // Out of order: buffer and record for SACK.
  result.out_of_order = true;
  ooo_.insert(pos, OooSegment{seq, len, has_dss, dss_seq});
  ooo_bytes_ += len;
  TouchRange(seq, seq + len, now);
  return result;
}

void ReceiveBuffer::TouchRange(std::uint64_t start, std::uint64_t end, SimTime now) {
  // Merge with any adjacent/overlapping ranges; the merged range is "most
  // recent" per RFC 2018's guidance to report the newest block first.
  assert(ranges_.empty() || ranges_.back().last_touch <= now);
  Range merged{start, end, now};
  std::erase_if(ranges_, [&merged](const Range& r) {
    if (r.end < merged.start || r.start > merged.end) return false;
    merged.start = std::min(merged.start, r.start);
    merged.end = std::max(merged.end, r.end);
    return true;
  });
  ranges_.push_back(merged);
}

ReceiveBuffer::SackList ReceiveBuffer::BuildSackBlocks(const Result& last) const {
  SackList out;
  if (last.duplicate) out.blocks[out.count++] = last.dsack;
  // ranges_ is sorted by last_touch, so newest-first is a backward scan.
  // Each run of equal last_touch is emitted front to back, the order a
  // stable sort by descending last_touch gives.
  std::size_t hi = ranges_.size();
  while (hi > 0 && out.count < kMaxSackBlocks) {
    std::size_t lo = hi - 1;
    while (lo > 0 && ranges_[lo - 1].last_touch == ranges_[hi - 1].last_touch) --lo;
    for (std::size_t i = lo; i < hi && out.count < kMaxSackBlocks; ++i) {
      out.blocks[out.count++] = SackBlock{ranges_[i].start, ranges_[i].end};
    }
    hi = lo;
  }
  return out;
}

}  // namespace tdtcp
