// Receiver reassembly, SACK generation (RFC 2018), DSACK (RFC 2883).
#include <gtest/gtest.h>

#include "tcp/receive_buffer.hpp"

namespace tdtcp {
namespace {

SimTime T(int us) { return SimTime::Micros(us); }

TEST(ReceiveBuffer, InOrderDelivery) {
  ReceiveBuffer rb;
  auto r = rb.OnData(1, 100, false, 0, T(0));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].seq, 1u);
  EXPECT_EQ(rb.rcv_nxt(), 101u);
  EXPECT_FALSE(r.out_of_order);
  EXPECT_FALSE(r.duplicate);
}

TEST(ReceiveBuffer, OutOfOrderBuffersAndReleases) {
  ReceiveBuffer rb;
  auto r1 = rb.OnData(101, 100, false, 0, T(0));
  EXPECT_TRUE(r1.out_of_order);
  EXPECT_TRUE(r1.delivered.empty());
  EXPECT_EQ(rb.rcv_nxt(), 1u);
  EXPECT_EQ(rb.ooo_bytes(), 100u);

  auto r2 = rb.OnData(1, 100, false, 0, T(1));
  ASSERT_EQ(r2.delivered.size(), 2u);
  EXPECT_EQ(r2.delivered[0].seq, 1u);
  EXPECT_EQ(r2.delivered[1].seq, 101u);
  EXPECT_EQ(rb.rcv_nxt(), 201u);
  EXPECT_EQ(rb.ooo_bytes(), 0u);
}

TEST(ReceiveBuffer, DuplicateSignalsDsack) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  auto r = rb.OnData(1, 100, false, 0, T(1));
  EXPECT_TRUE(r.duplicate);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.dsack.start, 1u);
  EXPECT_EQ(r.dsack.end, 101u);
  // The DSACK is the first SACK block.
  auto blocks = rb.BuildSackBlocks(r);
  ASSERT_GE(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (SackBlock{1, 101}));
}

TEST(ReceiveBuffer, DuplicateOfBufferedOooIsDsack) {
  ReceiveBuffer rb;
  rb.OnData(201, 100, false, 0, T(0));
  auto r = rb.OnData(201, 100, false, 0, T(1));
  EXPECT_TRUE(r.duplicate);
}

TEST(ReceiveBuffer, PartialOverlapTrimsStalePrefix) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  // Segment [51, 151): first 50 bytes already delivered.
  auto r = rb.OnData(51, 100, false, 0, T(1));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].seq, 101u);
  EXPECT_EQ(r.delivered[0].len, 50u);
  EXPECT_EQ(rb.rcv_nxt(), 151u);
}

TEST(ReceiveBuffer, SackBlocksMostRecentFirst) {
  ReceiveBuffer rb;
  ReceiveBuffer::Result last;
  rb.OnData(201, 100, false, 0, T(0));   // range A (older)
  last = rb.OnData(401, 100, false, 0, T(1));  // range B (newer)
  auto blocks = rb.BuildSackBlocks(last);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (SackBlock{401, 501}));
  EXPECT_EQ(blocks[1], (SackBlock{201, 301}));
}

TEST(ReceiveBuffer, AdjacentOooSegmentsCoalesce) {
  ReceiveBuffer rb;
  rb.OnData(201, 100, false, 0, T(0));
  auto last = rb.OnData(301, 100, false, 0, T(1));
  auto blocks = rb.BuildSackBlocks(last);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (SackBlock{201, 401}));
}

TEST(ReceiveBuffer, SackBlockLimit) {
  ReceiveBuffer rb;
  ReceiveBuffer::Result last;
  // Six disjoint ranges; only kMaxSackBlocks are reported.
  for (int i = 0; i < 6; ++i) {
    last = rb.OnData(201 + i * 200, 100, false, 0, T(i));
  }
  auto blocks = rb.BuildSackBlocks(last);
  EXPECT_EQ(blocks.size(), static_cast<std::size_t>(kMaxSackBlocks));
  // Most recent range first.
  EXPECT_EQ(blocks[0].start, 201u + 5 * 200);
}

TEST(ReceiveBuffer, EqualTouchRangesKeepIndexOrderAndCap) {
  ReceiveBuffer rb;
  rb.OnData(201, 100, false, 0, T(0));
  rb.OnData(401, 100, false, 0, T(1));
  rb.OnData(601, 100, false, 0, T(1));
  rb.OnData(801, 100, false, 0, T(2));
  rb.OnData(1001, 100, false, 0, T(2));
  auto last = rb.OnData(1201, 100, false, 0, T(2));
  // Newest instant first; the three ranges that grew at T(2) keep their
  // creation order, then the T(1) group starts and the cap cuts it off.
  auto blocks = rb.BuildSackBlocks(last);
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(kMaxSackBlocks));
  EXPECT_EQ(blocks[0], (SackBlock{801, 901}));
  EXPECT_EQ(blocks[1], (SackBlock{1001, 1101}));
  EXPECT_EQ(blocks[2], (SackBlock{1201, 1301}));
  EXPECT_EQ(blocks[3], (SackBlock{401, 501}));

  // A duplicate takes the first slot and pushes the oldest block out.
  auto dup = rb.OnData(1201, 100, false, 0, T(3));
  ASSERT_TRUE(dup.duplicate);
  blocks = rb.BuildSackBlocks(dup);
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(kMaxSackBlocks));
  EXPECT_EQ(blocks[0], (SackBlock{1201, 1301}));
  EXPECT_EQ(blocks[1], (SackBlock{801, 901}));
  EXPECT_EQ(blocks[2], (SackBlock{1001, 1101}));
  EXPECT_EQ(blocks[3], (SackBlock{1201, 1301}));
}

TEST(ReceiveBuffer, DeliveryClearsSackRanges) {
  ReceiveBuffer rb;
  rb.OnData(101, 100, false, 0, T(0));
  auto r = rb.OnData(1, 100, false, 0, T(1));
  auto blocks = rb.BuildSackBlocks(r);
  EXPECT_TRUE(blocks.empty());
}

TEST(ReceiveBuffer, DssMappingPreserved) {
  ReceiveBuffer rb;
  auto r = rb.OnData(1, 100, true, 5000, T(0));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_TRUE(r.delivered[0].has_dss);
  EXPECT_EQ(r.delivered[0].dss_seq, 5000u);
}

TEST(ReceiveBuffer, DssAdjustedOnTrim) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  auto r = rb.OnData(51, 100, true, 9000, T(1));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].dss_seq, 9050u);
}

TEST(ReceiveBuffer, ManyInterleavedSegmentsAllDeliveredOnce) {
  ReceiveBuffer rb;
  // Even segments first (out of order), then odd ones.
  std::uint64_t delivered_bytes = 0;
  for (int i = 0; i < 20; i += 2) {
    auto r = rb.OnData(1 + i * 100, 100, false, 0, T(i));
    for (auto& d : r.delivered) delivered_bytes += d.len;
  }
  for (int i = 1; i < 20; i += 2) {
    auto r = rb.OnData(1 + i * 100, 100, false, 0, T(20 + i));
    for (auto& d : r.delivered) delivered_bytes += d.len;
  }
  EXPECT_EQ(delivered_bytes, 2000u);
  EXPECT_EQ(rb.rcv_nxt(), 2001u);
  EXPECT_EQ(rb.ooo_bytes(), 0u);
}

}  // namespace
}  // namespace tdtcp
