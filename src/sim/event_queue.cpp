#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace tdtcp {
namespace {

// Below this many chain nodes a compaction pass costs more than it saves.
constexpr std::size_t kCompactMinNodes = 64;

}  // namespace

EventQueue::EventQueue()
    // Plain array-new: CohortSet is trivial, so the storage stays
    // uninitialized until the one memset below (make_unique would zero it
    // first and touch the 32 KiB twice per Simulator construction).
    : cohort_cache_(new CohortSet[kCohortSets]) {
  InvalidateCohortCache();
}

void EventQueue::InvalidateCohortCache() {
  // 0xff bytes give at_ps = -1 (empty) in one memset; tail is never read
  // while at_ps is the sentinel.
  static_assert(std::is_trivially_copyable_v<CohortSet>);
  std::memset(cohort_cache_.get(), 0xff, kCohortSets * sizeof(CohortSet));
}

EventQueue::EntryBuf::~EntryBuf() {
  if (raw_ != nullptr) ::operator delete(raw_, std::align_val_t{64});
}

void EventQueue::EntryBuf::Grow() {
  static_assert(sizeof(Entry) == 16 && std::is_trivially_copyable_v<Entry>);
  const std::size_t ncap = std::max<std::size_t>(64, cap_ * 2);
  void* nraw = ::operator new((kPad + ncap) * sizeof(Entry), std::align_val_t{64});
  Entry* ndata = static_cast<Entry*>(nraw) + kPad;
  if (size_ != 0) std::memcpy(ndata, data_, size_ * sizeof(Entry));
  if (raw_ != nullptr) ::operator delete(raw_, std::align_val_t{64});
  raw_ = nraw;
  data_ = ndata;
  cap_ = ncap;
}

void EventQueue::GrowSlab() {
  if (slot_blocks_.size() * kSlotBlock >= kMaxSlots) {
    throw std::length_error(
        "EventQueue: too many concurrent pending events (kMaxSlots)");
  }
  auto block = std::make_unique<Slot[]>(kSlotBlock);
  const std::uint32_t base =
      static_cast<std::uint32_t>(slot_blocks_.size() * kSlotBlock);
  slot_blocks_.push_back(std::move(block));
  free_slots_.reserve(slot_blocks_.size() * kSlotBlock);
  for (std::size_t i = kSlotBlock; i-- > 0;) {
    free_slots_.push_back(base + static_cast<std::uint32_t>(i));
  }
}

void EventQueue::ThrowSeqExhausted() const {
  throw std::length_error("EventQueue: schedule sequence space exhausted");
}

void EventQueue::ThrowLaneNotMonotone(LaneId lane, SimTime at) const {
  throw std::logic_error(
      "EventQueue::ScheduleOnLane: push at " + std::to_string(at.picos()) +
      "ps is earlier than the lane's latest push at " +
      std::to_string(lanes_[lane].tail_at.picos()) + "ps");
}

EventQueue::LaneId EventQueue::LaneFor(SimTime delay) {
  if (delay <= SimTime::Zero()) {
    throw std::invalid_argument("EventQueue::LaneFor: lane delay must be > 0");
  }
  for (LaneId l = 0; l < lanes_.size(); ++l) {
    if (lanes_[l].delay == delay) return l;
  }
  if (lanes_.size() >= kMaxLanes) {
    throw std::length_error("EventQueue: too many fixed-delay lanes (kMaxLanes)");
  }
  lanes_.emplace_back();
  lanes_.back().delay = delay;
  return static_cast<LaneId>(lanes_.size() - 1);
}

std::uint32_t EventQueue::AllocNode(std::uint64_t ev) {
  std::uint32_t n = node_free_;
  if (n == kNilNode) {
    if (nodes_.size() >= kLaneNodeBase) {
      throw std::length_error("EventQueue: chain node pool exhausted");
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{ev, kNilNode});
    return n;
  }
  node_free_ = nodes_[n].next;
  nodes_[n] = Node{ev, kNilNode};
  return n;
}

EventId EventQueue::ScheduleHeap(SimTime at, std::uint32_t slot) {
  const std::uint64_t seq = NextSeq();
  SlotRef(slot).live = seq;
  const EventId id = MakeKey(seq, slot);
  const std::uint32_t node = AllocNode(id);
  const std::int64_t ps = at.picos();
  CohortSet& set = cohort_cache_[CohortIndex(ps)];
  // One fused pass over the set's four ways (one cache line): find the hit
  // and, failing that, the first empty way to insert into.
  CohortRef* hit = nullptr;
  CohortRef* empty = nullptr;
  for (std::size_t w = 0; w < kCohortWays; ++w) {
    CohortRef& c = set.way[w];
    if (c.at_ps == ps) {
      hit = &c;
      break;
    }
    if (empty == nullptr && c.at_ps < 0) empty = &c;
  }
  if (hit != nullptr) {
    // Same-time append: chain onto the cached cohort's tail, no heap
    // traffic at all. Sequence monotonicity keeps the chain FIFO-sorted.
    nodes_[hit->tail].next = node;
    hit->tail = node;
    ++counters_.cohort_hits;
  } else {
    heap_.push_back(Entry{at, HeapKey(seq, node)});
    SiftUp(heap_.size() - 1);
    if (ps >= 0) {
      // No empty way: replace round-robin. Replacement is deterministic (a
      // counter, not wall-clock or randomness) and only ever costs
      // performance: an evicted time just reopens as a twin.
      if (empty == nullptr) empty = &set.way[cohort_rr_++ & (kCohortWays - 1)];
      *empty = CohortRef{ps, node, 0};
    }
  }
  ++heap_nodes_;
  ++live_count_;
  return id;
}

EventId EventQueue::PushLane(LaneId lane, SimTime at, std::uint32_t slot) {
  const std::uint64_t seq = NextSeq();
  SlotRef(slot).live = LiveTag(seq, kInFirstLane + lane);
  const EventId id = MakeKey(seq, slot);
  FixedLane& l = lanes_[lane];
  l.ring.push_back(LaneEntry{at, id});
  l.tail_at = at;
  if (!l.in_heap) {
    // The lane was empty: its new head enters the heap like any event.
    l.in_heap = true;
    heap_.push_back(Entry{at, HeapKey(seq, kLaneNodeBase + lane)});
    SiftUp(heap_.size() - 1);
  }
  ++live_count_;
  return id;
}

void EventQueue::Cancel(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  if (slot >= slab_size_for_test()) return;  // never existed
  Slot& s = SlotRef(slot);
  // A live slot's tag equals the id's sequence number; anything else means
  // the event already fired, was already cancelled, or the id is bogus. A
  // free slot's tag is 0, which only the (invalid) zero sequence matches.
  const std::uint64_t seq = SeqOf(id);
  if (seq == 0 || (s.live & kSeqMask) != seq) return;
  const std::uint64_t where = s.live >> kSeqBits;
  s.fn.Reset();  // destroy the capture eagerly; the entry is now dead
  s.live = 0;
  free_slots_.push_back(slot);
  --live_count_;
  if (where == kInHeap) {
    // The chain node stays linked (O(1) cancel); drain skips it lazily and
    // compaction reclaims it wholesale.
    ++heap_dead_;
    MaybeCompact();
  } else if (where == kInZeroLane) {
    ++zero_lane_dead_;
  } else {
    FixedLane& l = lanes_[where - kInFirstLane];
    if (++l.dead * 2 > l.ring.size()) CompactLane(l);
  }
}

void EventQueue::CompactLane(FixedLane& lane) {
  // O(ring) per pass, and a pass needs more dead entries than live ones, so
  // the cost amortizes to O(1) per cancel. The lane's heap key may now name
  // a removed head; it stays a lower bound and SettleLaneFront re-keys it.
  const std::size_t removed =
      lane.ring.RemoveIf([this](const LaneEntry& e) { return EventDead(e.key); });
  lane.dead -= removed;
  counters_.dead_dropped += removed;
  ++counters_.compactions;
}

// The heap is 4-ary: half the dependent levels of a binary heap, and the
// four 16-byte children of a node share one cache line, so the
// deeper-but-narrower compare fan costs less than it saves in latency on
// large heaps. Arity is invisible to firing order — (at, key) is a strict
// total order, so any valid heap pops the same sequence.
void EventQueue::SiftUp(std::size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!After(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(std::size_t i) {
  // Bottom-up sift (Floyd): walk the hole down the min-child path to a leaf,
  // then bubble the displaced element back up. HeapPopTop feeds this a leaf
  // element that nearly always belongs back near the bottom, so the
  // bubble-up is short and the early-exit compare per level is saved.
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  std::size_t hole = i;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= n) break;
    std::size_t best;
    if (first + kHeapArity <= n) {
      // Full node: tournament min — the two pair-compares are independent,
      // and with the branchless comparator each pick is a cmov.
      const std::size_t a = After(heap_[first], heap_[first + 1])
                                ? first + 1 : first;
      const std::size_t b = After(heap_[first + 2], heap_[first + 3])
                                ? first + 3 : first + 2;
      best = After(heap_[a], heap_[b]) ? b : a;
    } else {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (After(heap_[best], heap_[c])) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > i) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!After(heap_[parent], e)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::SiftDownFront() {
  const std::size_t n = heap_.size();
  const Entry e = heap_[0];
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (After(heap_[best], heap_[c])) best = c;
    }
    if (!After(e, heap_[best])) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void EventQueue::HeapPopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void EventQueue::DropDeadHeads() {
  // The dead counters gate the slot probes: with no pending cancellations
  // (the common case) a cohort front costs two compare-to-zero branches and
  // no slab reads. A lane front is always checked against its ring head,
  // which the caller is about to read anyway.
  if (zero_lane_dead_ != 0) {
    while (!zero_lane_.empty() && EventDead(zero_lane_.front().key)) {
      zero_lane_.pop_front();
      --zero_lane_dead_;
      ++counters_.dead_dropped;
    }
  }
  while (!heap_.empty()) {
    Entry& front = heap_.front();
    const std::uint32_t head =
        static_cast<std::uint32_t>(front.key & kNodeIndexMask);
    if (head >= kLaneNodeBase) {
      if (SettleLaneFront(head - kLaneNodeBase)) return;
      continue;
    }
    if (heap_dead_ == 0 || !EventDead(nodes_[head].ev)) return;
    const std::uint32_t next = nodes_[head].next;
    FreeNode(head);
    --heap_nodes_;
    --heap_dead_;
    ++counters_.dead_dropped;
    if (next == kNilNode) {
      // Whole cohort gone: the cache entry (if still ours) must die with
      // it, or a later same-time schedule would append to a freed node.
      ClearCohortRef(front.at);
      HeapPopTop();
    } else {
      // Advance the cohort in place. Same-time twins hold disjoint, later
      // seq ranges, but a lane head at this time may sit between two chain
      // seqs, so the front must be re-sifted.
      front.key = HeapKey(nodes_[next].ev >> kSlotIndexBits, next);
      SiftDownFront();
    }
  }
}

bool EventQueue::SettleLaneFront(LaneId lane) {
  FixedLane& l = lanes_[lane];
  if (l.dead != 0) {
    while (!l.ring.empty() && EventDead(l.ring.front().key)) {
      l.ring.pop_front();
      --l.dead;
      ++counters_.dead_dropped;
    }
  }
  if (l.ring.empty()) {
    l.in_heap = false;
    HeapPopTop();
    return false;
  }
  Entry& front = heap_.front();
  const LaneEntry& h = l.ring.front();
  // Seqs are unique, so a matching seq means the key is the head's own.
  if (SeqOf(h.key) == HeapFirstSeq(front)) return true;
  front = Entry{h.at, HeapKey(SeqOf(h.key), kLaneNodeBase + lane)};
  SiftDownFront();
  return false;
}

void EventQueue::MaybeCompact() {
  if (heap_nodes_ >= kCompactMinNodes && heap_dead_ * 2 > heap_nodes_) {
    Compact();
  }
}

void EventQueue::Compact() {
  // Filter every cohort chain (dead nodes can sit mid-chain), drop cohorts
  // that end up empty, then Floyd-heapify the packed entries: O(nodes), and
  // the pass runs at most once per half-pool of cancellations.
  std::size_t w = 0;
  for (std::size_t r = 0; r < heap_.size(); ++r) {
    const Entry e = heap_[r];
    if ((e.key & kNodeIndexMask) >= kLaneNodeBase) {
      heap_[w++] = e;  // a lane head: its ring compacts on its own
      continue;
    }
    std::uint32_t head = kNilNode;
    std::uint32_t tail = kNilNode;
    std::uint32_t cur = static_cast<std::uint32_t>(e.key & kNodeIndexMask);
    while (cur != kNilNode) {
      const std::uint32_t next = nodes_[cur].next;
      if (EventDead(nodes_[cur].ev)) {
        FreeNode(cur);
        --heap_nodes_;
        --heap_dead_;
        ++counters_.dead_dropped;
      } else {
        if (head == kNilNode) {
          head = cur;
        } else {
          nodes_[tail].next = cur;
        }
        tail = cur;
      }
      cur = next;
    }
    if (head != kNilNode) {
      nodes_[tail].next = kNilNode;
      heap_[w++] = Entry{e.at, HeapKey(nodes_[head].ev >> kSlotIndexBits, head)};
    }
  }
  heap_.resize_down(w);
  for (std::size_t i = heap_.size() / kHeapArity + 1; i-- > 0;) {
    if (i < heap_.size()) SiftDown(i);
  }
  // Chain tails may have moved or died; a wholesale wipe is always safe.
  InvalidateCohortCache();
  ++counters_.compactions;
}

SimTime EventQueue::NextTime() {
  DropDeadHeads();
  const LaneEntry* lane = ZeroLaneFront();
  if (lane == nullptr) {
    return heap_.empty() ? SimTime::Max() : heap_.front().at;
  }
  // Zero-delay entries were scheduled at what was then "now", which can only
  // be at or before every heap entry's time.
  return lane->at;
}

std::uint64_t EventQueue::TakeHeapHead() {
  Entry& front = heap_.front();
  const std::uint32_t head =
      static_cast<std::uint32_t>(front.key & kNodeIndexMask);
  if (head >= kLaneNodeBase) return TakeLaneHead(head - kLaneNodeBase);
  Node& nd = nodes_[head];
  const std::uint64_t ev = nd.ev;
  // The winner's slot line is needed right after the structural pop;
  // kicking the fetch off here hides it behind the sift-down / advance.
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(&SlotRef(SlotOf(ev)), 1 /*write*/);
#endif
  const std::uint32_t next = nd.next;
  FreeNode(head);
  --heap_nodes_;
  if (next == kNilNode) {
    ClearCohortRef(front.at);
    HeapPopTop();
  } else {
    front.key = HeapKey(nodes_[next].ev >> kSlotIndexBits, next);
    SiftDownFront();
  }
  return ev;
}

std::uint64_t EventQueue::TakeLaneHead(LaneId lane) {
  FixedLane& l = lanes_[lane];
  const std::uint64_t ev = l.ring.front().key;
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(&SlotRef(SlotOf(ev)), 1 /*write*/);
#endif
  l.ring.pop_front();
  if (l.ring.empty()) {
    l.in_heap = false;
    HeapPopTop();
  } else {
    // The next entry (live or not) bounds the lane from below; a dead one
    // is dropped when it surfaces.
    const LaneEntry& next = l.ring.front();
    heap_.front() = Entry{next.at, HeapKey(SeqOf(next.key), kLaneNodeBase + lane)};
    SiftDownFront();
  }
  return ev;
}

bool EventQueue::RunNext(SimTime& now_out, SimTime until) {
  if (live_count_ == 0) return false;
  DropDeadHeads();
  // A zero-delay entry was scheduled at what was then "now", so it is at or
  // before every heap entry's time; a heap entry at the same instant whose
  // head has a smaller sequence number was scheduled earlier and keeps its
  // FIFO position. Zero-delay lane keys and heap keys use different
  // layouts, so compare seqs explicitly.
  const LaneEntry* lane = ZeroLaneFront();
  const bool from_lane =
      lane != nullptr &&
      (heap_.empty() || lane->at < heap_.front().at ||
       (lane->at == heap_.front().at &&
        SeqOf(lane->key) < HeapFirstSeq(heap_.front())));
  assert(from_lane || !heap_.empty());
  const SimTime at = from_lane ? lane->at : heap_.front().at;
  if (at > until) return false;
  std::uint64_t ev;
  if (from_lane) {
    ev = lane->key;
    zero_lane_.pop_front();
  } else {
    ev = TakeHeapHead();
  }
  const std::uint32_t slot = SlotOf(ev);
  Slot& s = SlotRef(slot);
  // Retire the entry before running: a reentrant Cancel of this id is a
  // no-op, and the slot stays off the freelist until the callback returns,
  // so reentrant Schedules can never emplace over the running functor
  // (slot blocks never relocate, see GrowSlab).
  s.live = 0;
  --live_count_;
  now_out = at;
  s.fn.InvokeAndReset();
  free_slots_.push_back(slot);
  return true;
}

}  // namespace tdtcp
