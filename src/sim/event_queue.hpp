// A deterministic, allocation-free future-event list.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which makes simulations reproducible regardless of heap internals. The
// core is allocation-free in steady state:
//
//  * Callbacks are stored in InlineEvent, a type-erased functor with a
//    fixed-capacity inline buffer (no std::function, no heap). Captures
//    larger than kInlineEventCapacity fail to compile.
//  * Callback slots live in a recycled slab of fixed-size blocks (stable
//    addresses, one cache line per slot); the 4-ary min-heap orders 16-byte
//    POD entries {time, key}.
//  * Same-time events are grouped into COHORTS: the heap holds one entry per
//    distinct timestamp, and all events sharing that timestamp hang off it
//    as a FIFO chain through a recycled node pool. A set-associative
//    time->tail cache makes the append O(1) — no sift — and popping a
//    cohort's head advances the entry in place (a re-sift that usually
//    stops at the first compare) instead of a full pop. The cache is
//    a pure accelerator: a missed hit merely creates a second heap entry
//    ("twin cohort") at the same time, and because appends only ever go to
//    the most recently cached cohort while sequence numbers are globally
//    monotonic, every seq in an older twin is smaller than every seq in a
//    newer one — the per-entry first-seq key keeps twins in exact FIFO
//    order.
//  * Cancellation is sequence-tagged: an EventId packs {seq, slot}, where
//    seq is the event's globally unique schedule sequence number. A chain
//    node whose seq no longer matches its slot's live seq is dead, so
//    Cancel() is O(1) with zero hashing, and a stale id can never alias a
//    later event (sequence numbers are monotonic, never recycled). Dead
//    nodes are skipped at the head and compacted wholesale when they exceed
//    half the pending chain nodes.
//  * Zero-delay events (Schedule(0, ...) via the Simulator — the dominant
//    pattern in link/queue handoff) bypass the heap entirely through a FIFO
//    lane, while the shared sequence counter keeps the combined firing
//    order identical to a single heap keyed on (time, schedule order).
//  * Fixed-delay LANES carry constant-delay event streams (link and fabric
//    propagation, the churn slot timeout). Every push onto a lane is at
//    now + d for one d > 0, so a lane's entries are already sorted by
//    (time, seq) and it needs one heap entry, keyed by its head, instead of
//    one per pending event. A push earlier than the lane's latest push
//    throws. Cancel stays O(1) (dead heads are skipped lazily) and a cancel
//    that leaves more than half of a lane's entries dead compacts it in
//    place. A lane's heap key may lag behind its first live entry after a
//    cancel or a compaction; it is only ever a lower bound, and it is
//    re-keyed when it reaches the heap front.
//
// RunNext() is the one dispatch path: it settles dead heads once, merges
// the heap front with the zero-delay lane's head by (time, seq), and invokes
// the winner in place.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace tdtcp {

// Packs {seq, slot}: slot in the low kSlotIndexBits, the event's unique
// schedule sequence number above it. Sequence numbers start at 1, so no
// valid id ever equals kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Maximum capture size of a scheduled callback. Raise deliberately: every
// event slot carries this many bytes inline, and big captures usually mean a
// Packet is being copied into a lambda instead of going through the
// Simulator's packet freelist.
inline constexpr std::size_t kInlineEventCapacity = 48;

// A type-erased callable with inline storage — the allocation-free
// replacement for std::function<void()> in the event core. It never moves:
// a callback is constructed in its slot and invoked and destroyed there.
class InlineEvent {
 public:
  InlineEvent() = default;

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { Reset(); }

  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineEventCapacity,
                  "event capture exceeds kInlineEventCapacity — shrink the "
                  "lambda capture (stash Packets via Simulator::StashPacket)");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned event capture");
    Reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  // Single-indirect-call invoke-then-destroy, for the run loop's in-place
  // dispatch (the capture is destroyed even if the callback throws).
  void InvokeAndReset() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke_destroy)(void*);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static constexpr Ops kOps = {
        [](void* p) {
          Fn* f = static_cast<Fn*>(p);
          struct Guard {
            Fn* f;
            ~Guard() { f->~Fn(); }
          } guard{f};
          (*f)();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };
  };

  // Pointer alignment (not max_align_t) keeps a whole Slot — buffer, ops,
  // live tag — inside one 64-byte cache line; captures are pointers and
  // small integers, never over-aligned SIMD types.
  alignas(void*) unsigned char buf_[kInlineEventCapacity];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // Slot-index width inside an EventId. 2^20 concurrent pending events; the
  // remaining 43 sequence bits never overflow in any realistic run (checked
  // — Schedule throws rather than corrupting order).
  static constexpr std::uint32_t kSlotIndexBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotIndexBits;
  static constexpr std::uint32_t kSeqBits = 63 - kSlotIndexBits;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << kSeqBits) - 1;

  // A fixed-delay lane, named by LaneFor(). At most kMaxLanes distinct
  // delays per queue.
  using LaneId = std::uint32_t;
  static constexpr std::uint32_t kMaxLanes = 256;

  EventQueue();

  // Schedules through the time-ordered heap. `ScheduleImmediate` is the
  // zero-delay fast lane: the caller (the Simulator) guarantees `at` equals
  // the current simulation time, so the entry can skip the heap and drain
  // FIFO. Both share one sequence counter, so the combined firing order is
  // exactly (time, schedule order).
  template <typename F>
  EventId Schedule(SimTime at, F&& fn) {
    const std::uint32_t slot = AcquireSlot(std::forward<F>(fn));
    return ScheduleHeap(at, slot);
  }

  template <typename F>
  EventId ScheduleImmediate(SimTime at, F&& fn) {
    const std::uint32_t slot = AcquireSlot(std::forward<F>(fn));
    const std::uint64_t seq = NextSeq();
    SlotRef(slot).live = LiveTag(seq, kInZeroLane);
    zero_lane_.push_back(LaneEntry{at, MakeKey(seq, slot)});
    ++live_count_;
    return MakeKey(seq, slot);
  }

  // The lane for constant delay `delay` (> 0, else std::invalid_argument):
  // one lane per distinct delay, shared by every caller asking for it.
  // Allocates only when the delay is new; std::length_error past kMaxLanes.
  LaneId LaneFor(SimTime delay);
  SimTime lane_delay(LaneId lane) const { return lanes_[lane].delay; }

  // Schedules onto `lane`. The caller passes now + lane_delay(lane), so
  // `at` never decreases along a lane; an `at` earlier than the lane's
  // latest push throws std::logic_error (nothing is scheduled). Fires in
  // exactly the (time, schedule order) position Schedule(at, ...) would.
  template <typename F>
  EventId ScheduleOnLane(LaneId lane, SimTime at, F&& fn) {
    if (at < lanes_[lane].tail_at) ThrowLaneNotMonotone(lane, at);
    const std::uint32_t slot = AcquireSlot(std::forward<F>(fn));
    return PushLane(lane, at, slot);
  }

  // Cancels a pending event. Cancelling an already-fired, already-cancelled,
  // or invalid id is a harmless no-op, which simplifies timer management in
  // protocol code. O(1): the slot's live tag is cleared so the queued entry
  // no longer matches, and the callback is destroyed eagerly.
  void Cancel(EventId id);

  bool Empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Time of the earliest live event; SimTime::Max() when empty.
  SimTime NextTime();

  // The one dispatch path. Pops the earliest live event if its time is at
  // or before `until` and invokes it in place: one indirect call, no
  // relocation. `now_out` is set to the event's time before the callback
  // runs. Returns false, running nothing, when no live event is due by
  // `until` (or none is pending). Safe against reentrant Schedule/Cancel
  // because slots live in fixed-size blocks that never move, and the
  // entry's live tag is retired before invocation.
  bool RunNext(SimTime& now_out, SimTime until = SimTime::Max());

  // Monotonic internals counters (cohort / cancellation observability).
  struct Counters {
    std::uint64_t cohort_hits = 0;   // O(1) same-time appends (sift skipped)
    std::uint64_t dead_dropped = 0;  // cancelled entries reclaimed lazily
    std::uint64_t compactions = 0;   // heap and lane compaction passes
  };
  const Counters& counters() const { return counters_; }

  // --- introspection / test hooks -------------------------------------------
  static std::uint32_t SlotOf(EventId id) {
    return static_cast<std::uint32_t>(id & (kMaxSlots - 1));
  }
  static std::uint64_t SeqOf(EventId id) { return id >> kSlotIndexBits; }
  // Backing-store sizes, for compaction tests. heap_storage counts heap
  // entries (one per distinct pending timestamp, dead cohorts included, and
  // one per lane holding entries).
  std::size_t heap_storage_for_test() const { return heap_.size(); }
  // Entries held by a lane's ring, dead ones included.
  std::size_t lane_storage_for_test(LaneId lane) const {
    return lanes_[lane].ring.size();
  }
  std::size_t slab_size_for_test() const {
    return slot_blocks_.size() * kSlotBlock;
  }
  // Forces the global sequence counter, to exercise the overflow guard
  // without scheduling 2^43 events. Monotonicity must be preserved.
  void ForceNextSeqForTest(std::uint64_t seq) {
    assert(seq >= seq_);
    seq_ = seq;
  }

 private:
  // POD heap entry: 16 bytes, one per distinct pending timestamp. `key` is
  // (first_seq << kNodeIndexBits) | head_node: comparing keys compares the
  // chain head's FIFO sequence number (unique, so the node bits below never
  // decide), which both orders twin cohorts correctly and recovers the
  // chain head in O(1).
  struct Entry {
    SimTime at;
    std::uint64_t key;
  };

  // Lane entries reuse the 16-byte shape but their `key` is the EventId
  // (seq << kSlotIndexBits | slot) directly — the lane never mixes into the
  // heap, and the one lane-vs-heap merge point compares seqs explicitly.
  struct LaneEntry {
    SimTime at;
    std::uint64_t key;
  };

  // Chain node: the event's id plus the next node of its cohort (kNilNode
  // terminates). Free nodes thread the freelist through `next`.
  struct Node {
    std::uint64_t ev;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  // Node-index width inside a heap key. One bit wider than the slot space:
  // cancelled events free their slot immediately but leave the chain node
  // in place until compaction, and compaction (triggered at >50% dead)
  // bounds dead nodes by live ones — so the pool never exceeds 2x slots.
  static constexpr std::uint32_t kNodeIndexBits = kSlotIndexBits + 1;
  static constexpr std::uint32_t kMaxNodes = 1u << kNodeIndexBits;
  static constexpr std::uint64_t kNodeIndexMask = kMaxNodes - 1;
  static_assert(kNodeIndexBits + kSeqBits <= 64, "heap key overflow");
  // The top kMaxLanes node indices name lanes, not chain nodes: a heap entry
  // whose key carries kLaneNodeBase + l is lane l's head.
  static constexpr std::uint32_t kLaneNodeBase = kMaxNodes - kMaxLanes;

  // One cache line: 48B capture + ops pointer + live tag.
  struct Slot {
    InlineEvent fn;
    // Sequence number of the pending event occupying this slot in the low
    // kSeqBits, and above them where its entry waits: kInHeap, kInZeroLane,
    // or kInFirstLane + l for fixed-delay lane l. 0 when free or dead.
    std::uint64_t live = 0;
  };
  static constexpr std::uint64_t kSeqMask = kMaxSeq;
  static constexpr std::uint64_t kInHeap = 0;
  static constexpr std::uint64_t kInZeroLane = 1;
  static constexpr std::uint64_t kInFirstLane = 2;
  static std::uint64_t LiveTag(std::uint64_t seq, std::uint64_t where) {
    return seq | (where << kSeqBits);
  }

  static EventId MakeKey(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotIndexBits) | slot;
  }
  static std::uint64_t HeapKey(std::uint64_t seq, std::uint32_t node) {
    return (seq << kNodeIndexBits) | node;
  }
  static std::uint64_t HeapFirstSeq(const Entry& e) {
    return e.key >> kNodeIndexBits;
  }

  // Fires-after ordering for the min-heap. Deliberately bitwise rather than
  // short-circuit: the sift loops compare essentially random entries, and a
  // flag-combine + cmov beats a ~50% mispredicted branch pair.
  static bool After(const Entry& a, const Entry& b) {
    const std::int64_t at_a = a.at.picos();
    const std::int64_t at_b = b.at.picos();
    return (at_a > at_b) | ((at_a == at_b) & (a.key > b.key));
  }

  std::uint64_t NextSeq() {
    if (seq_ > kMaxSeq) ThrowSeqExhausted();
    return seq_++;
  }
  [[noreturn]] void ThrowSeqExhausted() const;
  [[noreturn]] void ThrowLaneNotMonotone(LaneId lane, SimTime at) const;

  // Slots live in fixed-size blocks so growth never relocates a live slot —
  // the run loop invokes callbacks in place, and a callback scheduling new
  // events must not move the functor under its own feet.
  static constexpr std::size_t kSlotBlockShift = 6;
  static constexpr std::size_t kSlotBlock = std::size_t{1} << kSlotBlockShift;

  Slot& SlotRef(std::uint32_t i) {
    return slot_blocks_[i >> kSlotBlockShift][i & (kSlotBlock - 1)];
  }
  const Slot& SlotRef(std::uint32_t i) const {
    return slot_blocks_[i >> kSlotBlockShift][i & (kSlotBlock - 1)];
  }

  template <typename F>
  std::uint32_t AcquireSlot(F&& fn) {
    if (free_slots_.empty()) GrowSlab();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    SlotRef(slot).fn.Emplace(std::forward<F>(fn));
    return slot;
  }

  void GrowSlab();

  bool EventDead(std::uint64_t ev) const {
    return (SlotRef(SlotOf(ev)).live & kSeqMask) != SeqOf(ev);
  }

  // --- cohort plumbing -------------------------------------------------------
  // Set-associative time -> chain-tail cache, the O(1) append accelerator.
  // 4 ways of 16 bytes fill exactly one cache line per set, and 512 sets
  // (32 KiB) hold ~2000 distinct pending timestamps before conflicts start
  // — a direct-mapped table thrashes badly at the event core's typical
  // ~1000 live timestamps. Eviction and wholesale invalidation are always
  // CORRECT (the next same-time schedule just opens a twin cohort); the one
  // mandatory maintenance point is clearing the entry when its cohort fully
  // drains — a stale hit would append to a freed node and lose the event.
  static constexpr std::uint32_t kCohortSetBits = 9;
  static constexpr std::size_t kCohortSets = std::size_t{1} << kCohortSetBits;
  static constexpr std::size_t kCohortWays = 4;
  struct CohortRef {
    std::int64_t at_ps;  // -1 = empty (negative times are never cached)
    std::uint32_t tail;
    std::uint32_t pad;
  };
  struct alignas(64) CohortSet {
    CohortRef way[kCohortWays];
  };
  static std::size_t CohortIndex(std::int64_t ps) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(ps) * 0x9E3779B97F4A7C15ull) >>
        (64 - kCohortSetBits));
  }
  void ClearCohortRef(SimTime at) {
    CohortSet& set = cohort_cache_[CohortIndex(at.picos())];
    for (std::size_t w = 0; w < kCohortWays; ++w) {
      if (set.way[w].at_ps == at.picos()) {
        set.way[w].at_ps = -1;
        return;
      }
    }
  }
  void InvalidateCohortCache();

  EventId ScheduleHeap(SimTime at, std::uint32_t slot);
  EventId PushLane(LaneId lane, SimTime at, std::uint32_t slot);
  std::uint32_t AllocNode(std::uint64_t ev);
  void FreeNode(std::uint32_t n) {
    nodes_[n].next = node_free_;
    node_free_ = n;
  }
  // Detaches the heap front's head event (advancing its cohort or lane, or
  // popping the entry) and returns the event id. Precondition: the front
  // is settled (DropDeadHeads ran), so its head event is live.
  std::uint64_t TakeHeapHead();
  std::uint64_t TakeLaneHead(LaneId lane);

  static constexpr std::size_t kHeapArity = 4;

  // Growable POD entry buffer, 64-byte-aligned with the data pointer offset
  // by 3 entries: the 4-child group of node i (indices 4i+1..4i+4, 64 bytes)
  // then starts at byte 64(i+1) — exactly one cache line per sift level.
  class EntryBuf {
   public:
    EntryBuf() = default;
    ~EntryBuf();
    EntryBuf(const EntryBuf&) = delete;
    EntryBuf& operator=(const EntryBuf&) = delete;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Entry& operator[](std::size_t i) { return data_[i]; }
    const Entry& operator[](std::size_t i) const { return data_[i]; }
    Entry& front() { return data_[0]; }
    const Entry& front() const { return data_[0]; }
    Entry& back() { return data_[size_ - 1]; }
    void push_back(const Entry& e) {
      if (size_ == cap_) Grow();
      data_[size_++] = e;
    }
    void pop_back() { --size_; }
    void resize_down(std::size_t n) { size_ = n; }  // compaction pack

   private:
    static constexpr std::size_t kPad = kHeapArity - 1;
    void Grow();

    void* raw_ = nullptr;
    Entry* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  // Restores heap order after the front's key grew. Top-down with an early
  // exit: a re-keyed cohort or lane head usually stays at or near the top.
  void SiftDownFront();
  void HeapPopTop();
  // Leaves the heap front and the zero-delay lane's head live, with the
  // front keyed by its true head.
  void DropDeadHeads();
  // Drops lane `lane`'s dead heads and re-keys or pops its heap entry, which
  // is the front. True when the front was already keyed by a live head;
  // false when it changed, so the caller must look at the front again.
  bool SettleLaneFront(LaneId lane);
  // Rebuilds the heap without dead chain nodes once they exceed half the
  // pending pool, so cancel-heavy workloads (RTO timers under low loss)
  // stay bounded.
  void MaybeCompact();
  void Compact();

  struct FixedLane {
    SimTime delay;
    // Time of the latest push (pushes may not go backwards); starts below
    // every representable time so a fresh lane accepts any first push.
    SimTime tail_at = SimTime::Picos(std::numeric_limits<std::int64_t>::min());
    Ring<LaneEntry> ring;
    std::size_t dead = 0;  // cancelled entries still in the ring
    bool in_heap = false;  // owns one heap entry (possibly a lagging key)
  };
  // In-place removal of a lane's dead entries once they are the majority.
  void CompactLane(FixedLane& lane);

  const LaneEntry* ZeroLaneFront() const {
    return zero_lane_.empty() ? nullptr : &zero_lane_.front();
  }

  std::vector<std::unique_ptr<Slot[]>> slot_blocks_;
  std::vector<std::uint32_t> free_slots_;
  EntryBuf heap_;
  std::vector<Node> nodes_;
  std::uint32_t node_free_ = kNilNode;
  std::unique_ptr<CohortSet[]> cohort_cache_;
  std::uint32_t cohort_rr_ = 0;  // round-robin way replacement cursor
  Ring<LaneEntry> zero_lane_;
  std::vector<FixedLane> lanes_;
  std::uint64_t seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t heap_nodes_ = 0;  // chain nodes linked into the heap (incl. dead)
  std::size_t heap_dead_ = 0;   // dead chain nodes
  std::size_t zero_lane_dead_ = 0;
  Counters counters_;
};

}  // namespace tdtcp
