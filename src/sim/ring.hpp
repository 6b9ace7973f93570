// Ring<T>: a power-of-two circular FIFO over one contiguous buffer.
//
// The one queue type the simulator's FIFOs share: the event core's
// zero-delay and fixed-delay lanes, a TCP connection's retransmission queue
// and its pending application bytes. Unlike std::deque it allocates
// nothing until the first push and nothing in steady state: the buffer
// only grows (doubling, re-linearized, at least kMinCapacity entries), so a
// FIFO that slides through many elements at a bounded depth stops touching
// the heap once it has seen that depth. Indexing and iteration run front to
// back. Growth invalidates references, like std::vector's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace tdtcp {

template <typename T>
class Ring {
 public:
  static constexpr std::size_t kMinCapacity = 8;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return (*this)[count_ - 1]; }
  const T& back() const { return (*this)[count_ - 1]; }

  void push_back(const T& v) { Slot() = v; }
  void push_back(T&& v) { Slot() = std::move(v); }
  // The vacated slot keeps its (moved-from or stale) value until reused.
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  // Keeps the buffer.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

  // Stable in-place removal; returns how many entries were removed.
  template <typename Pred>
  std::size_t RemoveIf(Pred dead) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < count_; ++r) {
      if (dead(std::as_const((*this)[r]))) continue;
      if (w != r) (*this)[w] = std::move((*this)[r]);
      ++w;
    }
    const std::size_t removed = count_ - w;
    count_ = w;
    return removed;
  }

  template <typename R, typename V>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = V*;
    using reference = V&;

    Iter() = default;
    Iter(R* ring, std::size_t i) : ring_(ring), i_(i) {}
    V& operator*() const { return (*ring_)[i_]; }
    V* operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    R* ring_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<Ring, T>;
  using const_iterator = Iter<const Ring, const T>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, count_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, count_}; }

 private:
  // The slot behind the back, counted in.
  T& Slot() {
    if (count_ == buf_.size()) Grow();
    return buf_[(head_ + count_++) & (buf_.size() - 1)];
  }
  void Grow() {
    std::vector<T> bigger(std::max(kMinCapacity, buf_.size() * 2));
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tdtcp
