#include "reference.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace simbench {

namespace {

// Keeps the kernel's result observable so it is not optimized away.
volatile std::uint64_t g_reference_sink = 0;

}  // namespace

double ReferenceKernelSeconds() {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  // Allocated once: the kernel times computation, not page faults.
  static std::vector<std::uint64_t> table(1 << 17);
  std::vector<Entry> storage;
  storage.reserve(2048);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  std::uint64_t now = 0;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < 1'500'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push({now + (x & 0xfffff), i});
    if (heap.size() > 1024) {
      const Entry top = heap.top();
      heap.pop();
      std::uint64_t& slot = table[(top.first * 0x9e3779b97f4a7c15ull) >> 47];
      slot += top.second;
      now = top.first + (slot & 1);
    }
  }
  g_reference_sink = now;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace simbench
