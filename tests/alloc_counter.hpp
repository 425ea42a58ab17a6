// Counting replacement of the global operator new, for tests that assert
// how many heap allocations an operation makes and how many bytes it
// requests.
//
// Include it from exactly one source file of a test binary: it defines the
// replaceable global allocation functions, so the whole binary allocates
// through them.  Every unaligned form is replaced, so no new/delete pair
// mixes these with a sanitizer runtime's own; they forward to malloc/free,
// which keeps the sanitizer builds' allocation checks intact.  They stay
// out of line, so no caller sees a new-expression paired with a bare
// free().  Over-aligned allocations are neither replaced nor counted.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace dynsub::testing {

inline std::atomic<bool> counting_allocations{false};
inline std::atomic<std::size_t> counted_allocations{0};
inline std::atomic<std::size_t> counted_bytes{0};

/// Counts the global operator new calls made, on any thread, while it is
/// alive, and totals the bytes they request.
class AllocationCounter {
 public:
  AllocationCounter() {
    counted_allocations.store(0);
    counted_bytes.store(0);
    counting_allocations.store(true);
  }
  ~AllocationCounter() { counting_allocations.store(false); }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  [[nodiscard]] std::size_t count() const {
    return counted_allocations.load();
  }
  /// Bytes requested (not the allocator's rounded-up chunk sizes).
  [[nodiscard]] std::size_t bytes() const { return counted_bytes.load(); }
};

inline void* counted_malloc(std::size_t size) noexcept {
  if (counting_allocations.load(std::memory_order_relaxed)) {
    counted_allocations.fetch_add(1, std::memory_order_relaxed);
    counted_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace dynsub::testing

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = dynsub::testing::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = dynsub::testing::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return dynsub::testing::counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return dynsub::testing::counted_malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
