// Vector-backed FIFO queue.
//
// Every node program keeps a queue Q_v, and at O(1) amortized rounds nearly
// all of them are empty nearly all the time.  A default-constructed Fifo
// owns no heap (std::deque allocates a map and a block up front), so an
// idle node costs only its program object.  Items live in one vector;
// pop_front advances a head index, a drained queue resets to empty (keeping
// its capacity for the next burst), and once the consumed prefix is at
// least half the storage it is dropped, so a queue that never drains still
// holds O(live items).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace dynsub {

template <typename T>
class Fifo {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  Fifo() = default;
  // Move-only; a moved-from Fifo is empty, the head index going with the
  // items.
  Fifo(Fifo&& o) noexcept
      : items_(std::move(o.items_)), head_(std::exchange(o.head_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    items_ = std::move(o.items_);
    head_ = std::exchange(o.head_, 0);
    o.items_.clear();
    return *this;
  }

  void push_back(const T& v) { items_.push_back(v); }
  void push_back(T&& v) { items_.push_back(std::move(v)); }

  [[nodiscard]] const T& front() const {
    DYNSUB_DCHECK(!empty());
    return items_[head_];
  }

  /// Amortized O(1): each compaction moves fewer items than were popped
  /// since the previous one.
  void pop_front() {
    DYNSUB_DCHECK(!empty());
    ++head_;
    compact();
  }

  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }

  /// The i-th queued item, counted from the head.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DYNSUB_DCHECK(i < size());
    return items_[head_ + i];
  }

  [[nodiscard]] const_iterator begin() const {
    return items_.begin() + head();
  }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  /// Erases every queued item matching pred, keeping the order of the
  /// rest; returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    const auto kept =
        std::remove_if(items_.begin() + head(), items_.end(), pred);
    const auto n = static_cast<std::size_t>(items_.end() - kept);
    items_.erase(kept, items_.end());
    compact();
    return n;
  }

 private:
  [[nodiscard]] std::ptrdiff_t head() const {
    return static_cast<std::ptrdiff_t>(head_);
  }

  // Drops the consumed prefix once it is at least half the storage; a
  // drained queue just resets.
  void compact() {
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + head());
      head_ = 0;
    }
  }

  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[0, head_) are consumed
};

}  // namespace dynsub
