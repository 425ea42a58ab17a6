// Sorted-vector set and map.
//
// Node-local algorithm state is audited against the oracle after every round,
// so deterministic iteration order matters; sorted vectors give that plus
// cache-friendly scans for the small per-node sets the algorithms keep.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace dynsub {

/// A set over a totally ordered value type, stored as a sorted vector.
template <typename T>
class FlatSet {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  /// Bulk-build: sorts `items`, drops duplicates, adopts the storage.
  /// O(k log k) versus O(k^2) element shifts for k element-wise inserts.
  [[nodiscard]] static FlatSet from_unsorted(std::vector<T> items) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    FlatSet s;
    s.data_ = std::move(items);
    return s;
  }

  void reserve(std::size_t n) { data_.reserve(n); }

  [[nodiscard]] bool contains(const T& v) const {
    return std::binary_search(data_.begin(), data_.end(), v);
  }

  /// Inserts v; returns true when it was not already present.
  bool insert(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it != data_.end() && *it == v) return false;
    data_.insert(it, v);
    return true;
  }

  /// Erases v; returns true when it was present.
  bool erase(const T& v) {
    auto it = std::lower_bound(data_.begin(), data_.end(), v);
    if (it == data_.end() || !(*it == v)) return false;
    data_.erase(it);
    return true;
  }

  /// Erases every element matching pred; returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto it = std::remove_if(data_.begin(), data_.end(), pred);
    const auto n = static_cast<std::size_t>(data_.end() - it);
    data_.erase(it, data_.end());
    return n;
  }

  /// Erases every element of [lo, hi) matching pred, calling pred once per
  /// element of that range and on no other; returns the number erased.
  template <typename Pred>
  std::size_t erase_if(const T& lo, const T& hi, Pred pred) {
    const auto first = std::lower_bound(data_.begin(), data_.end(), lo);
    const auto last = std::lower_bound(first, data_.end(), hi);
    const auto kept = std::remove_if(first, last, pred);
    const auto n = static_cast<std::size_t>(last - kept);
    data_.erase(kept, last);
    return n;
  }

  void clear() { data_.clear(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] const_iterator begin() const { return data_.begin(); }
  [[nodiscard]] const_iterator end() const { return data_.end(); }
  [[nodiscard]] const std::vector<T>& values() const { return data_; }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  std::vector<T> data_;
};

/// A map over a totally ordered key type, stored as a sorted vector of pairs.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;
  using iterator = typename std::vector<value_type>::iterator;

  /// Bulk-build: stable-sorts `items` by key, keeps the *first* entry of
  /// each duplicate key, adopts the storage.  O(k log k) versus O(k^2)
  /// element shifts for k element-wise inserts.
  [[nodiscard]] static FlatMap from_unsorted(std::vector<value_type> items) {
    std::stable_sort(items.begin(), items.end(),
                     [](const value_type& a, const value_type& b) {
                       return a.first < b.first;
                     });
    items.erase(std::unique(items.begin(), items.end(),
                            [](const value_type& a, const value_type& b) {
                              return a.first == b.first;
                            }),
                items.end());
    FlatMap m;
    m.data_ = std::move(items);
    return m;
  }

  void reserve(std::size_t n) { data_.reserve(n); }

  /// The sorted backing storage (for bulk consumers).
  [[nodiscard]] const std::vector<value_type>& values() const { return data_; }
  /// Moves the sorted backing storage out (leaves the map empty).
  [[nodiscard]] std::vector<value_type> take_values() && {
    return std::move(data_);
  }

  [[nodiscard]] bool contains(const K& k) const { return find(k) != end(); }

  [[nodiscard]] const_iterator find(const K& k) const {
    auto it = lower_bound(k);
    if (it != data_.end() && it->first == k) return it;
    return data_.end();
  }

  [[nodiscard]] iterator find(const K& k) {
    auto it = lower_bound_mut(k);
    if (it != data_.end() && it->first == k) return it;
    return data_.end();
  }

  /// Returns the mapped value, inserting a default-constructed one if absent.
  V& operator[](const K& k) {
    auto it = lower_bound_mut(k);
    if (it == data_.end() || !(it->first == k)) {
      it = data_.insert(it, {k, V{}});
    }
    return it->second;
  }

  /// Inserts (k, v) if absent; returns {iterator, inserted}.
  std::pair<iterator, bool> try_emplace(const K& k, V v) {
    auto it = lower_bound_mut(k);
    if (it != data_.end() && it->first == k) return {it, false};
    it = data_.insert(it, {k, std::move(v)});
    return {it, true};
  }

  bool erase(const K& k) {
    auto it = lower_bound_mut(k);
    if (it == data_.end() || !(it->first == k)) return false;
    data_.erase(it);
    return true;
  }

  iterator erase(iterator it) { return data_.erase(it); }

  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    auto it = std::remove_if(data_.begin(), data_.end(), pred);
    const auto n = static_cast<std::size_t>(data_.end() - it);
    data_.erase(it, data_.end());
    return n;
  }

  void clear() { data_.clear(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] const_iterator begin() const { return data_.begin(); }
  [[nodiscard]] const_iterator end() const { return data_.end(); }
  [[nodiscard]] iterator begin() { return data_.begin(); }
  [[nodiscard]] iterator end() { return data_.end(); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  [[nodiscard]] const_iterator lower_bound(const K& k) const {
    return std::lower_bound(
        data_.begin(), data_.end(), k,
        [](const value_type& a, const K& b) { return a.first < b; });
  }
  [[nodiscard]] iterator lower_bound_mut(const K& k) {
    return std::lower_bound(
        data_.begin(), data_.end(), k,
        [](const value_type& a, const K& b) { return a.first < b; });
  }

  std::vector<value_type> data_;
};

}  // namespace dynsub
