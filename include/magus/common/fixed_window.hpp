#pragma once
// FixedWindow<T>: a fixed-capacity FIFO sliding window.
//
// This is the data structure behind the paper's `mem_throughput_ls` and
// `uncore_tune_ls` queues (Algorithm 3): pushing into a full window evicts
// the oldest element, so the window always holds the most recent N samples
// once warmed up.
//
// Storage is a ring over one buffer allocated at construction: push is O(1)
// and never allocates. Every read (indexing, iteration, sum) runs oldest to
// newest, so floating-point sums keep the order of a plain FIFO and stay
// bit-exact.

#include <cassert>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace magus::common {

template <typename T>
class FixedWindow {
 public:
  /// Forward iterator, oldest to newest.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const FixedWindow* window, std::size_t i) : window_(window), i_(i) {}
    reference operator*() const { return (*window_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const FixedWindow* window_;
    std::size_t i_;
  };

  explicit FixedWindow(std::size_t capacity) : data_(checked(capacity)) {}

  /// Construct pre-filled with `capacity` copies of `fill` (the paper seeds
  /// `uncore_tune_ls` with 10 zeros before MDFS engages).
  FixedWindow(std::size_t capacity, const T& fill) : data_(checked(capacity), fill) {
    size_ = capacity;
  }

  /// Append a sample; evicts the oldest sample when full.
  void push(const T& v) {
    std::size_t slot = head_ + size_;
    if (slot >= data_.size()) slot -= data_.size();
    data_[slot] = v;
    if (size_ == data_.size()) {
      head_ = head_ + 1 == data_.size() ? 0 : head_ + 1;
    } else {
      ++size_;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.size(); }
  [[nodiscard]] bool full() const noexcept { return size_ == data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] const T& oldest() const {
    if (empty()) throw std::out_of_range("FixedWindow::oldest on empty window");
    return (*this)[0];
  }
  [[nodiscard]] const T& newest() const {
    if (empty()) throw std::out_of_range("FixedWindow::newest on empty window");
    return (*this)[size_ - 1];
  }

  /// Element access, index 0 == oldest.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    std::size_t slot = head_ + i;
    if (slot >= data_.size()) slot -= data_.size();
    return data_[slot];
  }

  [[nodiscard]] T sum() const {
    T total{};
    for (const T& v : *this) total = total + v;
    return total;
  }

  [[nodiscard]] double mean() const {
    if (empty()) return 0.0;
    return static_cast<double>(sum()) / static_cast<double>(size_);
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Reset to `capacity` copies of `fill`.
  void fill(const T& v) {
    data_.assign(data_.size(), v);
    head_ = 0;
    size_ = data_.size();
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

 private:
  static std::size_t checked(std::size_t capacity) {
    if (capacity == 0) throw std::invalid_argument("FixedWindow capacity must be > 0");
    return capacity;
  }

  std::vector<T> data_;    ///< ring buffer, sized to the capacity
  std::size_t head_ = 0;   ///< slot of the oldest element
  std::size_t size_ = 0;
};

}  // namespace magus::common
