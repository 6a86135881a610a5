#ifndef DEEPST_UTIL_SPAN_H_
#define DEEPST_UTIL_SPAN_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace deepst {
namespace util {

// Minimal read-only view over a contiguous array. The roadnet layer hands
// these out instead of `const std::vector<T>&` so the backing storage can be
// either heap-owned or a struct view straight into an mmap'ed format-v3
// file (docs/formats.md) without the call sites caring.
template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(const T* data, size_t size) : data_(data), size_(size) {}
  // Implicit, so existing vector-producing code keeps working at call sites
  // that accept a Span.
  Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

template <typename T>
bool operator==(Span<T> a, Span<T> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

template <typename T>
bool operator!=(Span<T> a, Span<T> b) {
  return !(a == b);
}

template <typename T>
bool operator==(Span<T> a, const std::vector<T>& b) {
  return a == Span<T>(b);
}

template <typename T>
bool operator==(const std::vector<T>& a, Span<T> b) {
  return Span<T>(a) == b;
}

// Array storage that is either owned (a std::vector filled during
// construction) or borrowed (a pointer into externally kept-alive memory,
// e.g. an mmap'ed file). RoadNetwork and SpatialIndex store their flat
// sections through this so the same query code runs over both.
template <typename T>
class ArrayView {
 public:
  ArrayView() = default;

  // Owned-mode views must re-point at their own copy of the vector; borrowed
  // views just share the external pointer.
  ArrayView(const ArrayView& o) { *this = o; }
  ArrayView& operator=(const ArrayView& o) {
    if (this == &o) return *this;
    owned_ = o.owned_;
    if (o.data_ == nullptr) {
      // Still under construction: stay unfrozen.
      data_ = nullptr;
      size_ = 0;
    } else if (o.owned()) {
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      data_ = o.data_;
      size_ = o.size_;
    }
    return *this;
  }
  ArrayView(ArrayView&& o) noexcept { *this = std::move(o); }
  ArrayView& operator=(ArrayView&& o) noexcept {
    if (this == &o) return *this;
    const bool unfrozen = o.data_ == nullptr;
    const bool was_owned = o.owned();
    owned_ = std::move(o.owned_);
    if (unfrozen) {
      data_ = nullptr;
      size_ = 0;
    } else if (was_owned) {
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      data_ = o.data_;
      size_ = o.size_;
    }
    o.owned_.clear();
    o.data_ = nullptr;
    o.size_ = 0;
    return *this;
  }

  // Owned mode: mutate through vec() while building, then Freeze().
  std::vector<T>& vec() { return owned_; }
  void Freeze() {
    data_ = owned_.data();
    size_ = owned_.size();
  }

  // Borrowed mode: the caller guarantees [data, data + size) outlives this.
  void Adopt(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
  }

  const T* data() const { return data_; }
  // Before Freeze()/Adopt(), reports the size of the vector under
  // construction so counting queries work mid-build.
  size_t size() const { return data_ != nullptr ? size_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  Span<T> span() const { return Span<T>(data_, size_); }
  bool owned() const { return size_ == 0 || data_ == owned_.data(); }

 private:
  std::vector<T> owned_;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace util
}  // namespace deepst

#endif  // DEEPST_UTIL_SPAN_H_
