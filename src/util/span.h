#ifndef USJ_UTIL_SPAN_H_
#define USJ_UTIL_SPAN_H_

#include <cstddef>
#include <type_traits>
#include <vector>

namespace sj {

/// Minimal C++17 stand-in for std::span<const T>: a non-owning view of a
/// contiguous sequence. Only the operations the library needs.
template <typename T>
class Span {
  static_assert(std::is_const_v<T>,
                "sj::Span is read-only; instantiate with a const element type");
  using Elem = std::remove_const_t<T>;

 public:
  constexpr Span() = default;
  /// Explicit, so a braced list such as {ObjectId{0}, ObjectId{9}} cannot
  /// silently become (nullptr, 9): pass a named array or a vector.
  constexpr explicit Span(const Elem* data, size_t size)
      : data_(data), size_(size) {}
  Span(const std::vector<Elem>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  constexpr const Elem* begin() const { return data_; }
  constexpr const Elem* end() const { return data_ + size_; }
  constexpr const Elem* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr const Elem& operator[](size_t i) const { return data_[i]; }

 private:
  const Elem* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sj

#endif  // USJ_UTIL_SPAN_H_
