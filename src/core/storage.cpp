#include "core/storage.hpp"

#include <algorithm>
#include <cstring>

#include "mem/alloc.hpp"

namespace legw::core {

void FloatStorage::allocate(i64 n) {
  LEGW_DCHECK(ptr_ == nullptr, "FloatStorage: allocate over live storage");
  if (n <= 0) return;
  ptr_ = static_cast<float*>(
      mem::heap_alloc(n * static_cast<i64>(sizeof(float))));
  size_ = n;
}

void FloatStorage::release() {
  if (ptr_ == nullptr) return;
  mem::heap_free(ptr_, size_ * static_cast<i64>(sizeof(float)));
  ptr_ = nullptr;
  size_ = 0;
}

FloatStorage::FloatStorage(i64 n, float fill) {
  allocate(n);
  std::fill(ptr_, ptr_ + size_, fill);
}

FloatStorage FloatStorage::uninitialized(i64 n) {
  FloatStorage s;
  s.allocate(n);
  return s;
}

FloatStorage::FloatStorage(const FloatStorage& o) {
  allocate(o.size_);
  if (size_ > 0) {
    std::memcpy(ptr_, o.ptr_, static_cast<std::size_t>(size_) * sizeof(float));
  }
}

FloatStorage::FloatStorage(FloatStorage&& o) noexcept
    : ptr_(o.ptr_), size_(o.size_) {
  o.ptr_ = nullptr;
  o.size_ = 0;
}

FloatStorage& FloatStorage::operator=(const FloatStorage& o) {
  if (this == &o) return *this;
  if (size_ != o.size_) {
    release();
    allocate(o.size_);
  }
  if (size_ > 0) {
    std::memcpy(ptr_, o.ptr_, static_cast<std::size_t>(size_) * sizeof(float));
  }
  return *this;
}

FloatStorage& FloatStorage::operator=(FloatStorage&& o) noexcept {
  if (this == &o) return *this;
  release();
  ptr_ = o.ptr_;
  size_ = o.size_;
  o.ptr_ = nullptr;
  o.size_ = 0;
  return *this;
}

}  // namespace legw::core
