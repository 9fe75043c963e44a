// Tensor storage: a flat float buffer on the counted heap (mem/alloc.hpp).
//
// Replaces std::vector<float> as Tensor's backing store. Semantics are the
// same (owning, value-semantic, zero-filled by the sized constructor); the
// difference is where the bytes come from: mem::heap_alloc, which aligns
// every buffer to mem::kAlignment and counts allocations and live/peak bytes.
#pragma once

#include <cstddef>

#include "core/common.hpp"

namespace legw::core {

class FloatStorage {
 public:
  FloatStorage() = default;
  // n zero-filled floats (matches std::vector value-initialisation).
  explicit FloatStorage(i64 n) : FloatStorage(n, 0.0f) {}
  FloatStorage(i64 n, float fill);
  // n floats of UNSPECIFIED content. Only for callers that provably
  // overwrite every element before any read (matmul's output, transposes,
  // random fills).
  static FloatStorage uninitialized(i64 n);

  FloatStorage(const FloatStorage& o);
  FloatStorage(FloatStorage&& o) noexcept;
  FloatStorage& operator=(const FloatStorage& o);
  FloatStorage& operator=(FloatStorage&& o) noexcept;
  ~FloatStorage() { release(); }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  i64 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  float* begin() { return ptr_; }
  float* end() { return ptr_ + size_; }
  const float* begin() const { return ptr_; }
  const float* end() const { return ptr_ + size_; }
  float& operator[](std::size_t i) { return ptr_[i]; }
  float operator[](std::size_t i) const { return ptr_[i]; }

 private:
  void allocate(i64 n);
  void release();

  float* ptr_ = nullptr;
  i64 size_ = 0;
};

}  // namespace legw::core
