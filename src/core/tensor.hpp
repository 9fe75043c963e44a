// Dense float32 tensor.
//
// The library deliberately keeps the tensor minimal: contiguous row-major
// storage, value semantics (copies copy data, moves are cheap), and shape
// checked arithmetic. Views/strides are not needed by the models in this
// repo; the few ops that would want them (transpose, slicing) materialise
// their result instead, which keeps every kernel a flat loop over contiguous
// memory — the friendliest possible layout for the vectoriser.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/rng.hpp"
#include "core/storage.hpp"

namespace legw::core {

using Shape = std::vector<i64>;

i64 shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> values);

  // Copies/moves preserve value semantics; the *assignment* forms bump the
  // mutation version (see version()) because they overwrite existing
  // contents — that is what lets the autograd graph validator catch "tensor
  // reassigned after graph capture".
  Tensor(const Tensor&) = default;
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(const Tensor& o) {
    shape_ = o.shape_;
    data_ = o.data_;
    ++version_;
    return *this;
  }
  Tensor& operator=(Tensor&& o) noexcept {
    shape_ = std::move(o.shape_);
    data_ = std::move(o.data_);
    ++version_;
    return *this;
  }

  // --- construction helpers -------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  // Storage with UNSPECIFIED contents (fresh heap bytes, possibly a freed
  // tensor's). Strictly for producers that overwrite every element before
  // any read.
  static Tensor uninit(Shape shape);
  // i.i.d. N(mean, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      float mean = 0.0f);
  // i.i.d. U[lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo = 0.0f,
                             float hi = 1.0f);

  // --- shape ----------------------------------------------------------------
  const Shape& shape() const { return shape_; }
  i64 dim() const { return static_cast<i64>(shape_.size()); }
  i64 size(i64 d) const;
  i64 numel() const { return static_cast<i64>(data_.size()); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  // Returns a tensor sharing no storage with this one but holding the same
  // data reinterpreted under `shape` (numel must match).
  Tensor reshape(Shape shape) const;

  // --- element access -------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  // Unchecked in normal builds (these ARE the hot path); bounds-checked when
  // the LEGW_CHECKED CMake option is on.
  float& operator[](i64 i) {
#ifdef LEGW_CHECKED_BUILD
    LEGW_CHECK(i >= 0 && i < numel(),
               "Tensor[] index out of bounds: " + std::to_string(i) + " in " +
                   shape_to_string(shape_));
#endif
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](i64 i) const {
#ifdef LEGW_CHECKED_BUILD
    LEGW_CHECK(i >= 0 && i < numel(),
               "Tensor[] index out of bounds: " + std::to_string(i) + " in " +
                   shape_to_string(shape_));
#endif
    return data_[static_cast<std::size_t>(i)];
  }
  // Checked 2-D / 3-D accessors, for tests and cold paths.
  float& at(i64 i, i64 j);
  float at(i64 i, i64 j) const;
  float& at(i64 i, i64 j, i64 k);
  float at(i64 i, i64 j, i64 k) const;

  // --- arithmetic (shape-checked, allocating) --------------------------------
  Tensor operator+(const Tensor& o) const;
  Tensor operator-(const Tensor& o) const;
  Tensor operator*(const Tensor& o) const;  // elementwise
  Tensor operator*(float s) const;
  Tensor operator+(float s) const;

  // --- in-place -------------------------------------------------------------
  Tensor& add_(const Tensor& o);
  Tensor& add_(const Tensor& o, float scale);  // this += scale * o
  Tensor& sub_(const Tensor& o);
  Tensor& mul_(const Tensor& o);
  Tensor& scale_(float s);
  Tensor& fill_(float v);
  Tensor& zero_() { return fill_(0.0f); }

  // --- mutation tracking ------------------------------------------------------
  // Monotonic counter bumped by the named in-place mutators, by assignment,
  // and by ag::Variable::mutable_value(). The autograd layer records parent
  // versions at graph-capture time so check::lint_graph (and backward, in
  // checked mode) can detect in-place mutation of a tensor after the graph
  // captured it. Raw writes through data()/operator[] are deliberately NOT
  // tracked — they are the per-element hot path.
  u32 version() const { return version_; }
  void bump_version() { ++version_; }

  // No-op kept only for perfbench's training replays; goes with them.
  Tensor& rehome_() { return *this; }

  // --- reductions / norms ----------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  // Euclidean norm, accumulated in double for stability.
  float l2_norm() const;

  // Materialised 2-D transpose.
  Tensor transposed_2d() const;

  std::string to_string(i64 max_elems = 32) const;

 private:
  Shape shape_;
  FloatStorage data_;
  u32 version_ = 0;
};

Tensor operator*(float s, const Tensor& t);

// C[m,n] = A[m,k] (or A^T) times B[k,n] (or B^T), accumulated into
// beta*C + alpha*A*B. Parallelised over row blocks of C.
//
// gemm() dispatches on core::gemm_kernel() (LEGW_KERNEL env / programmatic
// override) between the two implementations below. Both honour the same
// determinism contract: the reduction over k for any C element is performed
// by a single thread in ascending-k order, so results are bitwise identical
// across repeated runs, thread counts, and row-partition boundaries.
void gemm(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, float alpha,
          const float* a, i64 lda, const float* b, i64 ldb, float beta,
          float* c, i64 ldc);

// Scalar row-kernel reference implementation. Always correct, never tuned;
// the parity oracle for gemm_blocked.
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, float alpha,
              const float* a, i64 lda, const float* b, i64 ldb, float beta,
              float* c, i64 ldc);

// Cache-blocked (MC/KC/NC panels), register-tiled (8x48 micro-kernel) fast
// path with packed operands; covers all four transpose cases. Defined in
// gemm_blocked.cpp; see docs/KERNELS.md for the blocking scheme.
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, float alpha,
                  const float* a, i64 lda, const float* b, i64 ldb, float beta,
                  float* c, i64 ldc);

// The micro-kernel gemm_blocked was compiled with: "avx512" (explicit 512-bit
// intrinsics, when the target has AVX-512F) or "scalar" (the portable loop).
const char* gemm_micro_kernel();

// Tensor-level matmul: a is [m,k], b is [k,n] after optional transposes.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

}  // namespace legw::core
