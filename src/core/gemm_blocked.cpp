// Cache-blocked, register-tiled GEMM — the fast path behind core::gemm.
//
// Classic three-level blocking (GotoBLAS/BLIS structure):
//
//   for jc over N in NC columns          — C/B column panel
//     for kc over K in KC depths         — one packed B panel per (jc, kc)
//       pack B[kc, jc] into NR-wide column micro-panels (zero-padded)
//       for ic over M in MC rows         — parallelised via ThreadPool
//         pack A[ic, kc] into MR-tall row micro-panels (alpha folded in)
//         for jr over NC in NR, ir over MC in MR:
//           8x48 micro-kernel: acc registers, then C += acc
//
// Both operands are packed, so the micro-kernel is a single branch-free loop
// over contiguous memory for all four transpose cases — the transpose only
// changes the gather pattern during packing. Partial edge tiles are packed
// with zero fill and stored back masked, so the hot loop has fixed trip
// counts. With AVX-512 the kernel is written in intrinsics: 24 zmm
// accumulators, three B loads and one A broadcast per depth step. Without it
// the same loop is plain C that the compiler vectorises as it sees fit.
// gemm_packed runs the same loop on a B packed once up front (PackedB).
//
// Determinism contract (tested in tests/test_gemm_parity.cpp): the k
// reduction for any C element is performed by exactly one thread, in
// ascending-k order (KC panels outer, ascending p within each panel), and
// that order is independent of how rows are partitioned across threads.
// Results are therefore bitwise identical across runs, thread counts, and
// chunk boundaries. Per element, each KC panel starts an accumulator at 0,
// applies one fused multiply-add per ascending p, then adds it into C. Both
// micro-kernel paths keep that order (the scalar one through the compiler's
// FMA contraction), so they agree bit for bit and the goldens do not depend
// on which one was compiled in.
#include <algorithm>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/counters.hpp"
#include "core/flags.hpp"
#include "core/tensor.hpp"
#include "core/thread_pool.hpp"

namespace legw::core {

namespace {

// Micro-tile: MR rows x NR columns of C held in registers. NR is three
// 16-float AVX-512 vectors; with MR=8 the accumulator needs 24 vector
// registers, leaving room for B loads and the A broadcast.
constexpr i64 kMr = 8;
constexpr i64 kNr = 48;
// Cache panels: KC x NR slivers of packed B should live in L1 across one
// micro-kernel call; the MC x KC packed A block targets L2; the KC x NC
// packed B panel targets L2/L3.
constexpr i64 kKc = 256;
constexpr i64 kMc = 128;   // multiple of kMr
constexpr i64 kNc = 960;   // multiple of kNr

inline i64 round_up(i64 v, i64 mult) { return (v + mult - 1) / mult * mult; }

// acc = Apanel * Bpanel over kc depths, then C[0:mr, 0:nr] += acc.
// ap: packed A micro-panel, kc x kMr (row index fastest).
// bp: packed B micro-panel, kc x kNr (column index fastest).
#if defined(__AVX512F__)
constexpr i64 kVec = 16;  // floats per zmm register
static_assert(kNr == 3 * kVec, "one C row of the tile is three zmm vectors");

void micro_kernel(i64 kc, const float* __restrict ap, const float* __restrict bp,
                  float* __restrict c, i64 ldc, i64 mr, i64 nr) {
  __m512 acc[kMr][3];
  for (i64 i = 0; i < kMr; ++i)
    for (i64 v = 0; v < 3; ++v) acc[i][v] = _mm512_setzero_ps();
  for (i64 p = 0; p < kc; ++p) {
    const float* brow = bp + p * kNr;
    const float* arow = ap + p * kMr;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + kVec);
    const __m512 b2 = _mm512_loadu_ps(brow + 2 * kVec);
    for (i64 i = 0; i < kMr; ++i) {
      const __m512 av = _mm512_set1_ps(arow[i]);
      acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
      acc[i][2] = _mm512_fmadd_ps(av, b2, acc[i][2]);
    }
  }
  if (mr == kMr && nr == kNr) {
    for (i64 i = 0; i < kMr; ++i) {
      float* ci = c + i * ldc;
      for (i64 v = 0; v < 3; ++v)
        _mm512_storeu_ps(ci + v * kVec,
                         _mm512_add_ps(_mm512_loadu_ps(ci + v * kVec),
                                       acc[i][v]));
    }
    return;
  }
  alignas(64) float tile[kMr][kNr];
  for (i64 i = 0; i < kMr; ++i)
    for (i64 v = 0; v < 3; ++v) _mm512_store_ps(&tile[i][v * kVec], acc[i][v]);
  for (i64 i = 0; i < mr; ++i) {
    float* ci = c + i * ldc;
    for (i64 j = 0; j < nr; ++j) ci[j] += tile[i][j];
  }
}
#else
void micro_kernel(i64 kc, const float* __restrict ap, const float* __restrict bp,
                  float* __restrict c, i64 ldc, i64 mr, i64 nr) {
  float acc[kMr][kNr];
  for (i64 i = 0; i < kMr; ++i)
    for (i64 j = 0; j < kNr; ++j) acc[i][j] = 0.0f;
  for (i64 p = 0; p < kc; ++p) {
    const float* __restrict brow = bp + p * kNr;
    const float* __restrict arow = ap + p * kMr;
    for (i64 i = 0; i < kMr; ++i) {
      const float av = arow[i];
      for (i64 j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  if (mr == kMr && nr == kNr) {
    for (i64 i = 0; i < kMr; ++i) {
      float* ci = c + i * ldc;
      for (i64 j = 0; j < kNr; ++j) ci[j] += acc[i][j];
    }
  } else {
    for (i64 i = 0; i < mr; ++i) {
      float* ci = c + i * ldc;
      for (i64 j = 0; j < nr; ++j) ci[j] += acc[i][j];
    }
  }
}
#endif

// Packs B[kk : kk+kc, jc : jc+nc] (logical indices, after the optional
// transpose) into NR-wide column micro-panels, zero-padding the last panel.
void pack_panel(bool trans_b, const float* b, i64 ldb, i64 kk, i64 jc, i64 kc,
                i64 nc, float* dst) {
  for (i64 jr = 0; jr < nc; jr += kNr) {
    const i64 nr = std::min<i64>(kNr, nc - jr);
    float* panel = dst + jr * kc;
    if (!trans_b) {
      for (i64 p = 0; p < kc; ++p) {
        const float* src = b + (kk + p) * ldb + jc + jr;
        float* out = panel + p * kNr;
        for (i64 j = 0; j < nr; ++j) out[j] = src[j];
        for (i64 j = nr; j < kNr; ++j) out[j] = 0.0f;
      }
    } else {
      // B[p, j] lives at b[j * ldb + p]: walk each source row (contiguous
      // in p) and scatter into the panel.
      for (i64 j = 0; j < nr; ++j) {
        const float* src = b + (jc + jr + j) * ldb + kk;
        for (i64 p = 0; p < kc; ++p) panel[p * kNr + j] = src[p];
      }
      for (i64 j = nr; j < kNr; ++j)
        for (i64 p = 0; p < kc; ++p) panel[p * kNr + j] = 0.0f;
    }
  }
}

// Packs A[ic : ic+mc, kk : kk+kc] into MR-tall row micro-panels with alpha
// folded in, zero-padding the last panel.
void pack_a(bool trans_a, const float* a, i64 lda, i64 ic, i64 kk, i64 mc,
            i64 kc, float alpha, float* dst) {
  for (i64 ir = 0; ir < mc; ir += kMr) {
    const i64 mr = std::min<i64>(kMr, mc - ir);
    float* panel = dst + ir * kc;
    if (!trans_a) {
      for (i64 i = 0; i < mr; ++i) {
        const float* src = a + (ic + ir + i) * lda + kk;
        for (i64 p = 0; p < kc; ++p) panel[p * kMr + i] = alpha * src[p];
      }
    } else {
      // A[i, p] lives at a[p * lda + i]: source rows are contiguous in i.
      for (i64 p = 0; p < kc; ++p) {
        const float* src = a + (kk + p) * lda + ic + ir;
        for (i64 i = 0; i < mr; ++i) panel[p * kMr + i] = alpha * src[i];
      }
    }
    for (i64 i = mr; i < kMr; ++i)
      for (i64 p = 0; p < kc; ++p) panel[p * kMr + i] = 0.0f;
  }
}

// Panels of a PackedB are stored in loop order. Every column block before jc
// is a full kNc wide (a multiple of kNr), so block jc starts at jc * k.
inline i64 panel_offset(i64 jc, i64 kk, i64 k, i64 nc) {
  return jc * k + kk * round_up(nc, kNr);
}

// The one panel loop: B's panels come from `packed` when given, else each
// is packed into the submitting thread's buffer as the loop reaches it.
void blocked_product(bool trans_a, bool trans_b, i64 m, i64 n, i64 k,
                     float alpha, const float* a, i64 lda, const float* b,
                     i64 ldb, const PackedB* packed, float beta, float* c,
                     i64 ldc) {
  LEGW_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  if (m == 0 || n == 0) return;

  if (beta == 0.0f) {
    for (i64 i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
  } else if (beta != 1.0f) {
    for (i64 i = 0; i < m; ++i) {
      float* ci = c + i * ldc;
      for (i64 j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
  if (k == 0 || alpha == 0.0f) return;

  // B pack buffer of the submitting thread, reused across calls and grown
  // only when a larger problem arrives. It is bound to a pointer here, before
  // parallel_for: a thread_local named inside the worker lambda would resolve
  // to each worker's own (unpacked) copy.
  static thread_local std::vector<float> t_bpack;
  const std::size_t bpack_size =
      static_cast<std::size_t>(round_up(std::min(n, kNc), kNr)) *
      static_cast<std::size_t>(std::min(k, kKc));
  if (packed == nullptr && t_bpack.size() < bpack_size) t_bpack.resize(bpack_size);
  float* const bpack = t_bpack.data();

  for (i64 jc = 0; jc < n; jc += kNc) {
    const i64 nc = std::min(kNc, n - jc);
    for (i64 kk = 0; kk < k; kk += kKc) {
      const i64 kc = std::min(kKc, k - kk);
      // Packed by the submitting thread, then shared read-only by workers.
      const float* const panel =
          packed != nullptr ? packed->panels.data() + panel_offset(jc, kk, k, nc)
                            : bpack;
      if (packed == nullptr) pack_panel(trans_b, b, ldb, kk, jc, kc, nc, bpack);

      parallel_for(0, m, kMc, [&](i64 row_begin, i64 row_end) {
        // Per-worker A pack buffer, reused across calls.
        static thread_local std::vector<float> apack;
        apack.resize(static_cast<std::size_t>(round_up(kMc, kMr)) *
                     static_cast<std::size_t>(kc));
        for (i64 ic = row_begin; ic < row_end; ic += kMc) {
          const i64 mc = std::min(kMc, row_end - ic);
          pack_a(trans_a, a, lda, ic, kk, mc, kc, alpha, apack.data());
          for (i64 jr = 0; jr < nc; jr += kNr) {
            const i64 nr = std::min<i64>(kNr, nc - jr);
            for (i64 ir = 0; ir < mc; ir += kMr) {
              const i64 mr = std::min<i64>(kMr, mc - ir);
              micro_kernel(kc, apack.data() + ir * kc, panel + jr * kc,
                           c + (ic + ir) * ldc + jc + jr, ldc, mr, nr);
            }
          }
        }
      });
    }
  }
}

}  // namespace

const char* gemm_micro_kernel() {
#if defined(__AVX512F__)
  return "avx512";
#else
  return "scalar";
#endif
}

void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, float alpha,
                  const float* a, i64 lda, const float* b, i64 ldb, float beta,
                  float* c, i64 ldc) {
  blocked_product(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, nullptr,
                  beta, c, ldc);
}

PackedB pack_b(bool trans_b, i64 n, i64 k, const float* b, i64 ldb) {
  LEGW_CHECK(n >= 0 && k >= 0, "pack_b: negative dimension");
  PackedB p{trans_b, n, k, b, ldb,
            FloatStorage::uninitialized(round_up(n, kNr) * k)};
  for (i64 jc = 0; jc < n; jc += kNc) {
    const i64 nc = std::min(kNc, n - jc);
    for (i64 kk = 0; kk < k; kk += kKc)
      pack_panel(trans_b, b, ldb, kk, jc, std::min(kKc, k - kk), nc,
                 p.panels.data() + panel_offset(jc, kk, k, nc));
  }
  return p;
}

void gemm_packed(bool trans_a, i64 m, float alpha, const float* a, i64 lda,
                 const PackedB& b, float beta, float* c, i64 ldc) {
  if (gemm_kernel() == GemmKernel::kRef) {
    return gemm(trans_a, b.trans_b, m, b.n, b.k, alpha, a, lda, b.src, b.ldb,
                beta, c, ldc);
  }
  bump_dispatch(DispatchCounter::kGemmBlocked);
  blocked_product(trans_a, b.trans_b, m, b.n, b.k, alpha, a, lda, b.src, b.ldb,
                  &b, beta, c, ldc);
}

}  // namespace legw::core
