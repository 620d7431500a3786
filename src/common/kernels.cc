#include "common/kernels.h"

#include <cstdlib>
#include <cstring>
#include <limits>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define VIPTREE_KERNELS_X86 1
#include <immintrin.h>
#else
#define VIPTREE_KERNELS_X86 0
#endif

namespace viptree {
namespace kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scalar reference paths. These are the semantics: simple strict-compare
// loops the compiler can autovectorize, written to match the historical
// hand-rolled loops in knn_query.cc / distance_query.cc bit-for-bit.
// ---------------------------------------------------------------------------

void MinPlusRowScalar(double* best, const double* row, double add, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double cand = add + row[i];
    if (cand < best[i]) best[i] = cand;
  }
}

double RowMinScalar(const double* v, size_t n) {
  double best = kInf;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < best) best = v[i];
  }
  return best;
}

size_t RowArgMinScalar(const double* v, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

void MinPlusGatherF32Scalar(double* best, const float* row,
                            const int32_t* idx, double add, size_t n) {
  for (size_t c = 0; c < n; ++c) {
    const double cand = add + row[idx[c]];
    if (cand < best[c]) best[c] = cand;
  }
}

void MinPlusGatherArgF32Scalar(double* best, int32_t* best_src, int32_t tag,
                               const float* row, const int32_t* idx,
                               double add, size_t n) {
  for (size_t c = 0; c < n; ++c) {
    const double cand = add + row[idx[c]];
    if (cand < best[c]) {
      best[c] = cand;
      best_src[c] = tag;
    }
  }
}

double JoinMinIndexedF32Scalar(double base, const float* row,
                               const int32_t* idx, const double* addend,
                               size_t n) {
  double best = kInf;
  for (size_t j = 0; j < n; ++j) {
    const double cand = (base + row[idx[j]]) + addend[j];
    if (cand < best) best = cand;
  }
  return best;
}

size_t FilterLeqScalar(const double* v, size_t n, double radius,
                       int32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] <= radius) out[k++] = static_cast<int32_t>(i);
  }
  return k;
}

#if VIPTREE_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2 paths. Every min update is a cmp(LT) + blend — not minpd — so lane
// semantics are exactly the scalar `cand < best ? cand : best`, including
// the first-wins behaviour on equal candidates. All loads are unaligned;
// rows aliased out of an 8-aligned snapshot arena are as legal as the
// 64-aligned owning buffers.
// ---------------------------------------------------------------------------

// Compacts a 4x64-bit compare mask into the low 4x32-bit lanes (for
// blending int32 tag arrays against a double compare).
__attribute__((target("avx2"))) inline __m128i Mask64To32(__m256d mask) {
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), perm));
}

// Four row cells picked by idx[c..c+3], as scalar loads. Measured faster
// than the vpgatherdps hardware gather at every size on current Intel and
// AMD server parts (the gather microcodes to the same loads plus overhead);
// values are identical either way.
__attribute__((target("avx2"))) inline __m128 Gather4(const float* row,
                                                      const int32_t* idx,
                                                      size_t c) {
  return _mm_setr_ps(row[idx[c]], row[idx[c + 1]], row[idx[c + 2]],
                     row[idx[c + 3]]);
}

__attribute__((target("avx2"))) void MinPlusRowAvx2(double* best,
                                                    const double* row,
                                                    double add, size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d cand = _mm256_add_pd(vadd, _mm256_loadu_pd(row + i));
    const __m256d b = _mm256_loadu_pd(best + i);
    const __m256d lt = _mm256_cmp_pd(cand, b, _CMP_LT_OQ);
    _mm256_storeu_pd(best + i, _mm256_blendv_pd(b, cand, lt));
  }
  for (; i < n; ++i) {
    const double cand = add + row[i];
    if (cand < best[i]) best[i] = cand;
  }
}

__attribute__((target("avx2"))) double RowMinAvx2(const double* v, size_t n) {
  if (n < 4) return RowMinScalar(v, n);
  __m256d acc = _mm256_loadu_pd(v);
  size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const __m256d lt = _mm256_cmp_pd(x, acc, _CMP_LT_OQ);
    acc = _mm256_blendv_pd(acc, x, lt);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double best = lanes[0];
  for (int k = 1; k < 4; ++k) {
    if (lanes[k] < best) best = lanes[k];
  }
  for (; i < n; ++i) {
    if (v[i] < best) best = v[i];
  }
  return best;
}

__attribute__((target("avx2"))) size_t RowArgMinAvx2(const double* v,
                                                     size_t n) {
  if (n < 8) return RowArgMinScalar(v, n);
  // Two passes: the value of the minimum, then the first position holding
  // it. Equal doubles (no -0.0 in distance data) are bit-identical, so an
  // exact-equality scan finds precisely the scalar argmin.
  const double m = RowMinAvx2(v, n);
  const __m256d vm = _mm256_set1_pd(m);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + i), vm,
                                         _CMP_EQ_OQ));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < n; ++i) {
    if (v[i] == m) return i;
  }
  return n - 1;  // unreachable for n > 0
}

__attribute__((target("avx2"))) void MinPlusGatherF32Avx2(
    double* best, const float* row, const int32_t* idx, double add,
    size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d cand =
        _mm256_add_pd(vadd, _mm256_cvtps_pd(Gather4(row, idx, c)));
    const __m256d b = _mm256_loadu_pd(best + c);
    const __m256d lt = _mm256_cmp_pd(cand, b, _CMP_LT_OQ);
    _mm256_storeu_pd(best + c, _mm256_blendv_pd(b, cand, lt));
  }
  for (; c < n; ++c) {
    const double cand = add + row[idx[c]];
    if (cand < best[c]) best[c] = cand;
  }
}

__attribute__((target("avx2"))) void MinPlusGatherArgF32Avx2(
    double* best, int32_t* best_src, int32_t tag, const float* row,
    const int32_t* idx, double add, size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  const __m128i vtag = _mm_set1_epi32(tag);
  size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d cand =
        _mm256_add_pd(vadd, _mm256_cvtps_pd(Gather4(row, idx, c)));
    const __m256d b = _mm256_loadu_pd(best + c);
    const __m256d lt = _mm256_cmp_pd(cand, b, _CMP_LT_OQ);
    _mm256_storeu_pd(best + c, _mm256_blendv_pd(b, cand, lt));
    const __m128i m32 = Mask64To32(lt);
    const __m128i src =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(best_src + c));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(best_src + c),
                     _mm_blendv_epi8(src, vtag, m32));
  }
  for (; c < n; ++c) {
    const double cand = add + row[idx[c]];
    if (cand < best[c]) {
      best[c] = cand;
      best_src[c] = tag;
    }
  }
}

__attribute__((target("avx2"))) double JoinMinIndexedF32Avx2(
    double base, const float* row, const int32_t* idx, const double* addend,
    size_t n) {
  const __m256d vbase = _mm256_set1_pd(base);
  __m256d acc = _mm256_set1_pd(kInf);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d cand = _mm256_add_pd(
        _mm256_add_pd(vbase, _mm256_cvtps_pd(Gather4(row, idx, j))),
        _mm256_loadu_pd(addend + j));
    const __m256d lt = _mm256_cmp_pd(cand, acc, _CMP_LT_OQ);
    acc = _mm256_blendv_pd(acc, cand, lt);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double best = lanes[0];
  for (int k = 1; k < 4; ++k) {
    if (lanes[k] < best) best = lanes[k];
  }
  for (; j < n; ++j) {
    const double cand = (base + row[idx[j]]) + addend[j];
    if (cand < best) best = cand;
  }
  return best;
}

__attribute__((target("avx2"))) size_t FilterLeqAvx2(const double* v,
                                                     size_t n, double radius,
                                                     int32_t* out) {
  const __m256d vr = _mm256_set1_pd(radius);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), vr, _CMP_LE_OQ));
    while (mask != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(mask));
      out[k++] = static_cast<int32_t>(i + static_cast<size_t>(bit));
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (v[i] <= radius) out[k++] = static_cast<int32_t>(i);
  }
  return k;
}

#endif  // VIPTREE_KERNELS_X86

// ---------------------------------------------------------------------------
// Runtime dispatch: one function-pointer table selected at first use.
// ---------------------------------------------------------------------------

struct KernelTable {
  void (*min_plus_row)(double*, const double*, double, size_t);
  double (*row_min)(const double*, size_t);
  size_t (*row_arg_min)(const double*, size_t);
  void (*min_plus_gather_f32)(double*, const float*, const int32_t*, double,
                              size_t);
  void (*min_plus_gather_arg_f32)(double*, int32_t*, int32_t, const float*,
                                  const int32_t*, double, size_t);
  double (*join_min_indexed_f32)(double, const float*, const int32_t*,
                                 const double*, size_t);
  size_t (*filter_leq)(const double*, size_t, double, int32_t*);
  const char* name;
};

constexpr KernelTable kScalarTable = {
    MinPlusRowScalar,       RowMinScalar,
    RowArgMinScalar,        MinPlusGatherF32Scalar,
    MinPlusGatherArgF32Scalar, JoinMinIndexedF32Scalar,
    FilterLeqScalar,        "scalar"};

#if VIPTREE_KERNELS_X86
constexpr KernelTable kAvx2Table = {
    MinPlusRowAvx2,       RowMinAvx2,
    RowArgMinAvx2,        MinPlusGatherF32Avx2,
    MinPlusGatherArgF32Avx2, JoinMinIndexedF32Avx2,
    FilterLeqAvx2,        "avx2"};
#endif

const KernelTable* BestTable() {
#if VIPTREE_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return &kAvx2Table;
#endif
  return &kScalarTable;
}

bool ScalarForcedByEnv() {
  const char* e = std::getenv("VIPTREE_FORCE_SCALAR");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

// Mutable so ForceScalarForTest can repoint it; selected once at first
// kernel call (reads the VIPTREE_FORCE_SCALAR environment variable).
const KernelTable*& ActiveTable() {
  static const KernelTable* table =
      ScalarForcedByEnv() ? &kScalarTable : BestTable();
  return table;
}

}  // namespace

void MinPlusRow(double* best, const double* row, double add, size_t n) {
  ActiveTable()->min_plus_row(best, row, add, n);
}

double RowMin(const double* v, size_t n) {
  return ActiveTable()->row_min(v, n);
}

size_t RowArgMin(const double* v, size_t n) {
  return ActiveTable()->row_arg_min(v, n);
}

void MinPlusGatherF32(double* best, const float* row, const int32_t* idx,
                      double add, size_t n) {
  ActiveTable()->min_plus_gather_f32(best, row, idx, add, n);
}

void MinPlusGatherArgF32(double* best, int32_t* best_src, int32_t tag,
                         const float* row, const int32_t* idx, double add,
                         size_t n) {
  ActiveTable()->min_plus_gather_arg_f32(best, best_src, tag, row, idx, add,
                                         n);
}

double JoinMinIndexedF32(double base, const float* row, const int32_t* idx,
                         const double* addend, size_t n) {
  return ActiveTable()->join_min_indexed_f32(base, row, idx, addend, n);
}

size_t FilterLeq(const double* v, size_t n, double radius, int32_t* out) {
  return ActiveTable()->filter_leq(v, n, radius, out);
}

bool SimdEnabled() { return ActiveTable() != &kScalarTable; }

const char* ActivePathName() { return ActiveTable()->name; }

void ForceScalarForTest(bool force) {
  ActiveTable() = force ? &kScalarTable : BestTable();
}

}  // namespace kernels
}  // namespace viptree
