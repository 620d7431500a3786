// Vectorized distance kernels for the hot read path. The VIP-Tree query
// algorithms reduce to a handful of dense row scans — min-plus updates
// over distance-matrix rows, row min/argmin reductions, and radius
// filters — and every one of them is expressed here exactly once, as an
// autovectorization-friendly scalar loop with an explicit AVX2 twin
// behind runtime dispatch.
//
// Bit-identity contract: for any input free of NaNs and negative zeros
// (all VIP-Tree distances are >= 0 or +inf), the AVX2 path returns
// results bit-identical to the scalar path, which in turn reproduces the
// historical hand-written loops:
//   * min updates use strict `cand < best` compare-and-select, so equal
//     candidates never replace an incumbent (first-wins tie semantics,
//     preserved lane-exactly via cmp/blend instead of minpd);
//   * every sum keeps the scalar association, e.g. the LCA join computes
//     (base + cell) + addend[j] just like the historical loop;
//   * reductions are order-insensitive because floating min over a
//     NaN-free multiset is associative and commutative.
// The differential suite (tests/kernel_differential_test.cc) enforces
// this end-to-end; VIPTREE_FORCE_SCALAR=1 (or ForceScalarForTest) pins
// the scalar path for A/B runs.
//
// All kernels are allocation-free and safe on unaligned pointers: the
// AVX2 paths use unaligned loads/gathers, so they accept both 64-byte-
// aligned owning buffers (common/aligned.h) and 8-byte-aligned rows
// aliased out of an mmap'd snapshot.

#ifndef VIPTREE_COMMON_KERNELS_H_
#define VIPTREE_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace viptree {
namespace kernels {

// best[i] = min(best[i], add + row[i]) for i in [0, n). The kNN leaf
// scan: `row` is one door's object-distance row, `add` the query→door
// distance.
void MinPlusRow(double* best, const double* row, double add, size_t n);

// Minimum of v[0..n); +inf when n == 0.
double RowMin(const double* v, size_t n);

// First index attaining the minimum of v[0..n). Requires n > 0.
size_t RowArgMin(const double* v, size_t n);

// best[c] = min(best[c], add + row[idx[c]]) for c in [0, n) — the
// loop-swapped form of the matrix ascent: one source door's float row,
// gathered through a column-index map, folded into double accumulators.
void MinPlusGatherF32(double* best, const float* row, const int32_t* idx,
                      double add, size_t n);

// As MinPlusGatherF32, and wherever the candidate strictly improves
// best[c], records best_src[c] = tag. Calling with ascending tags
// reproduces the first-wins argmin of the historical column-outer loop.
void MinPlusGatherArgF32(double* best, int32_t* best_src, int32_t tag,
                         const float* row, const int32_t* idx, double add,
                         size_t n);

// min over j in [0, n) of (base + row[idx[j]]) + addend[j] — one source
// door's contribution to an LCA join. The parenthesization matches the
// historical scalar loop bit-for-bit.
double JoinMinIndexedF32(double base, const float* row, const int32_t* idx,
                         const double* addend, size_t n);

// Appends every index i with v[i] <= radius to out (ascending; caller
// provides room for n entries) and returns the count. The range-query
// candidate filter.
size_t FilterLeq(const double* v, size_t n, double radius, int32_t* out);

// --- Prefetch hints (used in the kNN branch-and-bound descent). ---------

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// --- Dispatch control. --------------------------------------------------

// True when the AVX2 paths are active (CPU support present, not forced
// off). Informational; call sites never branch on it.
bool SimdEnabled();

// Human-readable name of the active path: "avx2" or "scalar".
const char* ActivePathName();

// Pins the scalar path (true) or restores default dispatch (false).
// Testing/benchmark hook; same effect as the VIPTREE_FORCE_SCALAR=1
// environment variable. Not thread-safe: call before issuing queries.
void ForceScalarForTest(bool force);

}  // namespace kernels
}  // namespace viptree

#endif  // VIPTREE_COMMON_KERNELS_H_
