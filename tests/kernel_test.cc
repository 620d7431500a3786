// Unit correctness for the vectorized distance kernels (common/kernels.h):
// every kernel is compared against a naive reference loop on randomized
// inputs — including +inf entries, duplicate minima, and tail lengths that
// straddle the 4-lane AVX2 width — and the dispatched path is required to
// be BIT-identical to the forced-scalar path on the same inputs. On hosts
// without AVX2 both paths are scalar and the A/B checks pass trivially.

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/types.h"

namespace viptree {
namespace {

using kernels::FilterLeq;
using kernels::JoinMinIndexedF32;
using kernels::MinPlusGatherArgF32;
using kernels::MinPlusGatherF32;
using kernels::MinPlusRow;
using kernels::RowArgMin;
using kernels::RowMin;

// Sizes around the 4-lane boundaries plus a couple of large rows.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100, 257};

// Restores default dispatch even when an assertion fails mid-test.
struct ScalarGuard {
  explicit ScalarGuard(bool force) { kernels::ForceScalarForTest(force); }
  ~ScalarGuard() { kernels::ForceScalarForTest(false); }
};

std::vector<double> RandomRow(Rng& rng, size_t n, double inf_chance) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.Chance(inf_chance) ? kInfDistance : rng.UniformReal(0.0, 500.0);
  }
  return v;
}

std::vector<float> RandomRowF32(Rng& rng, size_t n, double inf_chance) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.Chance(inf_chance)
            ? std::numeric_limits<float>::infinity()
            : static_cast<float>(rng.UniformReal(0.0f, 500.0f));
  }
  return v;
}

// Column-index map into a row of `row_len` cells, with repeats.
std::vector<int32_t> RandomIndexMap(Rng& rng, size_t n, size_t row_len) {
  std::vector<int32_t> idx(n);
  for (int32_t& i : idx) {
    i = static_cast<int32_t>(rng.UniformIndex(row_len));
  }
  return idx;
}

// --- Reference loops (deliberately naive, mirroring the historical code).

void RefMinPlusRow(double* best, const double* row, double add, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double cand = add + row[i];
    if (cand < best[i]) best[i] = cand;
  }
}

double RefRowMin(const double* v, size_t n) {
  double best = kInfDistance;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < best) best = v[i];
  }
  return best;
}

size_t RefRowArgMin(const double* v, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < v[best]) best = i;
  }
  return best;
}

TEST(KernelTest, MinPlusRowMatchesReferenceOnBothPaths) {
  for (const size_t n : kSizes) {
    Rng rng(0xA1 + n);
    const std::vector<double> row = RandomRow(rng, n, 0.15);
    const std::vector<double> base = RandomRow(rng, n, 0.15);
    const double add = rng.UniformReal(0.0, 100.0);

    std::vector<double> expected = base;
    RefMinPlusRow(expected.data(), row.data(), add, n);

    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      std::vector<double> actual = base;
      MinPlusRow(actual.data(), row.data(), add, n);
      EXPECT_EQ(actual, expected)
          << "n=" << n << " path=" << kernels::ActivePathName();
    }
  }
}

TEST(KernelTest, MinPlusRowWithInfAddendIsANoOp) {
  Rng rng(0xB2);
  std::vector<double> best = RandomRow(rng, 64, 0.1);
  const std::vector<double> before = best;
  const std::vector<double> row = RandomRow(rng, 64, 0.1);
  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    MinPlusRow(best.data(), row.data(), kInfDistance, 64);
    EXPECT_EQ(best, before) << kernels::ActivePathName();
  }
}

TEST(KernelTest, RowMinAndArgMinMatchReferenceOnBothPaths) {
  for (const size_t n : kSizes) {
    Rng rng(0xC3 + n);
    // Quantized values produce plenty of exact duplicates, so the
    // first-wins argmin tie rule is genuinely exercised.
    std::vector<double> v(n);
    for (double& x : v) {
      x = static_cast<double>(rng.UniformInt(0, 8));
    }
    const double expected_min = RefRowMin(v.data(), n);
    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      EXPECT_EQ(RowMin(v.data(), n), expected_min)
          << "n=" << n << " path=" << kernels::ActivePathName();
      if (n > 0) {
        EXPECT_EQ(RowArgMin(v.data(), n), RefRowArgMin(v.data(), n))
            << "n=" << n << " path=" << kernels::ActivePathName();
      }
    }
  }
}

TEST(KernelTest, RowMinOfEmptyAndAllInfRowsIsInf) {
  const std::vector<double> all_inf(13, kInfDistance);
  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    EXPECT_EQ(RowMin(nullptr, 0), kInfDistance);
    EXPECT_EQ(RowMin(all_inf.data(), all_inf.size()), kInfDistance);
    EXPECT_EQ(RowArgMin(all_inf.data(), all_inf.size()), 0u);
  }
}

TEST(KernelTest, RowArgMinReturnsFirstOfEqualMinima) {
  // Minimum 1.0 appears at 2, 5, and 9; first-wins must pick 2.
  const std::vector<double> v = {3, 4, 1, 2, 5, 1, 7, 8, 9, 1, 6};
  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    EXPECT_EQ(RowArgMin(v.data(), v.size()), 2u)
        << kernels::ActivePathName();
  }
}

TEST(KernelTest, MinPlusGatherF32MatchesReferenceOnBothPaths) {
  for (const size_t n : kSizes) {
    Rng rng(0xD4 + n);
    const std::vector<float> row = RandomRowF32(rng, 48, 0.15);
    const std::vector<int32_t> idx = RandomIndexMap(rng, n, row.size());
    const std::vector<double> base = RandomRow(rng, n, 0.15);
    const double add = rng.UniformReal(0.0, 100.0);

    std::vector<double> expected = base;
    for (size_t c = 0; c < n; ++c) {
      const double cand = add + static_cast<double>(row[idx[c]]);
      if (cand < expected[c]) expected[c] = cand;
    }

    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      std::vector<double> actual = base;
      MinPlusGatherF32(actual.data(), row.data(), idx.data(), add, n);
      EXPECT_EQ(actual, expected)
          << "n=" << n << " path=" << kernels::ActivePathName();
    }
  }
}

TEST(KernelTest, MinPlusGatherArgRecordsTagOnlyOnStrictImprovement) {
  for (const size_t n : kSizes) {
    Rng rng(0xE5 + n);
    const std::vector<float> row = RandomRowF32(rng, 48, 0.1);
    const std::vector<int32_t> idx = RandomIndexMap(rng, n, row.size());
    const std::vector<double> base = RandomRow(rng, n, 0.1);
    const double add = rng.UniformReal(0.0, 100.0);

    std::vector<double> expected = base;
    std::vector<int32_t> expected_src(n, -1);
    for (size_t c = 0; c < n; ++c) {
      const double cand = add + static_cast<double>(row[idx[c]]);
      if (cand < expected[c]) {
        expected[c] = cand;
        expected_src[c] = 7;
      }
    }

    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      std::vector<double> actual = base;
      std::vector<int32_t> actual_src(n, -1);
      MinPlusGatherArgF32(actual.data(), actual_src.data(), /*tag=*/7,
                          row.data(), idx.data(), add, n);
      EXPECT_EQ(actual, expected)
          << "n=" << n << " path=" << kernels::ActivePathName();
      EXPECT_EQ(actual_src, expected_src)
          << "n=" << n << " path=" << kernels::ActivePathName();
    }
  }
}

TEST(KernelTest, MinPlusGatherArgEqualCandidateKeepsIncumbent) {
  // best[0] already holds exactly add + row[idx[0]]; an equal candidate
  // must neither replace the value nor stamp the tag.
  const std::vector<float> row = {2.0f};
  const std::vector<int32_t> idx = {0};
  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    std::vector<double> best = {5.0};  // == 3.0 + 2.0
    std::vector<int32_t> src = {-1};
    MinPlusGatherArgF32(best.data(), src.data(), /*tag=*/9, row.data(),
                        idx.data(), /*add=*/3.0, 1);
    EXPECT_EQ(best[0], 5.0) << kernels::ActivePathName();
    EXPECT_EQ(src[0], -1) << kernels::ActivePathName();
  }
}

TEST(KernelTest, JoinMinIndexedKeepsScalarAssociationOnBothPaths) {
  for (const size_t n : kSizes) {
    Rng rng(0xF6 + n);
    const std::vector<float> row = RandomRowF32(rng, 48, 0.15);
    const std::vector<int32_t> idx = RandomIndexMap(rng, n, row.size());
    const std::vector<double> addend = RandomRow(rng, n, 0.15);
    const double base = rng.UniformReal(0.0, 100.0);

    double expected = kInfDistance;
    for (size_t j = 0; j < n; ++j) {
      // The documented parenthesization: (base + cell) + addend[j].
      const double cand =
          (base + static_cast<double>(row[idx[j]])) + addend[j];
      if (cand < expected) expected = cand;
    }

    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      EXPECT_EQ(JoinMinIndexedF32(base, row.data(), idx.data(),
                                  addend.data(), n),
                expected)
          << "n=" << n << " path=" << kernels::ActivePathName();
    }
  }
}

TEST(KernelTest, FilterLeqMatchesReferenceOnBothPaths) {
  for (const size_t n : kSizes) {
    Rng rng(0x17 + n);
    const std::vector<double> v = RandomRow(rng, n, 0.2);
    const double radius = rng.UniformReal(50.0, 400.0);

    std::vector<int32_t> expected;
    for (size_t i = 0; i < n; ++i) {
      if (v[i] <= radius) expected.push_back(static_cast<int32_t>(i));
    }

    for (const bool force : {true, false}) {
      ScalarGuard guard(force);
      std::vector<int32_t> out(n + 1, -1);
      const size_t count = FilterLeq(v.data(), n, radius, out.data());
      ASSERT_EQ(count, expected.size())
          << "n=" << n << " path=" << kernels::ActivePathName();
      out.resize(count);
      EXPECT_EQ(out, expected)
          << "n=" << n << " path=" << kernels::ActivePathName();
    }
  }
}

TEST(KernelTest, FilterLeqBoundaryIsInclusive) {
  const std::vector<double> v = {1.0, 2.0, 2.0, 3.0, kInfDistance};
  for (const bool force : {true, false}) {
    ScalarGuard guard(force);
    std::vector<int32_t> out(v.size(), -1);
    const size_t count = FilterLeq(v.data(), v.size(), 2.0, out.data());
    ASSERT_EQ(count, 3u) << kernels::ActivePathName();
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 1);
    EXPECT_EQ(out[2], 2);
  }
}

TEST(KernelTest, ForceScalarPinsThePathName) {
  {
    ScalarGuard guard(true);
    EXPECT_STREQ(kernels::ActivePathName(), "scalar");
    EXPECT_FALSE(kernels::SimdEnabled());
  }
  // Restored: the active path is whatever the host dispatches to.
  const char* name = kernels::ActivePathName();
  EXPECT_TRUE(name != nullptr &&
              (std::string(name) == "avx2" || std::string(name) == "scalar"));
}

}  // namespace
}  // namespace viptree
