// Tests for the Monge core: array views, property validators, random
// generators (every generated instance must satisfy its claimed property),
// staircase machinery and the tube brute-force oracles.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "monge/array.hpp"
#include "monge/brute.hpp"
#include "monge/composite.hpp"
#include "monge/generators.hpp"
#include "monge/validate.hpp"
#include "support/rng.hpp"

namespace pmonge::monge {
namespace {

DenseArray<int> from_rows(std::vector<std::vector<int>> rows) {
  DenseArray<int> a(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) a.at(i, j) = rows[i][j];
  }
  return a;
}

TEST(Validate, HandCheckedMonge) {
  // a[i][j] = (i - j)^2 restricted to a grid is Monge.
  auto a = make_func_array<int>(5, 7, [](std::size_t i, std::size_t j) {
    const int d = static_cast<int>(i) * 2 - static_cast<int>(j);
    return d * d;
  });
  EXPECT_TRUE(is_monge(a));
  EXPECT_TRUE(is_totally_monotone_min(a));
  EXPECT_FALSE(is_inverse_monge(a));
}

TEST(Validate, NonMongeDetected) {
  auto a = from_rows({{0, 5}, {0, 0}});  // 0+0 > 5+0 fails? check: a00+a11=0, a01+a10=5 -> Monge holds; flip
  EXPECT_TRUE(is_monge(a));
  auto b = from_rows({{5, 0}, {0, 5}});  // 5+5 > 0+0
  EXPECT_FALSE(is_monge(b));
  EXPECT_TRUE(is_inverse_monge(b));
}

TEST(Validate, Int64ExtremesDoNotWrap) {
  // INT64_MAX + 1 > 0 + 0: not Monge, though a wrapped sum says it is.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DenseArray<std::int64_t> a(2, 2, std::vector<std::int64_t>{kMax, 0, 0, 1});
  EXPECT_FALSE(is_monge(a));
  EXPECT_TRUE(is_inverse_monge(a));
  DenseArray<std::int64_t> b(2, 2, std::vector<std::int64_t>{-kMax - 1, 0, 0, -1});
  EXPECT_TRUE(is_monge(b));
  EXPECT_FALSE(is_inverse_monge(b));
  StaircaseArray<DenseArray<std::int64_t>> s(b, std::vector<std::size_t>{2, 2});
  EXPECT_TRUE(is_staircase_monge(s));
  EXPECT_FALSE(is_staircase_inverse_monge(s));
}

TEST(Generators, RandomMongeIsMonge) {
  Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    EXPECT_TRUE(is_monge(random_monge(m, n, rng)));
  }
}

TEST(Generators, RandomInverseMongeIsInverseMonge) {
  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    EXPECT_TRUE(is_inverse_monge(random_inverse_monge(17, 23, rng)));
  }
}

TEST(Generators, RealMongeIsMonge) {
  Rng rng(3);
  EXPECT_TRUE(is_monge(random_monge_real(30, 25, rng)));
}

TEST(Generators, TransportationIsMonge) {
  Rng rng(4);
  EXPECT_TRUE(is_monge(transportation_monge(20, 30, rng)));
}

TEST(Generators, FrontierNonIncreasingWithinBounds) {
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    const auto f = random_frontier(50, 80, rng);
    ASSERT_EQ(f.size(), 50u);
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_LE(f[i], 80u);
      if (i) EXPECT_LE(f[i], f[i - 1]);
    }
  }
}

TEST(Generators, StaircaseInstanceIsStaircaseMonge) {
  Rng rng(6);
  for (int t = 0; t < 10; ++t) {
    const auto inst = random_staircase_monge(25, 30, rng);
    StaircaseArray<DenseArray<std::int64_t>> s(inst.base, inst.frontier);
    EXPECT_TRUE(is_staircase_monge(s));
  }
}

TEST(Views, NegateFlipsMongeness) {
  Rng rng(7);
  const auto a = random_monge(10, 12, rng);
  Negate<decltype(a)> neg(a);
  EXPECT_TRUE(is_inverse_monge(neg));
}

TEST(Views, ReverseColsFlipsMongeness) {
  Rng rng(8);
  const auto a = random_monge(10, 12, rng);
  ReverseCols<decltype(a)> rev(a);
  EXPECT_TRUE(is_inverse_monge(rev));
  EXPECT_EQ(rev(3, 0), a(3, 11));
}

TEST(Views, TransposePreservesMongeness) {
  Rng rng(9);
  const auto a = random_monge(10, 12, rng);
  Transpose<decltype(a)> tr(a);
  EXPECT_EQ(tr.rows(), 12u);
  EXPECT_EQ(tr.cols(), 10u);
  EXPECT_TRUE(is_monge(tr));
}

TEST(Views, SubArrayWindowAndBounds) {
  Rng rng(10);
  const auto a = random_monge(10, 12, rng);
  SubArray<decltype(a)> s(a, 2, 5, 3, 4);
  EXPECT_EQ(s.rows(), 5u);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_EQ(s(0, 0), a(2, 3));
  EXPECT_EQ(s(4, 3), a(6, 6));
  EXPECT_TRUE(is_monge(s));
  EXPECT_THROW((SubArray<decltype(a)>(a, 8, 5, 0, 2)), std::invalid_argument);
}

TEST(Views, RowSelectPreservesMongeness) {
  Rng rng(11);
  const auto a = random_monge(20, 12, rng);
  RowSelect<decltype(a)> sel(a, {1, 4, 9, 16});
  EXPECT_EQ(sel.rows(), 4u);
  EXPECT_TRUE(is_monge(sel));
  EXPECT_EQ(sel(2, 5), a(9, 5));
}

TEST(Staircase, FrontierValidation) {
  Rng rng(12);
  const auto a = random_monge(4, 6, rng);
  EXPECT_NO_THROW((StaircaseArray<decltype(a)>(a, {6, 4, 4, 0})));
  // Increasing frontier rejected.
  EXPECT_THROW((StaircaseArray<decltype(a)>(a, {3, 4, 4, 0})),
               std::invalid_argument);
  // Wrong length rejected.
  EXPECT_THROW((StaircaseArray<decltype(a)>(a, {6, 4, 4})),
               std::invalid_argument);
  // Out of range rejected.
  EXPECT_THROW((StaircaseArray<decltype(a)>(a, {7, 4, 4, 0})),
               std::invalid_argument);
}

TEST(Staircase, InfinitePadding) {
  Rng rng(13);
  const auto a = random_monge(3, 5, rng);
  StaircaseArray<decltype(a)> s(a, {5, 3, 0});
  EXPECT_EQ(s(0, 4), a(0, 4));
  EXPECT_EQ(s(1, 2), a(1, 2));
  EXPECT_TRUE(is_infinite(s(1, 3)));
  EXPECT_TRUE(is_infinite(s(2, 0)));
}

TEST(Brute, RowMinimaLeftmostTies) {
  auto a = from_rows({{2, 1, 1}, {0, 5, 0}});
  const auto mins = row_minima_brute(a);
  EXPECT_EQ(mins[0], (RowOpt<int>{1, 1}));
  EXPECT_EQ(mins[1], (RowOpt<int>{0, 0}));
}

TEST(Brute, RowMaximaLeftmostTies) {
  auto a = from_rows({{2, 3, 3}, {7, 5, 7}});
  const auto maxs = row_maxima_brute(a);
  EXPECT_EQ(maxs[0], (RowOpt<int>{3, 1}));
  EXPECT_EQ(maxs[1], (RowOpt<int>{7, 0}));
}

TEST(Brute, AllInfiniteRowReportsNoCol) {
  Rng rng(14);
  const auto a = random_monge(3, 4, rng);
  StaircaseArray<decltype(a)> s(a, {4, 2, 0});
  const auto mins = row_minima_brute(s);
  EXPECT_EQ(mins[2].col, kNoCol);
  EXPECT_TRUE(is_infinite(mins[2].value));
}

TEST(Composite, ThetaMonotoneForMinimaAndMaxima) {
  Rng rng(15);
  for (int t = 0; t < 10; ++t) {
    const auto inst = random_composite(12, 15, 10, rng);
    const auto mins = tube_minima_brute(inst.d, inst.e);
    EXPECT_TRUE(is_theta_monotone(mins, /*nondecreasing=*/true));
    const auto maxs = tube_maxima_brute(inst.d, inst.e);
    EXPECT_TRUE(is_theta_monotone(maxs, /*nondecreasing=*/false));
  }
}

TEST(Composite, TubeValuesMatchDefinition) {
  Rng rng(16);
  const auto inst = random_composite(5, 7, 6, rng);
  const auto mins = tube_minima_brute(inst.d, inst.e);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t k = 0; k < 6; ++k) {
      const auto& o = mins.at(i, k);
      EXPECT_EQ(o.value, inst.d(i, o.j) + inst.e(o.j, k));
      for (std::size_t j = 0; j < 7; ++j) {
        EXPECT_LE(o.value, inst.d(i, j) + inst.e(j, k));
      }
    }
  }
}

TEST(Infinity, IntegerInfinityIsSummable) {
  const auto big = inf<std::int64_t>();
  EXPECT_TRUE(is_infinite(big));
  EXPECT_GT(big + big, big);  // no overflow into negative
  EXPECT_FALSE(is_infinite(big / 5));
}

}  // namespace
}  // namespace pmonge::monge
