// Property validators for Monge / inverse-Monge / staircase-Monge arrays.
//
// All validators use the adjacent-quadruple reduction: the Monge condition
// (1.1) holds for all i < k, j < l iff it holds for all adjacent quadruples
// (i, i+1) x (j, j+1) -- the general inequality telescopes from adjacent
// ones.  For staircase arrays the reduction remains valid because the
// finite region is upper-left closed: if the bottom-right corner of a
// quadruple is finite, every entry of the enclosing rectangle is finite.
#pragma once

#include <cstddef>
#include <type_traits>

#include "monge/array.hpp"

namespace pmonge::monge {

namespace detail {

/// x + y in a type the sum cannot overflow: the entries are outside input
/// (a registered array), and int64 extremes are legal entries.
template <class T>
auto wide_sum(T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) <= 8);
    return static_cast<__int128>(x) + static_cast<__int128>(y);
  } else {
    return x + y;
  }
}

}  // namespace detail

/// a[i][j] + a[i+1][j+1] <= a[i][j+1] + a[i+1][j] for all adjacent pairs.
template <Array2D A>
bool is_monge(const A& a) {
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    for (std::size_t j = 0; j + 1 < a.cols(); ++j) {
      if (detail::wide_sum(a(i, j), a(i + 1, j + 1)) >
          detail::wide_sum(a(i, j + 1), a(i + 1, j))) {
        return false;
      }
    }
  }
  return true;
}

/// a[i][j] + a[i+1][j+1] >= a[i][j+1] + a[i+1][j] for all adjacent pairs.
template <Array2D A>
bool is_inverse_monge(const A& a) {
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    for (std::size_t j = 0; j + 1 < a.cols(); ++j) {
      if (detail::wide_sum(a(i, j), a(i + 1, j + 1)) <
          detail::wide_sum(a(i, j + 1), a(i + 1, j))) {
        return false;
      }
    }
  }
  return true;
}

/// Total monotonicity (minima orientation): a[i][j] > a[i][l] for j < l
/// implies a[k][j] > a[k][l] for every k > i.  Monge implies this; SMAWK
/// only needs this weaker property.  Checked on adjacent rows/columns.
template <Array2D A>
bool is_totally_monotone_min(const A& a) {
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    for (std::size_t j = 0; j + 1 < a.cols(); ++j) {
      if (a(i, j) > a(i, j + 1) && a(i + 1, j) <= a(i + 1, j + 1)) return false;
    }
  }
  return true;
}

/// Checks the three conditions of a staircase-Monge array (Section 1.1):
/// entries real or +inf; infinities propagate right and down; the Monge
/// condition holds on every all-finite adjacent quadruple.
template <Array2D A>
bool is_staircase_monge(const A& a) {
  using T = typename A::value_type;
  // Condition 2: inf propagates right along rows and down along columns.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (is_infinite<T>(a(i, j))) {
        if (j + 1 < a.cols() && !is_infinite<T>(a(i, j + 1))) return false;
        if (i + 1 < a.rows() && !is_infinite<T>(a(i + 1, j))) return false;
      }
    }
  }
  // Condition 3: Monge on all-finite adjacent quadruples.
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    for (std::size_t j = 0; j + 1 < a.cols(); ++j) {
      if (is_infinite<T>(a(i + 1, j + 1))) continue;  // corner finite => all
      if (detail::wide_sum(a(i, j), a(i + 1, j + 1)) >
          detail::wide_sum(a(i, j + 1), a(i + 1, j))) {
        return false;
      }
    }
  }
  return true;
}

/// Staircase-inverse-Monge variant (inequality (1.2) on finite quadruples).
template <Array2D A>
bool is_staircase_inverse_monge(const A& a) {
  using T = typename A::value_type;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (is_infinite<T>(a(i, j))) {
        if (j + 1 < a.cols() && !is_infinite<T>(a(i, j + 1))) return false;
        if (i + 1 < a.rows() && !is_infinite<T>(a(i + 1, j))) return false;
      }
    }
  }
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    for (std::size_t j = 0; j + 1 < a.cols(); ++j) {
      if (is_infinite<T>(a(i + 1, j + 1))) continue;
      if (detail::wide_sum(a(i, j), a(i + 1, j + 1)) <
          detail::wide_sum(a(i, j + 1), a(i + 1, j))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pmonge::monge
