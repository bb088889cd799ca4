// Two-dimensional array abstractions for Monge searching.
//
// All search algorithms in this library are written against the Array2D
// concept: anything exposing rows(), cols() and operator()(i, j).  This
// lets the same SMAWK / parallel searching code run over
//   * DenseArray<T>      -- materialized entries,
//   * FuncArray<T, F>    -- implicit arrays whose (i,j) entry is computed
//                           on demand in O(1) (the PRAM model of Section 1.2),
//   * adaptor views      -- negation, transposition, column reversal and
//                           rectangular sub-blocks, which move between the
//                           row-minima/row-maxima and Monge/inverse-Monge
//                           variants of every problem, and
//   * StaircaseArray<A>  -- a finite upper-left staircase region padded
//                           with +infinity (Section 1.1's staircase-Monge).
#pragma once

#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace pmonge::monge {

template <class A>
concept Array2D = requires(const A& a, std::size_t i, std::size_t j) {
  typename A::value_type;
  { a.rows() } -> std::convertible_to<std::size_t>;
  { a.cols() } -> std::convertible_to<std::size_t>;
  { a(i, j) } -> std::convertible_to<typename A::value_type>;
};

/// "Infinity" for a value type: true infinity for floating point, a large
/// sentinel for integers chosen so that sums of two infinities still do
/// not overflow (staircase algorithms add entries to row/column offsets).
template <class T>
constexpr T inf() {
  if constexpr (std::is_floating_point_v<T>) {
    return std::numeric_limits<T>::infinity();
  } else {
    return std::numeric_limits<T>::max() / 4;
  }
}

template <class T>
constexpr bool is_infinite(T x) {
  return x >= inf<T>();
}

// ---------------------------------------------------------------------------
// Concrete arrays
// ---------------------------------------------------------------------------

template <class T>
class DenseArray {
 public:
  using value_type = T;

  DenseArray() = default;
  DenseArray(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Adopts `cells` (row-major, rows * cols of them) without copying.
  DenseArray(std::size_t rows, std::size_t cols, std::vector<T>&& cells)
      : rows_(rows), cols_(cols), data_(std::move(cells)) {
    PMONGE_REQUIRE(data_.size() == rows * cols, "cells != rows * cols");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }
  T& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Implicit array: entry (i,j) computed on demand by a callable.
template <class T, class F>
class FuncArray {
 public:
  using value_type = T;

  FuncArray(std::size_t rows, std::size_t cols, F f)
      : rows_(rows), cols_(cols), f_(std::move(f)) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  T operator()(std::size_t i, std::size_t j) const { return f_(i, j); }

 private:
  std::size_t rows_;
  std::size_t cols_;
  F f_;
};

template <class T, class F>
FuncArray<T, F> make_func_array(std::size_t rows, std::size_t cols, F f) {
  return FuncArray<T, F>(rows, cols, std::move(f));
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Negation view: turns row-maxima problems into row-minima problems and
/// Monge arrays into inverse-Monge arrays (and vice versa).
template <Array2D A>
class Negate {
 public:
  using value_type = typename A::value_type;
  explicit Negate(const A& a) : a_(&a) {}
  std::size_t rows() const { return a_->rows(); }
  std::size_t cols() const { return a_->cols(); }
  value_type operator()(std::size_t i, std::size_t j) const {
    return -(*a_)(i, j);
  }

 private:
  const A* a_;
};

/// Column-reversal view: maps Monge <-> inverse-Monge while preserving the
/// optimization direction.
template <Array2D A>
class ReverseCols {
 public:
  using value_type = typename A::value_type;
  explicit ReverseCols(const A& a) : a_(&a) {}
  std::size_t rows() const { return a_->rows(); }
  std::size_t cols() const { return a_->cols(); }
  value_type operator()(std::size_t i, std::size_t j) const {
    return (*a_)(i, cols() - 1 - j);
  }

 private:
  const A* a_;
};

/// Transposition view (Monge-ness is preserved under transpose).
template <Array2D A>
class Transpose {
 public:
  using value_type = typename A::value_type;
  explicit Transpose(const A& a) : a_(&a) {}
  std::size_t rows() const { return a_->cols(); }
  std::size_t cols() const { return a_->rows(); }
  value_type operator()(std::size_t i, std::size_t j) const {
    return (*a_)(j, i);
  }

 private:
  const A* a_;
};

/// Rectangular sub-block [r0, r0+nrows) x [c0, c0+ncols) of a parent array.
template <Array2D A>
class SubArray {
 public:
  using value_type = typename A::value_type;
  SubArray(const A& a, std::size_t r0, std::size_t nrows, std::size_t c0,
           std::size_t ncols)
      : a_(&a), r0_(r0), c0_(c0), rows_(nrows), cols_(ncols) {
    PMONGE_REQUIRE(r0 + nrows <= a.rows() && c0 + ncols <= a.cols(),
                   "sub-array out of range");
  }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  value_type operator()(std::size_t i, std::size_t j) const {
    return (*a_)(r0_ + i, c0_ + j);
  }
  std::size_t row0() const { return r0_; }
  std::size_t col0() const { return c0_; }

 private:
  const A* a_;
  std::size_t r0_, c0_, rows_, cols_;
};

/// Row-selection view: keeps an explicit subset of rows (used for the
/// sampled rows R_i of Section 2 and the fill-in phases of Lemma 2.1).
template <Array2D A>
class RowSelect {
 public:
  using value_type = typename A::value_type;
  RowSelect(const A& a, std::vector<std::size_t> rows)
      : a_(&a), rows_(std::move(rows)) {}
  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return a_->cols(); }
  value_type operator()(std::size_t i, std::size_t j) const {
    return (*a_)(rows_[i], j);
  }
  std::size_t parent_row(std::size_t i) const { return rows_[i]; }

 private:
  const A* a_;
  std::vector<std::size_t> rows_;
};

// ---------------------------------------------------------------------------
// Staircase arrays
// ---------------------------------------------------------------------------

/// Staircase view over a base array: entry (i, j) equals base(i, j) when
/// j < frontier[i] and +infinity otherwise.  For the result to be
/// staircase-Monge the frontier must be non-increasing (infinite entries
/// propagate right and down, per condition 2 of Section 1.1) and the base
/// must be Monge on the finite region.
template <Array2D A>
class StaircaseArray {
 public:
  using value_type = typename A::value_type;

  StaircaseArray(const A& base, std::vector<std::size_t> frontier)
      : base_(&base), frontier_(std::move(frontier)) {
    PMONGE_REQUIRE(frontier_.size() == base.rows(),
                   "frontier must have one entry per row");
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      PMONGE_REQUIRE(frontier_[i] <= base.cols(), "frontier out of range");
      PMONGE_REQUIRE(i == 0 || frontier_[i] <= frontier_[i - 1],
                     "staircase frontier must be non-increasing");
    }
  }

  std::size_t rows() const { return base_->rows(); }
  std::size_t cols() const { return base_->cols(); }
  value_type operator()(std::size_t i, std::size_t j) const {
    return j < frontier_[i] ? (*base_)(i, j) : inf<value_type>();
  }

  /// f_i: the first column of row i that is infinite.
  std::size_t frontier(std::size_t i) const { return frontier_[i]; }
  const std::vector<std::size_t>& frontiers() const { return frontier_; }
  const A& base() const { return *base_; }

 private:
  const A* base_;
  std::vector<std::size_t> frontier_;
};

// ---------------------------------------------------------------------------
// Row-search result types
// ---------------------------------------------------------------------------

inline constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

/// Optimum of one row: value and column index.  Rows of staircase arrays
/// that contain no finite entry report {inf, kNoCol}.
template <class T>
struct RowOpt {
  T value{};
  std::size_t col = kNoCol;

  friend bool operator==(const RowOpt&, const RowOpt&) = default;
};

}  // namespace pmonge::monge
