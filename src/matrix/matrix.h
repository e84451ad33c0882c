// Dense matrices over GF(2^8).
//
// Everything the codes module needs: multiplication, transpose,
// Gauss-Jordan inversion, rank, linear solving, row selection.  Sizes are
// small (at most a few hundred rows) so the simple O(n^3) algorithms are
// appropriate and easy to audit against the product-matrix framework of
// Rashmi-Shah-Kumar (the paper's reference [25]).
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.h"
#include "gf/gf256.h"

namespace lds::math {

class Matrix {
 public:
  using Elem = gf::Elem;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  /// Row-major construction from a braced list, e.g. {{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<int>> init);

  static Matrix identity(std::size_t n);
  static Matrix zero(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  Elem& at(std::size_t r, std::size_t c) {
    LDS_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  Elem at(std::size_t r, std::size_t c) const {
    LDS_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }

  std::span<Elem> row(std::size_t r) {
    LDS_REQUIRE(r < rows_, "Matrix::row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const Elem> row(std::size_t r) const {
    LDS_REQUIRE(r < rows_, "Matrix::row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// this * other.
  Matrix mul(const Matrix& other) const;

  /// this * v (v is a column vector of length cols()).
  std::vector<Elem> mul_vec(std::span<const Elem> v) const;

  /// v^T * this (v has length rows(); result has length cols()).
  std::vector<Elem> lmul_vec(std::span<const Elem> v) const;

  Matrix transpose() const;

  Matrix add(const Matrix& other) const;

  /// Inverse via Gauss-Jordan; nullopt if singular.  Requires square.
  std::optional<Matrix> inverse() const;

  std::size_t rank() const;

  bool is_symmetric() const;

  /// Solve this * x = b for x; nullopt if this is singular.  Requires square.
  std::optional<std::vector<Elem>> solve(std::span<const Elem> b) const;

  /// Solve this * X = B column-wise; nullopt if singular.
  std::optional<Matrix> solve_matrix(const Matrix& b) const;

  /// New matrix consisting of the given rows of this one, in order.
  Matrix select_rows(std::span<const int> rows) const;

  /// New matrix consisting of columns [c0, c0+len).
  Matrix slice_cols(std::size_t c0, std::size_t len) const;

  /// Paste `m` into this matrix with its (0,0) at (r0, c0).
  void paste(const Matrix& m, std::size_t r0, std::size_t c0);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Elem> data_;
};

/// Memoized inverses of square submatrices of one fixed matrix, keyed by the
/// selected rows.  Striped decode and repair solve against the same
/// submatrix for every stripe of a value, so the Gauss-Jordan work is paid
/// once per index set.  Bounded (a full cache is cleared) and safe to use
/// from several threads.
class InverseCache {
 public:
  /// The inverse of the first rows.size() columns of `source`'s `rows`
  /// (`source` must be the same matrix on every call); nullptr if singular.
  std::shared_ptr<const Matrix> inverse(const Matrix& source,
                                        const std::vector<int>& rows) const;

 private:
  mutable std::mutex mu_;
  mutable std::map<std::vector<int>, std::shared_ptr<const Matrix>> cache_;
};

}  // namespace lds::math
