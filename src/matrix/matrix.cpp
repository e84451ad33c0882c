#include "matrix/matrix.h"

namespace lds::math {

Matrix::Matrix(std::initializer_list<std::initializer_list<int>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.assign(rows_ * cols_, 0);
  std::size_t r = 0;
  for (const auto& row : init) {
    LDS_REQUIRE(row.size() == cols_, "Matrix: ragged initializer");
    std::size_t c = 0;
    for (int v : row) {
      LDS_REQUIRE(v >= 0 && v <= 255, "Matrix: element out of GF(256)");
      data_[r * cols_ + c] = static_cast<Elem>(v);
      ++c;
    }
    ++r;
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::mul(const Matrix& other) const {
  LDS_REQUIRE(cols_ == other.rows_, "Matrix::mul: dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    auto out_row = out.row(i);
    // First nonzero term writes through mul_into (no read of the zeroed
    // destination); the rest accumulate with axpy.
    bool first = true;
    for (std::size_t j = 0; j < cols_; ++j) {
      const Elem a = at(i, j);
      if (a == 0) continue;
      if (first) {
        gf::mul_into(out_row, a, other.row(j));
        first = false;
      } else {
        gf::axpy(out_row, a, other.row(j));
      }
    }
  }
  return out;
}

std::vector<Matrix::Elem> Matrix::mul_vec(std::span<const Elem> v) const {
  LDS_REQUIRE(v.size() == cols_, "Matrix::mul_vec: dimension mismatch");
  std::vector<Elem> out(rows_, 0);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = gf::dot(row(i), v);
  return out;
}

std::vector<Matrix::Elem> Matrix::lmul_vec(std::span<const Elem> v) const {
  LDS_REQUIRE(v.size() == rows_, "Matrix::lmul_vec: dimension mismatch");
  std::vector<Elem> out(cols_, 0);
  bool first = true;
  for (std::size_t i = 0; i < rows_; ++i) {
    if (v[i] == 0) continue;
    if (first) {
      gf::mul_into(out, v[i], row(i));
      first = false;
    } else {
      gf::axpy(out, v[i], row(i));
    }
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.at(j, i) = at(i, j);
  return out;
}

Matrix Matrix::add(const Matrix& other) const {
  LDS_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
              "Matrix::add: dimension mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] ^= other.data_[i];
  return out;
}

namespace {

// Gauss-Jordan elimination of [a | b] in place; returns false if a singular.
// On success a becomes the identity and b becomes a^{-1} * b0.
bool gauss_jordan(Matrix& a, Matrix& b) {
  const std::size_t n = a.rows();
  LDS_CHECK(a.cols() == n && b.rows() == n, "gauss_jordan: shape");
  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(a.at(pivot, j), a.at(col, j));
      for (std::size_t j = 0; j < b.cols(); ++j)
        std::swap(b.at(pivot, j), b.at(col, j));
    }
    // Normalise pivot row.
    const gf::Elem piv_inv = gf::inv(a.at(col, col));
    gf::scale(a.row(col), piv_inv);
    gf::scale(b.row(col), piv_inv);
    // Eliminate all other rows.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const gf::Elem factor = a.at(r, col);
      if (factor != 0) {
        gf::axpy(a.row(r), factor, a.row(col));
        gf::axpy(b.row(r), factor, b.row(col));
      }
    }
  }
  return true;
}

}  // namespace

std::optional<Matrix> Matrix::inverse() const {
  LDS_REQUIRE(rows_ == cols_, "Matrix::inverse: not square");
  Matrix a = *this;
  Matrix b = Matrix::identity(rows_);
  if (!gauss_jordan(a, b)) return std::nullopt;
  return b;
}

std::size_t Matrix::rank() const {
  Matrix a = *this;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols_ && rank < rows_; ++col) {
    std::size_t pivot = rank;
    while (pivot < rows_ && a.at(pivot, col) == 0) ++pivot;
    if (pivot == rows_) continue;
    if (pivot != rank) {
      for (std::size_t j = 0; j < cols_; ++j)
        std::swap(a.at(pivot, j), a.at(rank, j));
    }
    const gf::Elem piv_inv = gf::inv(a.at(rank, col));
    gf::scale(a.row(rank), piv_inv);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == rank) continue;
      const gf::Elem factor = a.at(r, col);
      if (factor != 0) gf::axpy(a.row(r), factor, a.row(rank));
    }
    ++rank;
  }
  return rank;
}

bool Matrix::is_symmetric() const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j)
      if (at(i, j) != at(j, i)) return false;
  return true;
}

std::optional<std::vector<Matrix::Elem>> Matrix::solve(
    std::span<const Elem> bvec) const {
  LDS_REQUIRE(rows_ == cols_, "Matrix::solve: not square");
  LDS_REQUIRE(bvec.size() == rows_, "Matrix::solve: rhs size mismatch");
  Matrix a = *this;
  Matrix b(rows_, 1);
  for (std::size_t i = 0; i < rows_; ++i) b.at(i, 0) = bvec[i];
  if (!gauss_jordan(a, b)) return std::nullopt;
  std::vector<Elem> x(rows_);
  for (std::size_t i = 0; i < rows_; ++i) x[i] = b.at(i, 0);
  return x;
}

std::optional<Matrix> Matrix::solve_matrix(const Matrix& bmat) const {
  LDS_REQUIRE(rows_ == cols_, "Matrix::solve_matrix: not square");
  LDS_REQUIRE(bmat.rows() == rows_, "Matrix::solve_matrix: rhs rows mismatch");
  Matrix a = *this;
  Matrix b = bmat;
  if (!gauss_jordan(a, b)) return std::nullopt;
  return b;
}

Matrix Matrix::select_rows(std::span<const int> rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LDS_REQUIRE(rows[i] >= 0 && static_cast<std::size_t>(rows[i]) < rows_,
                "Matrix::select_rows: index out of range");
    auto src = row(static_cast<std::size_t>(rows[i]));
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::slice_cols(std::size_t c0, std::size_t len) const {
  LDS_REQUIRE(c0 + len <= cols_, "Matrix::slice_cols: out of range");
  Matrix out(rows_, len);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < len; ++j) out.at(i, j) = at(i, c0 + j);
  return out;
}

void Matrix::paste(const Matrix& m, std::size_t r0, std::size_t c0) {
  LDS_REQUIRE(r0 + m.rows() <= rows_ && c0 + m.cols() <= cols_,
              "Matrix::paste: out of range");
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) at(r0 + i, c0 + j) = m.at(i, j);
}

std::shared_ptr<const Matrix> InverseCache::inverse(
    const Matrix& source, const std::vector<int>& rows) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = cache_.find(rows); it != cache_.end()) return it->second;
  }
  auto inv = source.select_rows(rows).slice_cols(0, rows.size()).inverse();
  if (!inv) return nullptr;
  auto shared = std::make_shared<const Matrix>(std::move(*inv));
  std::lock_guard<std::mutex> lk(mu_);
  if (cache_.size() >= 64) cache_.clear();
  cache_.emplace(rows, shared);
  return shared;
}

}  // namespace lds::math
