#include "common/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expects.hpp"

namespace ptc {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> values) {
  rows_ = values.size();
  cols_ = rows_ ? values.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : values) {
    expects(row.size() == cols_, "Matrix initializer rows must be equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

double Matrix::norm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  expects(rows_ == other.rows_ && cols_ == other.cols_,
          "max_abs_diff requires equal shapes");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  return worst;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scale) {
  for (double& v : data_) v *= scale;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, double scale) { return lhs *= scale; }
Matrix operator*(double scale, Matrix rhs) { return rhs *= scale; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  expects(a.cols() == b.rows(), "matmul inner dimensions must agree");
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  expects(x.size() == a.cols(), "matvec dimension mismatch");
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out[i] += a(i, j) * x[j];
  return out;
}

Svd svd(const Matrix& a, int max_sweeps, double tol) {
  // One-sided Jacobi: orthogonalize the columns of W = A * V by plane
  // rotations accumulated into V; singular values are the column norms.
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  expects(m > 0 && n > 0, "svd requires a non-empty matrix");
  Matrix w = a;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += w(i, p) * w(i, p);
          beta += w(i, q) * w(i, q);
          gamma += w(i, p) * w(i, q);
        }
        off = std::max(off, std::fabs(gamma) / std::max(std::sqrt(alpha * beta), 1e-300));
        if (std::fabs(gamma) <= tol * std::sqrt(alpha * beta)) continue;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (off < tol) break;
  }

  // Column norms are singular values; sort descending.
  std::vector<double> sigma(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) sum += w(i, j) * w(i, j);
    sigma[j] = std::sqrt(sum);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  Svd out;
  out.s.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = sigma[src];
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
    if (sigma[src] > 1e-300) {
      for (std::size_t i = 0; i < m; ++i) out.u(i, j) = w(i, src) / sigma[src];
    } else {
      // Null column: leave U column zero; callers treating rank-deficient
      // inputs should inspect s.
      for (std::size_t i = 0; i < m; ++i) out.u(i, j) = 0.0;
    }
  }
  return out;
}

CMatrix::CMatrix(std::size_t rows, std::size_t cols, value_type fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

CMatrix::value_type& CMatrix::operator()(std::size_t r, std::size_t c) {
  expects(r < rows_ && c < cols_, "CMatrix index out of range");
  return data_[r * cols_ + c];
}

CMatrix::value_type CMatrix::operator()(std::size_t r, std::size_t c) const {
  expects(r < rows_ && c < cols_, "CMatrix index out of range");
  return data_[r * cols_ + c];
}

CMatrix CMatrix::dagger() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = std::conj((*this)(r, c));
  return out;
}

double CMatrix::max_abs_diff(const CMatrix& other) const {
  expects(rows_ == other.rows_ && cols_ == other.cols_,
          "max_abs_diff requires equal shapes");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

CMatrix matmul(const CMatrix& a, const CMatrix& b) {
  expects(a.cols() == b.rows(), "matmul inner dimensions must agree");
  CMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const auto aik = a(i, k);
      if (aik == std::complex<double>{}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

std::vector<std::complex<double>> matvec(
    const CMatrix& a, const std::vector<std::complex<double>>& x) {
  expects(x.size() == a.cols(), "matvec dimension mismatch");
  std::vector<std::complex<double>> out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) out[i] += a(i, j) * x[j];
  return out;
}

bool is_unitary(const CMatrix& u, double tol) {
  if (u.rows() != u.cols()) return false;
  const CMatrix product = matmul(u, u.dagger());
  return product.max_abs_diff(CMatrix::identity(u.rows())) < tol;
}

}  // namespace ptc
