#ifndef PTC_COMMON_LINALG_HPP
#define PTC_COMMON_LINALG_HPP

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/expects.hpp"

/// Small dense linear-algebra layer.  The photonic tensor core itself only
/// needs real matrices (weights / activations), while the MZI-mesh baseline
/// (Table I, ref. [33]) needs complex unitaries and a singular value
/// decomposition to program arbitrary matrices into a Clements mesh.
namespace ptc {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construction from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> values);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Bounds-checked element access; inline, because the tiling and
  /// readout loops index every sample through it.
  double& operator()(std::size_t r, std::size_t c) {
    expects(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    expects(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Raw storage (row-major), useful for iteration.
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix transposed() const;

  /// Frobenius norm.
  double norm() const;

  /// Element-wise maximum absolute difference against another matrix of the
  /// same shape.
  double max_abs_diff(const Matrix& other) const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scale);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double scale);
Matrix operator*(double scale, Matrix rhs);

/// Matrix product (inner dimensions must agree).
Matrix matmul(const Matrix& a, const Matrix& b);

/// Matrix-vector product (x.size() must equal a.cols()).
std::vector<double> matvec(const Matrix& a, const std::vector<double>& x);

/// Result of a thin singular value decomposition A = U * diag(S) * V^T.
struct Svd {
  Matrix u;                     ///< rows x rank orthonormal columns
  std::vector<double> s;        ///< singular values, descending
  Matrix v;                     ///< cols x rank orthonormal columns
};

/// One-sided Jacobi SVD for real matrices.  Intended for the small (<= 64x64)
/// matrices that get programmed into the MZI-mesh baseline; O(n^3) per sweep.
Svd svd(const Matrix& a, int max_sweeps = 60, double tol = 1e-12);

/// Dense row-major complex matrix used to model coherent optical meshes.
class CMatrix {
 public:
  using value_type = std::complex<double>;

  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols, value_type fill = {});

  static CMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  value_type& operator()(std::size_t r, std::size_t c);
  value_type operator()(std::size_t r, std::size_t c) const;

  /// Conjugate transpose.
  CMatrix dagger() const;

  /// Maximum absolute element difference against `other` (same shape).
  double max_abs_diff(const CMatrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<value_type> data_;
};

/// Complex matrix product.
CMatrix matmul(const CMatrix& a, const CMatrix& b);

/// Complex matrix-vector product.
std::vector<std::complex<double>> matvec(const CMatrix& a,
                                         const std::vector<std::complex<double>>& x);

/// True when u * u^dagger is within tol of identity.
bool is_unitary(const CMatrix& u, double tol = 1e-9);

}  // namespace ptc

#endif  // PTC_COMMON_LINALG_HPP
