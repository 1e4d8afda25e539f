#ifndef PTC_COMMON_LINALG_HPP
#define PTC_COMMON_LINALG_HPP

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/expects.hpp"

/// Small dense real linear-algebra layer for weights and activations.
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

}  // namespace ptc

#endif  // PTC_COMMON_LINALG_HPP
