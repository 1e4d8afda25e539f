#include "common/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace ptc {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> values) {
  rows_ = values.size();
  cols_ = rows_ ? values.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : values) {
    expects(row.size() == cols_, "Matrix initializer rows must be equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
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

}  // namespace ptc
