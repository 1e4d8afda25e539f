#ifndef PTC_NN_QUANT_HPP
#define PTC_NN_QUANT_HPP

#include "common/linalg.hpp"

/// Quantization schemes that map real-valued network tensors onto what the
/// photonic hardware can represent: non-negative analog intensities in
/// [0, 1] for activations, and n-bit unsigned pSRAM words for weights.
/// Signed weights use the offset trick w -> (w/scale + 1)/2, undone
/// digitally after the optical dot product.
namespace ptc::nn {

/// Affine mapping of a signed tensor onto the unsigned optical domain.
struct SignedMapping {
  double scale = 1.0;  ///< max |w| of the original tensor

  /// w (|w| <= scale) -> [0, 1].
  double to_unit(double w) const;
  /// [0, 1] -> w.
  double from_unit(double u) const;
};

/// Computes the mapping for a tensor (scale = max abs value; 1 when all 0).
SignedMapping signed_mapping_for(const Matrix& w);

/// Maps a whole matrix into [0, 1] with the given mapping.
Matrix to_unit_matrix(const Matrix& w, const SignedMapping& mapping);

/// Normalization of a non-negative activation matrix to [0, 1]: writes
/// x / scale into `out` (resized to x's shape) without mutating x and
/// returns the scale (max element; 1 when all zero).
double normalized_activations(const Matrix& x, Matrix& out);

}  // namespace ptc::nn

#endif  // PTC_NN_QUANT_HPP
