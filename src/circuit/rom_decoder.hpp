#ifndef PTC_CIRCUIT_ROM_DECODER_HPP
#define PTC_CIRCUIT_ROM_DECODER_HPP

#include <cstdint>
#include <vector>

/// ROM-based ceiling-priority decoder (paper Sec. II-C).
///
/// The eoADC produces 2^p channel activations B_1..B_{2^p}; in normal
/// operation exactly one is active (1-hot), but when the analog input sits at
/// the boundary between two adjacent quantization bins *both* neighbours
/// activate (paper Fig. 9, V_IN = 2 V).  The decoder implements a ceiling
/// function: it emits the code of the highest active channel, which resolves
/// boundary cases deterministically and prevents two output codes from
/// fighting (no static current in the ROM).  Decoding is a pure table
/// lookup: the converter that owns the decoder bills its power
/// (`core::EoAdcConfig::decoder_static_power`).
namespace ptc::circuit {

class CeilingRomDecoder {
 public:
  struct Decode {
    unsigned code = 0;        ///< p-bit output code
    bool any_active = false;  ///< at least one channel fired
    bool boundary = false;    ///< two adjacent channels fired (ceiling applied)
    bool fault = false;       ///< activation pattern not 1-hot / adjacent pair
  };

  /// bits in [1, 4]: the ROM is explicitly materialized with 2^(2^bits)
  /// words, faithful to a ROM implementation.
  explicit CeilingRomDecoder(unsigned bits);

  /// Decodes a channel activation vector of length 2^bits.
  Decode decode(const std::vector<bool>& active) const;

  /// Decodes a packed activation pattern: bit k set when channel k fired.
  /// Same ROM word as the vector form.
  Decode decode(unsigned pattern) const;

  unsigned bits() const { return bits_; }
  std::size_t channel_count() const { return std::size_t{1} << bits_; }

 private:
  struct Word {
    std::uint8_t code;
    std::uint8_t flags;  // bit0: any_active, bit1: boundary, bit2: fault
  };

  static Word encode_entry(unsigned bits, unsigned pattern);

  unsigned bits_;
  std::vector<Word> rom_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_ROM_DECODER_HPP
