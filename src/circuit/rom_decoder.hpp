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
/// fighting (no static current in the ROM).
namespace ptc::circuit {

struct RomDecoderConfig {
  double energy_per_decode = 45e-15;  ///< dynamic energy per conversion [J]
  double static_power = 40e-6;        ///< leakage [W]
};

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
  explicit CeilingRomDecoder(unsigned bits,
                             const RomDecoderConfig& config = {});

  /// Decodes a channel activation vector of length 2^bits.
  Decode decode(const std::vector<bool>& active);

  /// Decodes a packed activation pattern: bit k set when channel k fired.
  /// Same ROM word and decode count as the vector form.
  Decode decode(unsigned pattern);

  unsigned bits() const { return bits_; }
  std::size_t channel_count() const { return std::size_t{1} << bits_; }

  /// Dynamic energy consumed so far [J].
  double consumed_energy() const;
  std::size_t decode_count() const { return decodes_; }

  const RomDecoderConfig& config() const { return config_; }

 private:
  struct Word {
    std::uint8_t code;
    std::uint8_t flags;  // bit0: any_active, bit1: boundary, bit2: fault
  };

  static Word encode_entry(unsigned bits, unsigned pattern);

  unsigned bits_;
  RomDecoderConfig config_;
  std::vector<Word> rom_;
  std::size_t decodes_ = 0;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_ROM_DECODER_HPP
