#include "circuit/rom_decoder.hpp"

#include "common/expects.hpp"

namespace ptc::circuit {

CeilingRomDecoder::CeilingRomDecoder(unsigned bits, const RomDecoderConfig& config)
    : bits_(bits), config_(config) {
  expects(bits >= 1 && bits <= 4,
          "ROM decoder materializes 2^(2^bits) words; bits must be in [1, 4]");
  const std::size_t patterns = std::size_t{1} << (std::size_t{1} << bits);
  rom_.resize(patterns);
  for (std::size_t pattern = 0; pattern < patterns; ++pattern) {
    rom_[pattern] = encode_entry(bits, static_cast<unsigned>(pattern));
  }
}

CeilingRomDecoder::Word CeilingRomDecoder::encode_entry(unsigned bits,
                                                        unsigned pattern) {
  const unsigned channels = 1u << bits;
  unsigned highest = 0;
  unsigned count = 0;
  bool adjacent_pair = false;
  for (unsigned ch = 0; ch < channels; ++ch) {
    if (pattern & (1u << ch)) {
      ++count;
      highest = ch;
    }
  }
  if (count == 2) {
    // Check whether the two active channels are adjacent.
    unsigned first = 0;
    for (unsigned ch = 0; ch < channels; ++ch) {
      if (pattern & (1u << ch)) {
        first = ch;
        break;
      }
    }
    adjacent_pair = (highest == first + 1);
  }
  Word word{};
  word.code = static_cast<std::uint8_t>(count == 0 ? 0 : highest);
  const bool any = count > 0;
  const bool boundary = count == 2 && adjacent_pair;
  const bool fault = count > 2 || (count == 2 && !adjacent_pair);
  word.flags = static_cast<std::uint8_t>((any ? 1 : 0) | (boundary ? 2 : 0) |
                                         (fault ? 4 : 0));
  return word;
}

CeilingRomDecoder::Decode CeilingRomDecoder::decode(
    const std::vector<bool>& active) {
  expects(active.size() == channel_count(),
          "decoder input width must equal 2^bits");
  unsigned pattern = 0;
  for (std::size_t ch = 0; ch < active.size(); ++ch) {
    if (active[ch]) pattern |= 1u << ch;
  }
  return decode(pattern);
}

CeilingRomDecoder::Decode CeilingRomDecoder::decode(unsigned pattern) {
  expects(pattern < rom_.size(), "activation pattern wider than 2^bits");
  ++decodes_;
  const Word word = rom_[pattern];
  Decode out;
  out.code = word.code;
  out.any_active = (word.flags & 1) != 0;
  out.boundary = (word.flags & 2) != 0;
  out.fault = (word.flags & 4) != 0;
  return out;
}

double CeilingRomDecoder::consumed_energy() const {
  return static_cast<double>(decodes_) * config_.energy_per_decode;
}

}  // namespace ptc::circuit
