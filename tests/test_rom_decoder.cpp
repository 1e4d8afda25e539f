#include <gtest/gtest.h>

#include "circuit/rom_decoder.hpp"

namespace {

using namespace ptc::circuit;

std::vector<bool> pattern(unsigned bits, unsigned mask) {
  std::vector<bool> p(std::size_t{1} << bits, false);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = (mask >> i) & 1u;
  return p;
}

class RomBits : public ::testing::TestWithParam<unsigned> {};

TEST_P(RomBits, OneHotPatternsDecodeToChannelIndex) {
  const unsigned bits = GetParam();
  CeilingRomDecoder rom(bits);
  for (unsigned ch = 0; ch < rom.channel_count(); ++ch) {
    const auto d = rom.decode(pattern(bits, 1u << ch));
    EXPECT_EQ(d.code, ch);
    EXPECT_TRUE(d.any_active);
    EXPECT_FALSE(d.boundary);
    EXPECT_FALSE(d.fault);
  }
}

TEST_P(RomBits, AdjacentPairsApplyCeiling) {
  const unsigned bits = GetParam();
  CeilingRomDecoder rom(bits);
  for (unsigned ch = 0; ch + 1 < rom.channel_count(); ++ch) {
    const auto d = rom.decode(pattern(bits, (1u << ch) | (1u << (ch + 1))));
    EXPECT_EQ(d.code, ch + 1);  // ceiling: the higher code wins
    EXPECT_TRUE(d.boundary);
    EXPECT_FALSE(d.fault);
  }
}

TEST_P(RomBits, NonAdjacentPairsAreFaults) {
  const unsigned bits = GetParam();
  if (bits < 2) GTEST_SKIP() << "needs >= 4 channels";
  CeilingRomDecoder rom(bits);
  const auto d = rom.decode(pattern(bits, 0b101));
  EXPECT_TRUE(d.fault);
  EXPECT_TRUE(d.any_active);
  EXPECT_EQ(d.code, 2u);  // still reports the highest active
}

TEST_P(RomBits, AllZerosReportsInactive) {
  const unsigned bits = GetParam();
  CeilingRomDecoder rom(bits);
  const auto d = rom.decode(pattern(bits, 0));
  EXPECT_FALSE(d.any_active);
  EXPECT_FALSE(d.boundary);
  EXPECT_FALSE(d.fault);
  EXPECT_EQ(d.code, 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, RomBits, ::testing::Values(1, 2, 3, 4));

TEST(RomDecoder, PaperFig9Cases) {
  // 3-bit eoADC: B2 alone -> 001; B7 alone -> 110; B4+B5 -> 100.
  CeilingRomDecoder rom(3);
  EXPECT_EQ(rom.decode(pattern(3, 1u << 1)).code, 0b001u);
  EXPECT_EQ(rom.decode(pattern(3, 1u << 6)).code, 0b110u);
  const auto boundary = rom.decode(pattern(3, (1u << 3) | (1u << 4)));
  EXPECT_EQ(boundary.code, 0b100u);
  EXPECT_TRUE(boundary.boundary);
}

TEST(RomDecoder, TripleActivationIsFault) {
  CeilingRomDecoder rom(3);
  const auto d = rom.decode(pattern(3, 0b00000111));
  EXPECT_TRUE(d.fault);
}

TEST(RomDecoder, ExhaustiveConsistencyThreeBits) {
  // Brute-force every 8-channel pattern against a reference decode.
  CeilingRomDecoder rom(3);
  for (unsigned mask = 0; mask < 256; ++mask) {
    const auto d = rom.decode(pattern(3, mask));
    unsigned count = 0, highest = 0, first = 8;
    for (unsigned ch = 0; ch < 8; ++ch) {
      if (mask & (1u << ch)) {
        ++count;
        highest = ch;
        if (first == 8) first = ch;
      }
    }
    EXPECT_EQ(d.any_active, count > 0);
    EXPECT_EQ(d.code, count == 0 ? 0u : highest);
    EXPECT_EQ(d.boundary, count == 2 && highest == first + 1);
    EXPECT_EQ(d.fault, count > 2 || (count == 2 && highest != first + 1));
  }
}

TEST(RomDecoder, RejectsBadConfig) {
  EXPECT_THROW(CeilingRomDecoder(0), std::invalid_argument);
  EXPECT_THROW(CeilingRomDecoder(5), std::invalid_argument);
  CeilingRomDecoder rom(3);
  EXPECT_THROW(rom.decode(std::vector<bool>(4)), std::invalid_argument);
}

}  // namespace
