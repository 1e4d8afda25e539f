#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/psram_array.hpp"

namespace {

using namespace ptc::core;

TEST(PsramArray, PaperGeometry768Bitcells) {
  const PsramArray array;  // 16 x 16 x 3 bits
  EXPECT_EQ(array.rows(), 16u);
  EXPECT_EQ(array.words_per_row(), 16u);
  EXPECT_EQ(array.bits_per_word(), 3u);
  EXPECT_EQ(array.bitcell_count(), 768u);
  EXPECT_EQ(array.max_weight(), 7u);
}

TEST(PsramArray, WordReadBack) {
  PsramArray array;
  array.write_word(3, 5, 6);
  EXPECT_EQ(array.word(3, 5), 6u);
  EXPECT_EQ(array.word(3, 6), 0u);
  EXPECT_EQ(array.words()[3 * array.words_per_row() + 5], 6u);  // row-major
}

TEST(PsramArray, WriteEnergyCountsOnlyFlippedBits) {
  PsramArray array;
  // 0 -> 7 flips 3 bits.
  EXPECT_EQ(array.write_word(0, 0, 7), 3u);
  const double after_first = array.ledger().energy("psram_write");
  EXPECT_NEAR(after_first, 3 * 0.493e-12, 1e-15);
  // 7 -> 7 flips nothing.
  EXPECT_EQ(array.write_word(0, 0, 7), 0u);
  EXPECT_NEAR(array.ledger().energy("psram_write"), after_first, 1e-18);
  // 7 -> 6 flips one bit.
  EXPECT_EQ(array.write_word(0, 0, 6), 1u);
}

TEST(PsramArray, MatrixReloadLatencyAt20GHz) {
  PsramArray array;
  std::vector<std::uint32_t> values(16 * 16, 5);
  const double latency = array.write_matrix(values);
  // 16 words x 3 bits per row at 20 GHz = 2.4 ns (rows in parallel).
  EXPECT_NEAR(latency * 1e9, 2.4, 1e-9);
  EXPECT_EQ(array.word(15, 15), 5u);
}

TEST(PsramArray, RewritingTheStoredMatrixCostsNothing) {
  PsramArray array;
  std::vector<std::uint32_t> values(16 * 16);
  for (std::uint32_t load = 0; load < 12; ++load) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<std::uint32_t>((i * 5 + load * 3) % 8);
    }
    array.write_matrix(values);
  }

  const std::vector<std::uint32_t> stored(array.words().begin(),
                                          array.words().end());
  const double energy = array.ledger().energy("psram_write");
  const std::uint64_t flips = array.bit_flips();
  const std::uint64_t writes = array.word_writes();
  EXPECT_EQ(array.write_matrix(stored), array.reload_time());
  EXPECT_EQ(array.ledger().energy("psram_write"), energy);  // bitwise
  EXPECT_EQ(array.bit_flips(), flips);
  EXPECT_EQ(array.word_writes(), writes + 256);  // every word still counts
  EXPECT_TRUE(std::equal(stored.begin(), stored.end(), array.words().begin()));

  // One changed word books exactly its own flips: 0b101 toggles two bits.
  std::vector<std::uint32_t> one_changed = stored;
  one_changed[37] ^= 0b101u;
  EXPECT_EQ(array.write_matrix(one_changed), array.reload_time());
  EXPECT_EQ(array.bit_flips(), flips + 2);
  EXPECT_EQ(array.ledger().energy("psram_write"),
            energy + 2.0 * PsramArrayConfig{}.write_energy);
  EXPECT_EQ(array.word(2, 5), one_changed[37]);
}

TEST(PsramArray, RandomWritesBookExactlyTheirFlips) {
  // A seeded sequence of matrix and single-word writes, each keeping a
  // random share of the stored words.  After every call the array holds
  // exactly the requested words, and the flip and word-write counts and
  // the write energy grew by exactly what the words passed toggled — the
  // energy bitwise, against a reference summed in word order.
  PsramArray array;
  const double write_energy = PsramArrayConfig{}.write_energy;
  const std::size_t per_row = array.words_per_row();
  ptc::Rng rng(2026);
  std::vector<std::uint32_t> expected(array.words().begin(),
                                      array.words().end());
  std::uint64_t flips = 0;
  std::uint64_t writes = 0;
  double energy = 0.0;
  // Requests word `index`: its stored value with probability `keep`, a
  // random word otherwise; books the reference counts.
  const auto request = [&](std::size_t index, double keep) {
    const std::uint32_t old = expected[index];
    const std::uint32_t value =
        rng.uniform() < keep
            ? old
            : static_cast<std::uint32_t>(rng.below(array.max_weight() + 1));
    const int toggled = std::popcount(old ^ value);
    flips += static_cast<std::uint64_t>(toggled);
    energy += static_cast<double>(toggled) * write_energy;
    ++writes;
    expected[index] = value;
  };
  for (int call = 0; call < 200; ++call) {
    const double keep = rng.uniform();
    if (rng.below(2) == 0) {
      for (std::size_t i = 0; i < expected.size(); ++i) request(i, keep);
      EXPECT_EQ(array.write_matrix(expected), array.reload_time());
    } else {
      const std::size_t index = rng.below(expected.size());
      request(index, keep);
      array.write_word(index / per_row, index % per_row, expected[index]);
    }
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           array.words().begin(), array.words().end()))
        << "call " << call;
    ASSERT_EQ(array.bit_flips(), flips) << "call " << call;
    ASSERT_EQ(array.word_writes(), writes) << "call " << call;
    ASSERT_EQ(array.ledger().energy("psram_write"), energy)  // bitwise
        << "call " << call;
  }
}

TEST(PsramArray, WordWriteTime) {
  const PsramArray array;
  EXPECT_NEAR(array.word_write_time() * 1e12, 150.0, 1e-6);  // 3 x 50 ps
}

TEST(PsramArray, HoldWallPowerScalesWithCells) {
  const PsramArray array;
  // 768 cells x 10 uW / 0.23 = 33.4 mW.
  EXPECT_NEAR(array.hold_wall_power() * 1e3, 33.4, 0.1);
}

TEST(PsramArray, CustomGeometry) {
  PsramArrayConfig config;
  config.rows = 4;
  config.words_per_row = 8;
  config.bits_per_word = 5;
  PsramArray array(config);
  EXPECT_EQ(array.bitcell_count(), 160u);
  EXPECT_EQ(array.max_weight(), 31u);
  array.write_word(3, 7, 31);
  EXPECT_EQ(array.word(3, 7), 31u);
}

TEST(PsramArray, RejectsOutOfRange) {
  PsramArray array;
  EXPECT_THROW(array.write_word(16, 0, 1), std::invalid_argument);
  EXPECT_THROW(array.write_word(0, 16, 1), std::invalid_argument);
  EXPECT_THROW(array.write_word(0, 0, 8), std::invalid_argument);
  EXPECT_THROW(array.word(0, 16), std::invalid_argument);
  EXPECT_THROW(array.write_matrix(std::vector<std::uint32_t>(5)),
               std::invalid_argument);
}

}  // namespace
