#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "core/psram_array.hpp"
#include "core/tensor_core.hpp"

namespace {

using namespace ptc::core;

/// Writes a whole matrix in row-sized blocks, with no per-block hook.
double write_rows(PsramArray& array,
                  const std::vector<std::uint32_t>& values) {
  return array.write_matrix(values, array.words_per_row(),
                            [](std::size_t) {});
}

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
  const double latency = write_rows(array, values);
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
    write_rows(array, values);
  }

  const std::vector<std::uint32_t> stored(array.words().begin(),
                                          array.words().end());
  const double energy = array.ledger().energy("psram_write");
  const std::uint64_t flips = array.bit_flips();
  const std::uint64_t writes = array.word_writes();
  EXPECT_EQ(write_rows(array, stored), array.reload_time());
  EXPECT_EQ(array.ledger().energy("psram_write"), energy);  // bitwise
  EXPECT_EQ(array.bit_flips(), flips);
  EXPECT_EQ(array.word_writes(), writes + 256);  // every word still counts
  EXPECT_TRUE(std::equal(stored.begin(), stored.end(), array.words().begin()));

  // One changed word books exactly its own flips: 0b101 toggles two bits.
  std::vector<std::uint32_t> one_changed = stored;
  one_changed[37] ^= 0b101u;
  EXPECT_EQ(write_rows(array, one_changed), array.reload_time());
  EXPECT_EQ(array.bit_flips(), flips + 2);
  EXPECT_EQ(array.ledger().energy("psram_write"),
            energy + 2.0 * PsramArrayConfig{}.write_energy);
  EXPECT_EQ(array.word(2, 5), one_changed[37]);
}

/// What one pSRAM must hold and must have booked: the requested words, and
/// the flips, word writes and write energy (summed in word order) they
/// cost.
struct Books {
  explicit Books(std::size_t words) : expected(words, 0) {}

  /// Books a request of word `index` = `value`.
  void request(std::size_t index, std::uint32_t value) {
    const int toggled = std::popcount(expected[index] ^ value);
    flips += static_cast<std::uint64_t>(toggled);
    energy += static_cast<double>(toggled) * PsramArrayConfig{}.write_energy;
    ++writes;
    expected[index] = value;
  }

  std::vector<std::uint32_t> expected;
  std::uint64_t flips = 0;
  std::uint64_t writes = 0;
  double energy = 0.0;
};

::testing::AssertionResult holds(const PsramArray& array, const Books& books) {
  if (!std::equal(books.expected.begin(), books.expected.end(),
                  array.words().begin(), array.words().end())) {
    return ::testing::AssertionFailure() << "stored words differ";
  }
  if (array.bit_flips() != books.flips) {
    return ::testing::AssertionFailure()
           << "bit_flips " << array.bit_flips() << " != " << books.flips;
  }
  if (array.word_writes() != books.writes) {
    return ::testing::AssertionFailure()
           << "word_writes " << array.word_writes() << " != " << books.writes;
  }
  const double energy = array.ledger().energy("psram_write");
  if (energy != books.energy) {  // bitwise
    return ::testing::AssertionFailure()
           << "psram_write " << energy << " != " << books.energy;
  }
  return ::testing::AssertionSuccess();
}

TEST(PsramArray, RandomWritesBookExactlyTheirFlips) {
  // A seeded sequence of matrix and single-word writes, each keeping a
  // random share of the stored words, with matrices repeated as decode's
  // x+/x- halves repeat them.  Matrix requests go to a bare array in
  // blocks of 1 to 256 words, and through the loads (integer and
  // normalized) of a varied 3-bit and a varied 6-bit TensorCore.  After
  // every call each array holds exactly the requested words, and the flip
  // and word-write counts and the write energy grew by exactly what the
  // words passed toggled — the energy bitwise, against a reference summed
  // in word order.
  PsramArray array;
  const std::size_t per_row = array.words_per_row();
  std::vector<TensorCore> cores;
  cores.reserve(2);
  for (const unsigned bits : {3u, 6u}) {
    TensorCoreConfig config;
    config.weight_bits = bits;
    config.variation.seed = 40 + bits;
    cores.emplace_back(config);
  }
  Books array_books(array.words().size());
  std::vector<Books> core_books(cores.size(), Books(array.words().size()));
  ptc::Rng rng(2026);
  // Requests word `index` of `books`: its stored value with probability
  // `keep`, a random word below 2^bits otherwise.
  const auto request = [&](Books& books, std::size_t index, double keep,
                           std::uint32_t max) {
    const std::uint32_t value =
        rng.uniform() < keep ? books.expected[index]
                             : static_cast<std::uint32_t>(rng.below(max + 1));
    books.request(index, value);
  };
  // Loads the books' words into `core`, as integers or as normalized
  // values that quantize back to them.
  const auto load = [&](TensorCore& core, const Books& books) {
    if (rng.below(2) == 0) {
      std::vector<std::vector<std::uint32_t>> rows(core.rows());
      for (std::size_t r = 0; r < core.rows(); ++r) {
        rows[r].assign(books.expected.begin() + r * core.cols(),
                       books.expected.begin() + (r + 1) * core.cols());
      }
      EXPECT_EQ(core.load_weights(rows), core.psram().reload_time());
    } else {
      ptc::Matrix w(core.rows(), core.cols());
      for (std::size_t i = 0; i < books.expected.size(); ++i) {
        w.data()[i] = static_cast<double>(books.expected[i]) /
                      static_cast<double>(core.max_weight());
      }
      EXPECT_EQ(core.load_weights_normalized(w), core.psram().reload_time());
    }
  };
  for (int call = 0; call < 200; ++call) {
    const double keep = rng.uniform();
    const std::uint64_t kind = call == 0 ? 0 : rng.below(3);
    if (kind < 2) {
      // 0: a new matrix; 1: the previous matrix again.
      const double share = kind == 0 ? keep : 1.0;
      for (std::size_t i = 0; i < array_books.expected.size(); ++i) {
        request(array_books, i, share, array.max_weight());
      }
      const std::size_t block = std::size_t{1} << rng.below(9);
      std::size_t stored_blocks = 0;
      EXPECT_EQ(array.write_matrix(array_books.expected, block,
                                   [&](std::size_t first) {
                                     EXPECT_EQ(first % block, 0u);
                                     ++stored_blocks;
                                   }),
                array.reload_time());
      if (kind == 1) {
        EXPECT_EQ(stored_blocks, 0u) << "call " << call;
      }
      for (std::size_t c = 0; c < cores.size(); ++c) {
        for (std::size_t i = 0; i < core_books[c].expected.size(); ++i) {
          request(core_books[c], i, share, cores[c].max_weight());
        }
        load(cores[c], core_books[c]);
      }
    } else {
      const std::size_t index = rng.below(array_books.expected.size());
      request(array_books, index, keep, array.max_weight());
      array.write_word(index / per_row, index % per_row,
                       array_books.expected[index]);
    }
    ASSERT_TRUE(holds(array, array_books)) << "call " << call;
    for (std::size_t c = 0; c < cores.size(); ++c) {
      ASSERT_TRUE(holds(cores[c].psram(), core_books[c]))
          << "call " << call << ", " << cores[c].weight_bits() << "-bit core";
    }
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
  EXPECT_THROW(write_rows(array, std::vector<std::uint32_t>(5)),
               std::invalid_argument);
  // Blocks must tile the array.
  EXPECT_THROW(array.write_matrix(std::vector<std::uint32_t>(256), 3,
                                  [](std::size_t) {}),
               std::invalid_argument);
}

}  // namespace
