#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "circuit/energy.hpp"

namespace {

using ptc::circuit::EnergyLedger;

TEST(EnergyLedger, AccumulatesPerCategory) {
  EnergyLedger ledger;
  ledger.add_energy("laser", 1e-12);
  ledger.add_energy("laser", 2e-12);
  ledger.add_energy("driver", 0.5e-12);
  EXPECT_NEAR(ledger.energy("laser"), 3e-12, 1e-18);
  EXPECT_NEAR(ledger.energy("driver"), 0.5e-12, 1e-18);
  EXPECT_NEAR(ledger.total_energy(), 3.5e-12, 1e-18);
  EXPECT_DOUBLE_EQ(ledger.energy("unknown"), 0.0);
}

TEST(EnergyLedger, StaticPowerAccrual) {
  EnergyLedger ledger;
  ledger.add_static_power("adc", 18.6e-3);
  ledger.add_static_power("tia", 38e-3);
  EXPECT_NEAR(ledger.static_power("adc"), 18.6e-3, 1e-12);
  EXPECT_NEAR(ledger.static_power("tia"), 38e-3, 1e-12);
  ledger.accrue_static(125e-12);  // one 8 GS/s sample window
  EXPECT_NEAR(ledger.energy("adc"), 18.6e-3 * 125e-12, 1e-18);
  EXPECT_NEAR(ledger.energy("tia"), 38e-3 * 125e-12, 1e-18);
}

TEST(EnergyLedger, RepeatedStaticRegistrationAccumulates) {
  EnergyLedger ledger;
  for (int i = 0; i < 16; ++i) ledger.add_static_power("adc", 18.6e-3);
  EXPECT_NEAR(ledger.static_power("adc"), 16 * 18.6e-3, 1e-9);
}

TEST(EnergyLedger, EntriesIncludeStaticOnlyCategories) {
  EnergyLedger ledger;
  ledger.add_energy("write", 1e-12);
  ledger.add_static_power("hold", 1e-3);
  const auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 2u);
  bool saw_hold = false;
  for (const auto& e : entries) {
    if (e.category == "hold") {
      saw_hold = true;
      EXPECT_DOUBLE_EQ(e.energy, 0.0);
      EXPECT_DOUBLE_EQ(e.static_power, 1e-3);
    }
  }
  EXPECT_TRUE(saw_hold);
}

TEST(EnergyLedger, ResetAndValidation) {
  EnergyLedger ledger;
  ledger.add_energy("x", 1.0);
  ledger.reset();
  EXPECT_DOUBLE_EQ(ledger.total_energy(), 0.0);
  EXPECT_THROW(ledger.add_energy("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.add_static_power("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.accrue_static(-1.0), std::invalid_argument);
}

/// Reference ledger: the plain map-order loop accrue_static must equal.
struct ReferenceLedger {
  std::map<std::string, double> energies;
  std::map<std::string, double> static_powers;

  void add_energy(const std::string& c, double j) { energies[c] += j; }
  void add_static_power(const std::string& c, double w) {
    static_powers[c] += w;
  }
  void accrue_static(double dt) {
    for (const auto& [c, w] : static_powers) energies[c] += w * dt;
  }
};

/// Applies one operation to both ledgers.
struct Twin {
  EnergyLedger ledger;
  ReferenceLedger reference;

  void add_energy(const std::string& c, double j) {
    ledger.add_energy(c, j);
    reference.add_energy(c, j);
  }
  void add_static_power(const std::string& c, double w) {
    ledger.add_static_power(c, w);
    reference.add_static_power(c, w);
  }
  void accrue(double dt, int times) {
    for (int i = 0; i < times; ++i) {
      ledger.accrue_static(dt);
      reference.accrue_static(dt);
    }
  }
  void reset() {
    ledger.reset();
    reference = {};
  }
};

void expect_bitwise_equal(const Twin& twin, const char* stage) {
  // Static-only categories read 0 J until their first accrual.
  std::map<std::string, double> expected = twin.reference.energies;
  for (const auto& [c, w] : twin.reference.static_powers) {
    expected.try_emplace(c, 0.0);
  }
  const auto entries = twin.ledger.entries();
  ASSERT_EQ(entries.size(), expected.size()) << stage;
  for (const auto& entry : entries) {
    ASSERT_EQ(expected.count(entry.category), 1u) << stage;
    EXPECT_EQ(entry.energy, expected[entry.category])
        << stage << ": " << entry.category;
  }
}

TEST(EnergyLedger, StaticAccrualEqualsMapOrderLoopBitForBit) {
  Twin twin;
  twin.add_static_power("tia", 38.1e-3);
  twin.add_static_power("adc", 18.6e-3);
  twin.accrue(125e-12, 100);
  // A new energy-only category lands between the static ones in map order.
  twin.add_energy("bias", 3.3e-15);
  twin.accrue(1.0 / 3.0e9, 37);
  expect_bitwise_equal(twin, "after accrual");

  // Registering more static power (new and existing categories) re-derives
  // the slots.
  twin.add_static_power("adc", 0.7e-3);
  twin.add_static_power("clock", 3e-3);
  twin.accrue(125e-12, 50);
  expect_bitwise_equal(twin, "after add_static_power");

  twin.reset();
  twin.accrue(125e-12, 3);  // nothing registered: nothing accrues
  twin.add_static_power("laser", 0.25);
  twin.accrue(7e-12, 20);
  expect_bitwise_equal(twin, "after reset");

  // A copy accrues into its own maps, never into its source's.
  Twin copy{EnergyLedger(twin.ledger), twin.reference};
  copy.accrue(125e-12, 9);
  twin.accrue(3e-12, 4);
  expect_bitwise_equal(copy, "copy-constructed");
  expect_bitwise_equal(twin, "copy source");

  Twin assigned;
  assigned.add_static_power("other", 1.0);
  assigned.accrue(1e-9, 2);  // the assignee's own slots are live
  assigned.ledger = twin.ledger;
  assigned.reference = twin.reference;
  assigned.accrue(125e-12, 11);
  twin.accrue(5e-12, 2);
  expect_bitwise_equal(assigned, "copy-assigned");
  expect_bitwise_equal(twin, "assignment source");

  Twin moved{std::move(assigned.ledger), assigned.reference};
  moved.accrue(125e-12, 6);
  expect_bitwise_equal(moved, "move-constructed");
}

}  // namespace
