#include <gtest/gtest.h>

#include <stdexcept>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace {

using namespace ptc;
using namespace ptc::units;

TEST(Units, DbmToWattReferencePoints) {
  EXPECT_NEAR(dbm_to_watt(0.0), 1e-3, 1e-12);     // 0 dBm = 1 mW (write laser)
  EXPECT_NEAR(dbm_to_watt(-20.0), 10e-6, 1e-12);  // -20 dBm = 10 uW (bias)
  EXPECT_NEAR(dbm_to_watt(10.0), 10e-3, 1e-12);
  EXPECT_NEAR(dbm_to_watt(-30.0), 1e-6, 1e-15);
}

TEST(Units, DbRatioRoundTrip) {
  EXPECT_NEAR(db_to_ratio(-3.0), 0.501187, 1e-6);
}

TEST(Units, SiFormatChoosesPrefixes) {
  EXPECT_EQ(si_format(2.32e-12, "J"), "2.32 pJ");
  EXPECT_EQ(si_format(4.096e12, "OPS"), "4.1 TOPS");
  EXPECT_EQ(si_format(0.0, "W"), "0 W");
  EXPECT_EQ(si_format(11e-3, "W"), "11 mW");
}

TEST(Expects, ThrowsWithMessage) {
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_NO_THROW(ensures(true, "fine"));
  EXPECT_THROW(expects(false, "bad input"), std::invalid_argument);
  EXPECT_THROW(ensures(false, "bad state"), std::logic_error);
  try {
    expects(false, "bad input");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad input"), std::string::npos);
  }
}

}  // namespace
