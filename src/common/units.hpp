#ifndef PTC_COMMON_UNITS_HPP
#define PTC_COMMON_UNITS_HPP

#include <string>

/// Optical power and decibel conversions and SI-prefixed pretty printing.
/// Plain doubles carry SI units (watt, metre, second, volt); the helpers
/// below convert to and from the engineering units the paper quotes (dBm,
/// dB, pJ, ...).
namespace ptc::units {

/// Converts optical power from dBm to watts.  dbm_to_watt(0) == 1 mW.
double dbm_to_watt(double dbm);

/// Converts decibels to a power ratio.
double db_to_ratio(double db);

/// Formats a value with an SI prefix and unit, e.g. si_format(2.32e-12, "J")
/// returns "2.32 pJ".  Uses three significant digits.
std::string si_format(double value, const std::string& unit);

}  // namespace ptc::units

#endif  // PTC_COMMON_UNITS_HPP
