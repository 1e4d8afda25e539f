#include "common/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace ptc::units {

double dbm_to_watt(double dbm) { return 1e-3 * std::pow(10.0, dbm / 10.0); }

double db_to_ratio(double db) { return std::pow(10.0, db / 10.0); }

std::string si_format(double value, const std::string& unit) {
  struct Prefix {
    double scale;
    const char* symbol;
  };
  static constexpr std::array<Prefix, 11> prefixes = {{{1e12, "T"},
                                                       {1e9, "G"},
                                                       {1e6, "M"},
                                                       {1e3, "k"},
                                                       {1.0, ""},
                                                       {1e-3, "m"},
                                                       {1e-6, "u"},
                                                       {1e-9, "n"},
                                                       {1e-12, "p"},
                                                       {1e-15, "f"},
                                                       {1e-18, "a"}}};
  if (value == 0.0) return "0 " + unit;
  const double magnitude = std::fabs(value);
  const Prefix* chosen = &prefixes.back();
  for (const auto& p : prefixes) {
    if (magnitude >= p.scale) {
      chosen = &p;
      break;
    }
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3g %s%s", value / chosen->scale,
                chosen->symbol, unit.c_str());
  return buffer;
}

}  // namespace ptc::units
