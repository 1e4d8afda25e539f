#include "optics/frequency_comb.hpp"

#include <algorithm>

#include "common/expects.hpp"
#include "common/units.hpp"

namespace ptc::optics {

FrequencyComb::FrequencyComb(std::vector<double> wavelengths,
                             double power_per_line)
    : wavelengths_(std::move(wavelengths)), power_per_line_(power_per_line) {
  expects(!wavelengths_.empty(), "a comb needs at least one line");
  expects(std::is_sorted(wavelengths_.begin(), wavelengths_.end()) &&
              std::adjacent_find(wavelengths_.begin(), wavelengths_.end()) ==
                  wavelengths_.end(),
          "comb wavelengths must be strictly increasing");
  expects(wavelengths_.front() > 0.0, "wavelengths must be positive");
  expects(power_per_line >= 0.0, "comb line power must be non-negative");
}

WdmSignal FrequencyComb::emit() const {
  WdmSignal out;
  for (double w : wavelengths_) out.add_channel(w, power_per_line_);
  return out;
}

IntensityEncoder::IntensityEncoder(double insertion_loss_db, double extinction_db)
    : insertion_loss_db_(insertion_loss_db), extinction_db_(extinction_db) {
  expects(insertion_loss_db >= 0.0, "insertion loss must be >= 0 dB");
  expects(extinction_db > 0.0, "extinction ratio must be > 0 dB");
}

WdmSignal IntensityEncoder::encode(const WdmSignal& comb,
                                   const std::vector<double>& values) const {
  expects(values.size() == comb.size(),
          "encoder needs one value per comb line");
  const double loss = units::db_to_ratio(-insertion_loss_db_);
  const double floor = units::db_to_ratio(-extinction_db_);
  WdmSignal out = comb;
  for (std::size_t i = 0; i < values.size(); ++i) {
    expects(values[i] >= 0.0 && values[i] <= 1.0,
            "encoded values must be normalized to [0, 1]");
    // Finite extinction: transmission spans [floor, 1] instead of [0, 1].
    const double transmission = floor + (1.0 - floor) * values[i];
    out.channel(i).power *= loss * transmission;
  }
  return out;
}

}  // namespace ptc::optics
