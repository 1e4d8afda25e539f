#ifndef PTC_CIRCUIT_DRIVER_HPP
#define PTC_CIRCUIT_DRIVER_HPP

#include "circuit/circuit.hpp"

/// Electrical driver (the paper's D1/D2) that buffers a pSRAM storage node
/// onto a microring's pn junction.  Models a rail-to-rail buffer with a
/// first-order bandwidth and CV^2 energy on the (driver + junction) load.
namespace ptc::circuit {

struct RingDriverConfig {
  double vdd = 1.8;              ///< output swing [V]
  double bandwidth_tau = 4e-12;  ///< output time constant [s]
  double load_capacitance = 85e-15;  ///< driver self + wiring + junction [F]
  /// If true the driver regenerates (buffers digitally): output targets the
  /// rail selected by input > vdd/2.  If false it is a unity-gain follower.
  bool digital = true;
};

class RingDriver {
 public:
  explicit RingDriver(const RingDriverConfig& config = {});

  /// Advances the driver by dt toward the target implied by v_in and returns
  /// the new output voltage (which callers apply to Microring::set_bias).
  double step(double v_in, double dt);

  double output() const { return lag_.value(); }
  void reset(double v) { lag_.reset(v); }

  /// Dynamic energy dissipated so far, accumulated from actual output
  /// movement (C * Vdd * |dV| for a rail-to-rail driver) [J].
  double consumed_energy() const { return consumed_energy_; }

  const RingDriverConfig& config() const { return config_; }

 private:
  RingDriverConfig config_;
  FirstOrderLag lag_;
  double consumed_energy_ = 0.0;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_DRIVER_HPP
