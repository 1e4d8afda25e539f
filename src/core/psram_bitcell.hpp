#ifndef PTC_CORE_PSRAM_BITCELL_HPP
#define PTC_CORE_PSRAM_BITCELL_HPP

#include "circuit/driver.hpp"
#include "core/tech.hpp"
#include "optics/microring.hpp"
#include "optics/photodiode.hpp"
#include "sim/trace.hpp"

/// Cross-coupled differential photonic SRAM (pSRAM) bitcell — paper Fig. 1.
///
/// Two add-drop microrings (M1 driven by storage node Q, M2 by QB) steer a
/// CW optical bias between four photodiodes:
///
///   M1 thru -> P1 (pulls QB toward VDD)     M1 drop -> P2 (pulls QB to GND)
///   M2 thru -> P3 (pulls Q  toward VDD)     M2 drop -> P4 (pulls Q  to GND)
///
/// The rings resonate at the bias wavelength when driven to VDD, so a stored
/// "1" on Q puts M1 on resonance (dropping light into P2, holding QB low)
/// while QB = 0 leaves M2 off resonance (passing light to P3, holding Q
/// high) — an electro-optic positive feedback latch.
///
/// Writes apply a strong optical pulse on the write bitlines:
///   WBL  illuminates P3 and P2  (drives Q -> 1, QB -> 0)
///   WBLB illuminates P1 and P4  (drives Q -> 0, QB -> 1)
/// The write power must exceed the holding photocurrents to flip the cell
/// (paper Sec. II-A); the paper demonstrates 50 ps / 0 dBm pulses at a
/// 20 GHz update rate costing ~0.5 pJ per switching event (Sec. IV-A).
///
/// The model integrates the two storage nodes (C dV/dt = I_up - I_down with
/// rail clamping), first-order ring-driver and photodiode dynamics, and a
/// weak node leakage that makes the cell lose state when the optical bias is
/// removed — pSRAM is volatile, like its electrical namesake.
namespace ptc::core {

struct PsramConfig {
  double vdd = tech_vdd;
  /// CW optical hold bias into PS1 [W] (paper: -20 dBm = 10 uW).
  double bias_power = 10e-6;
  /// WDM channel this cell's rings are tuned to (sets the bias wavelength).
  std::size_t channel = 0;
  /// Write pulse peak power [W] (paper: 0 dBm = 1 mW).
  double write_power = 1e-3;
  /// Write pulse width [s] (paper: 50 ps -> 20 GHz updates).
  double write_pulse_width = 50e-12;
  /// Storage node capacitance [F].
  double node_capacitance = 5e-15;
  /// Node leakage current toward ground [A]; sets the (short) retention time
  /// once the optical/electrical bias is removed.
  double leakage_current = 50e-9;
  /// Splitter excess loss [dB] for PS1..PS3.
  double splitter_excess_db = 0.1;
  optics::PhotodiodeConfig photodiode{};
  circuit::RingDriverConfig driver{};
  double wall_plug_efficiency = tech_wall_plug;
  /// Transient timestep [s].
  double dt = 0.25e-12;
};

/// Result of a device-level transient write.
struct WriteResult {
  bool success = false;        ///< the latch holds the target value afterwards
  double settle_time = 0.0;    ///< time from pulse start until both nodes are
                               ///< within 10% of their target rails [s]
  double laser_energy = 0.0;   ///< wall-plug write-laser energy [J]
  double driver_energy = 0.0;  ///< ring-driver CV^2 energy [J]
  double total_energy() const { return laser_energy + driver_energy; }
};

class PsramBitcell {
 public:
  explicit PsramBitcell(const PsramConfig& config = {});

  /// Places the latch directly into the steady hold state for `value`
  /// (voltages at the rails, ring drivers settled).
  void initialize(bool value);

  /// Device-level transient write of `value` via the write bitlines.
  /// Runs from pulse start until the latch settles (or `timeout`).
  /// Waveforms are recorded into `traces` when provided (columns: wbl, wblb
  /// [W], q, qb [V]) — this is the Fig. 5 experiment.
  WriteResult write(bool value, sim::TraceSet* traces = nullptr,
                    double timeout = 400e-12);

  /// Advances the latch under hold bias only (no write light).  With
  /// `bias_on == false` the optical bias is removed and leakage discharges
  /// the nodes — the retention experiment.
  void hold(double duration, bool bias_on = true);

  /// Stored value (Q above VDD/2).
  bool q() const { return v_q_ > 0.5 * config_.vdd; }
  double q_voltage() const { return v_q_; }

  /// True when Q/QB are complementary and both within 10% of the rails.
  bool is_stable() const;

  const PsramConfig& config() const { return config_; }

 private:
  /// One transient step with the given write powers [W] on each bitline.
  void step_once(double p_wbl, double p_wblb, bool bias_on);

  PsramConfig config_;
  optics::Microring ring_m1_;  ///< driven by Q
  optics::Microring ring_m2_;  ///< driven by QB
  optics::Photodiode pd_;
  circuit::RingDriver driver_d2_;  ///< Q -> M1 (paper's D2)
  circuit::RingDriver driver_d1_;  ///< QB -> M2 (paper's D1)
  circuit::FirstOrderLag pd_lag_p1_;
  circuit::FirstOrderLag pd_lag_p2_;
  circuit::FirstOrderLag pd_lag_p3_;
  circuit::FirstOrderLag pd_lag_p4_;
  double v_q_ = 0.0;
  double v_qb_ = 0.0;
  double ring_input_power_ = 0.0;  ///< per-ring CW bias after PS1
};

}  // namespace ptc::core

#endif  // PTC_CORE_PSRAM_BITCELL_HPP
