#ifndef PTC_CORE_TENSOR_CORE_HPP
#define PTC_CORE_TENSOR_CORE_HPP

#include <cstdint>
#include <vector>

#include "circuit/energy.hpp"
#include "common/linalg.hpp"
#include "core/eoadc.hpp"
#include "core/psram_array.hpp"
#include "core/vector_macro.hpp"

/// Mixed-signal multi-bit scalable 2D photonic tensor core — paper Fig. 4 /
/// Sec. III & IV-D.
///
/// The core tiles the 1x4 WDM vector-multiply macro: each of the `rows`
/// output rows holds cols/4 macros whose photocurrents sum on the row's
/// readout node, pass through a high-bandwidth TIA (ref. [52]) and are
/// digitized by that row's eoADC.  Every row's eoADC is the same design, so
/// the core models them with one converter built from `config.adc`: the
/// rows share one reference ladder (per-row ladder mismatch is not
/// modeled), while each row keeps its own dead-ladder fault flag.  The row
/// TIA is an ideal full-scale-to-V_FS map times the readout gain, and
/// enters the model only through its power.  Input vectors are broadcast to
/// all rows; weights live in the embedded pSRAM array (16 x 16 x 3 bits =
/// 768 bitcells in the paper's configuration) and update at 20 GHz.
///
/// Ops accounting follows the paper: one ADC sample completes `rows` dot
/// products of length `cols`, i.e. rows * (cols multiplies + cols adds)
/// operations; at 8 GS/s (ADC-limited) the 16x16 core reaches
/// 16 * 32 * 8e9 = 4.10 TOPS.
namespace ptc::core {

struct TensorCoreConfig {
  std::size_t rows = 16;
  std::size_t cols = 16;
  unsigned weight_bits = 3;
  VectorMacroConfig macro{};
  EoAdcConfig adc{};
  PsramArrayConfig psram{};  ///< geometry fields are overridden to match
  /// Static power of one row's 42 GHz-class readout TIA [52] [W].
  double row_tia_power = 38e-3;
  /// Average fraction of write bandwidth in use (weight streaming duty).
  double weight_update_duty = 0.66;
  /// Digital control + clock distribution power [W].
  double control_power = 160e-3;
  double wall_plug_efficiency = tech_wall_plug;
  /// Calibrated fast path: at load_weights time the core freezes every
  /// macro's ring-chain transmissions (they only change at weight load,
  /// detuning or fault injection), building them from a per-ring table of
  /// thru transmissions, and multiply_analog replays the photocurrent sum
  /// over the cached gains instead of re-walking the spectral physics per
  /// sample.  A load rebuilds only the macros whose stored words moved;
  /// after a detuning or fault change the whole chain is rebuilt.  Table
  /// and replay use the identical floating-point operation sequence, so
  /// results are bit-identical to the physics walk (which remains
  /// available as the reference oracle when this is false, and skips the
  /// same unchanged macros at load).
  bool fast_path = true;
  /// Per-die fabrication/drive-level variation (see core/variation.hpp).
  /// variation.seed == 0 is the pristine design die; a nonzero seed derives
  /// an independent child stream per macro, so every ring of the core is a
  /// distinct fabricated device.  The full-scale calibration probe stays
  /// pristine: variation manifests as a deviation from design, which the
  /// calibrated fast path freezes and recalibrate() re-freezes.
  VariationConfig variation{};
};

class TensorCore {
 public:
  explicit TensorCore(const TensorCoreConfig& config = {});

  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }
  unsigned weight_bits() const { return config_.weight_bits; }
  std::uint32_t max_weight() const { return (1u << config_.weight_bits) - 1; }
  std::size_t bitcell_count() const { return psram_.bitcell_count(); }
  std::size_t macros_per_row() const;

  /// Loads an integer weight matrix (rows x cols, entries in [0, 2^n - 1])
  /// into the pSRAM array and programs the multiply rings.
  /// Returns the reload latency [s].
  double load_weights(const std::vector<std::vector<std::uint32_t>>& weights);

  /// Convenience: quantizes a real-valued weight matrix in [0, 1] to n bits
  /// and loads it.
  double load_weights_normalized(const Matrix& weights);

  /// Multiplies the loaded weight matrix by one normalized input vector
  /// (cols entries in [0, 1]); returns the per-row ADC output codes.
  std::vector<unsigned> multiply(const std::vector<double>& input);

  /// Programmable readout (row-TIA) gain applied before the eoADC.  Sparse
  /// workloads use it to occupy the full ADC range; digital consumers divide
  /// the codes by the same gain.  Must be > 0; default 1.
  void set_readout_gain(double gain);
  double readout_gain() const { return readout_gain_; }

  /// Analog row values before quantization (normalized to [0, 1]);
  /// useful for accuracy analysis.
  std::vector<double> multiply_analog(const std::vector<double>& input);

  /// Batched multiply: each row of `inputs` (n_samples x cols) is one input
  /// vector; returns n_samples x rows of ADC codes scaled to [0, 1].
  Matrix multiply_batch(const Matrix& inputs);

  /// Batched analog multiply: each row of `inputs` (n_samples x cols) is one
  /// input vector; returns n_samples x rows of normalized analog row values.
  /// Like multiply_analog, this does not advance the sample/energy ledger.
  Matrix multiply_analog_batch(const Matrix& inputs);

  /// True when the calibrated fast path is armed (config.fast_path and
  /// weights have been loaded since).
  bool fast_path_active() const {
    return config_.fast_path && weights_loaded_;
  }

  // --- thermal drift / online recalibration ---------------------------------
  /// Ambient thermal detuning from the calibrated operating point [K]:
  /// every multiply ring is detuned through its own (variation-spread)
  /// thermo-optic sensitivity.  The fast path's transmission table is
  /// dropped and its gains are rebuilt at the new operating point by the
  /// next weight load or sample, whichever comes first, so the fast path
  /// stays bit-identical to the physics walk at every detuning.  The call
  /// itself evaluates no ring.
  void set_thermal_detuning(double delta_kelvin);
  double thermal_detuning() const { return detuning_; }

  /// Heater re-lock: pulls every ring back to the calibrated operating
  /// point (detuning -> 0), where the fast-path gains are re-frozen as
  /// after any detuning, and opens a new calibration epoch.  The modeled
  /// downtime of the fleet-level recalibration is billed by
  /// runtime::Accelerator::recalibrate().
  void recalibrate();

  /// Number of recalibrations performed (epoch 0 = as-constructed).
  std::size_t calibration_epoch() const { return calibration_epoch_; }

  /// Rewinds the epoch counter to 0 (as-constructed).  Part of
  /// runtime::Accelerator::reset_drift's run-to-run determinism contract;
  /// does not touch weights, detuning, or gains.
  void reset_calibration_epoch() { calibration_epoch_ = 0; }

  // --- fleet-health sensor channels -----------------------------------------
  /// Pilot-tone probe transmission through the reserved calibration row: a
  /// spare row of multiply macros (not part of the compute array) holds
  /// all-zero weights, parking every probe ring *on* resonance — the
  /// steepest, most detuning-sensitive operating point.  The reading is the
  /// row's photocurrent under an all-ones input, normalized to the same
  /// measurement at the calibration point, so it reads exactly 1 when the
  /// core is locked and rises as drift walks the rings off resonance.  This
  /// is a real measurable (photocurrent ratio), computed through the same
  /// spectral physics as the compute rows — the oracle-free signal
  /// fleet::DriftEstimator inverts back to kelvin.
  double probe_transmission() const;

  /// Characterization sweep for estimator calibration: the probe row alone
  /// is stepped through each detuning [K] and its transmission ratio
  /// recorded; the probe is restored to the core's current detuning before
  /// returning.  The compute rows are never touched, so sweeping is free of
  /// side effects on results.
  std::vector<double> probe_response_curve(
      const std::vector<double>& detunings);

  /// eoADC conversions performed (one per row per quantized sample) and how
  /// many of them clipped at full scale — the saturation-rate sensor
  /// channel (readout gain mis-set, or drift pushing rows out of range).
  std::uint64_t adc_conversions() const { return adc_conversions_; }
  std::uint64_t adc_saturations() const { return adc_saturations_; }
  double adc_saturation_rate() const {
    return adc_conversions_ > 0
               ? static_cast<double>(adc_saturations_) /
                     static_cast<double>(adc_conversions_)
               : 0.0;
  }

  /// Digital reference: exact dot products of the *stored* integer weights
  /// with the inputs, normalized like the analog path.
  std::vector<double> reference(const std::vector<double>& input) const;

  // --- hard-fault injection (core/fault.hpp) --------------------------------
  /// Latches one multiply ring's drive line.  (row, col) address the weight
  /// matrix entry, bit the weight-bit row (0 = MSB).  The fault is applied
  /// at the ring-bias level and the fast path's transmission table is
  /// rebuilt under it before the next sample, so fast path and physics
  /// oracle stay bit-identical under the fault.
  void inject_ring_fault(std::size_t row, std::size_t col, unsigned bit,
                         RingFaultKind kind);
  void inject_ring_faults(const std::vector<RingFaultSite>& sites);

  /// Freezes the thermal tuner at the current detuning: further
  /// set_thermal_detuning calls (including recalibrate's re-lock) are
  /// ignored until the fault is cleared.
  void inject_stuck_heater();
  bool heater_stuck() const { return heater_stuck_; }

  /// Kills row `row`'s eoADC ladder: quantized multiplies read out code 0
  /// for that row regardless of the photocurrent.  The analog taps
  /// (multiply_analog*) bypass the ADC and are unaffected.
  void inject_adc_fault(std::size_t row);
  bool adc_faulted(std::size_t row) const;
  std::size_t adc_fault_count() const;

  std::size_t ring_fault_count() const;

  /// Releases every injected fault (rings, heater, ADC ladders) and
  /// restores weight-driven biases.  The frozen detuning persists until
  /// the caller re-locks (see runtime::Accelerator::inject).
  void clear_faults();

  // --- built-in self-test ----------------------------------------------------
  /// Deterministic BIST: streams `samples` seeded probe vectors through the
  /// array, comparing the analog path against the digital reference and
  /// watching each row's ADC codes.  Loads a checkerboard test pattern
  /// first if no weights are resident.  The probes run through multiply()
  /// and so cost real samples/energy — runtime::Accelerator bills the
  /// downtime.
  struct SelfTestResult {
    double max_row_error = 0.0;  ///< max |analog - reference| over probes
    std::size_t stuck_adc_rows = 0;
    bool heater_locked = true;
  };
  SelfTestResult self_test(std::size_t samples, std::uint64_t seed);

  // --- performance (Sec. IV-D) ----------------------------------------------
  /// Operations per ADC sample: rows * 2 * cols.
  double ops_per_sample() const;
  /// Peak computational throughput [op/s] (paper: 4.10 TOPS).
  double throughput_ops() const;
  /// Total power [W]; see breakdown().
  double power() const;
  /// throughput / power [op/s/W] (paper: 3.02 TOPS/W).
  double tops_per_watt() const;
  /// Weight update rate [Hz] (paper: 20 GHz).
  double weight_update_rate() const { return config_.psram.write_rate; }

  struct PowerBreakdown {
    double adc = 0.0;        ///< rows x one eoADC (optical + electrical)
    double row_tia = 0.0;    ///< readout TIAs
    double comb_laser = 0.0; ///< input comb lines (wall plug)
    double psram_hold = 0.0; ///< bitcell bias lasers (wall plug)
    double weight_update = 0.0;  ///< write lasers + drivers at duty
    double control = 0.0;    ///< digital control + clocks
    double total() const {
      return adc + row_tia + comb_laser + psram_hold + weight_update + control;
    }
  };
  PowerBreakdown breakdown() const;

  /// Cumulative energy ledger for the operations performed so far.
  const circuit::EnergyLedger& ledger() const { return ledger_; }

  /// Number of multiply() calls performed.
  std::size_t samples_processed() const { return samples_; }

  const TensorCoreConfig& config() const { return config_; }
  const PsramArray& psram() const { return psram_; }
  /// The eoADC that digitizes row `row`.  Every row converts through the
  /// same converter, so this is one object for every valid row.
  const EoAdc& adc(std::size_t row) const;

 private:
  /// Rows the fast path replays side by side.
  static constexpr std::size_t kRowBlock = 4;

  /// Weight-load-time linearization of the analog multiply.  The physics
  /// walk per sample is (per macro): encode the comb lines, split them into
  /// binary-weighted bit-row taps, and attenuate each tap channel by the
  /// transmission of the whole ring chain of that bit row.  Every factor in
  /// that chain except the input itself is frozen between weight loads, so
  /// it is cached here and replayed per sample with the identical
  /// floating-point operation sequence (canonical channel-, bit-row-,
  /// tile-order summation) — bit-identical to the physics walk by
  /// construction.
  struct FastGains {
    double comb_power = 0.0;     ///< per-line comb power [W]
    double encoder_loss = 0.0;   ///< encoder insertion loss (power ratio)
    double encoder_floor = 0.0;  ///< finite-extinction leakage floor
    double tap_factor = 0.0;     ///< per-splitter-stage factor (0.5 * excess)
    double responsivity = 0.0;   ///< photodiode responsivity [A/W]
    /// Ring-chain transmissions in blocks of kRowBlock rows,
    /// [block][tile][bit_row][channel][row in block] flattened; the last
    /// block is padded with zero gains.
    std::vector<double> chain;
    /// True when the chain predates the current detuning or fault set.
    bool stale = true;
    /// Per-ring thru transmissions at the current detuning and fault set.
    /// A multiply ring's bias takes one of two values (its stored bit plus
    /// drive offset, or its fault latch), so each ring has two spectra of m
    /// channel transmissions, [row][tile][bit_row][ring][bit][channel]
    /// flattened, each filled on first use.
    std::vector<double> table;
    /// One flag per (ring, bit) spectrum of `table`: filled since the last
    /// detuning or fault change.
    std::vector<std::uint8_t> filled;
  };

  /// Writes word_scratch_ to the pSRAM, then reprograms only the macros
  /// whose stored words differ from the words they hold and rebuilds their
  /// chain entries; a stale chain is rebuilt whole.  Returns the full
  /// reload latency [s] whatever changed.
  double load_words();

  /// Rebuilds every chain entry (build_macro_chain over all macros) and
  /// clears the stale flag; sizes the chain and table on first use.
  void build_chain();

  /// Rebuilds macro (row, tile)'s chain transmissions for its stored words
  /// from the transmission table, filling the spectra it lacks: each chain
  /// entry is the product over its bit row's rings in ring order, exactly
  /// as VectorComputeMacro::chain_transmission multiplies.
  void build_macro_chain(std::size_t row, std::size_t tile);

  /// Drops the transmission table and marks the chain stale after the
  /// rings were detuned or a fault set changed.
  void invalidate_fast_path();

  /// Normalized analog row values for one sample: fast replay when armed,
  /// full spectral walk otherwise.  `input` has cols() entries; `out` has
  /// rows() entries.
  void analog_row_values(const double* input, double* out);

  /// The per-sample physics walk (reference oracle).
  void analog_row_values_physics(const double* input, double* out);

  /// Row sums of the fast replay over the sample's tap powers (already in
  /// tap_scratch_).  kChannels is the macro channel count when fixed at
  /// compile time, 0 to read it from the config.
  template <std::size_t kChannels>
  void replay_rows(double* out) const;

  /// Digitizes one row's normalized analog value through the eoADC (the
  /// decision window on the fast path, the ring walk otherwise), unless the
  /// row's ladder is dead, and books the conversion in the saturation
  /// counters.
  unsigned convert_row(std::size_t row, double analog);

  TensorCoreConfig config_;
  PsramArray psram_;
  /// macros_[row][tile]: each macro covers channels_per_macro columns.
  std::vector<std::vector<VectorComputeMacro>> macros_;
  /// Reserved calibration row (one macro per tile, all-zero weights) — the
  /// pilot-tone probe path.  Variation child seeds follow the compute
  /// macros' and `rows` reserved ones, so the row never perturbs their
  /// streams.
  std::vector<VectorComputeMacro> probe_macros_;
  double probe_reference_ = 0.0;    ///< probe photocurrent at detuning 0 [A]
  std::vector<double> probe_input_; ///< all-ones pilot tone
  std::uint64_t adc_conversions_ = 0;
  std::uint64_t adc_saturations_ = 0;
  /// The one converter every row reads through (see the class comment).
  EoAdc adc_;
  double full_scale_row_current_ = 0.0;
  double readout_gain_ = 1.0;
  circuit::EnergyLedger ledger_;
  std::size_t samples_ = 0;
  FastGains fast_;
  bool weights_loaded_ = false;
  /// Requested words of the load in progress, reused across loads.
  std::vector<std::uint32_t> word_scratch_;
  /// Per-row dead ADC ladders; empty-equivalent (all zero) when healthy.
  std::vector<std::uint8_t> adc_dead_;
  bool heater_stuck_ = false;
  double detuning_ = 0.0;                ///< thermal detuning [K]
  std::size_t calibration_epoch_ = 0;    ///< recalibrate() count
  std::vector<double> tap_scratch_;    ///< per-sample tap powers, reused
  std::vector<double> input_scratch_;  ///< physics-path tile slice, reused
};

}  // namespace ptc::core

#endif  // PTC_CORE_TENSOR_CORE_HPP
