#include "core/eoadc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ptc::core {

namespace {

/// `config`, once the converter's preconditions hold.
const EoAdcConfig& checked(const EoAdcConfig& config) {
  expects(config.bits >= 1 && config.bits <= 4,
          "eoADC supports 1..4 bits (2^p rings)");
  expects(config.v_full_scale > 0.0, "full scale must be positive");
  expects(config.input_power_per_ring > 0.0, "input power must be positive");
  expects(config.reference_power > 0.0, "reference power must be positive");
  expects(config.trip_offset_ratio >= 1.0,
          "trip offset must be >= 1 (window overlap, not dead zones)");
  expects(config.qp_capacitance > 0.0, "Qp capacitance must be positive");
  expects(std::isfinite(config.sample_rate_with_amps) &&
              config.sample_rate_with_amps > 0.0,
          "sample rate must be positive and finite");
  expects(config.wall_plug_efficiency > 0.0 &&
              config.wall_plug_efficiency <= 1.0,
          "wall-plug efficiency must be in (0, 1]");
  expects(std::isfinite(config.vref_mismatch_sigma) &&
              config.vref_mismatch_sigma >= 0.0,
          "reference mismatch sigma must be finite and >= 0");
  expects(std::isfinite(config.no_amp_margin) && config.no_amp_margin > 0.0,
          "amplifier-less margin must be positive and finite");
  expects(config.no_amp_low_level >= 0.0 &&
              config.no_amp_low_level < config.tia.bias_point,
          "amplifier-less low level must be in [0, TIA bias point)");
  for (const double power : {config.tia.power, config.amplifier.power,
                             config.decoder_static_power,
                             config.clock_power}) {
    expects(std::isfinite(power) && power >= 0.0,
            "TIA, amplifier, decoder and clock powers must be finite and "
            ">= 0");
  }
  return config;
}

/// The ring design every channel shares.  The base ring is calibrated for
/// the 3-bit LSB of 0.5 V (activation threshold at +-LSB/2).  Finer LSBs
/// need proportionally higher tuning efficiency — the paper's "optimizing
/// devices, such as using high-Q MRRs" path to higher precision
/// (Sec. II-C).
optics::MicroringConfig channel_ring(double lsb) {
  optics::MicroringConfig ring_config = adc_ring_config();
  ring_config.junction.efficiency *= 0.5 / lsb;
  return ring_config;
}

}  // namespace

EoAdc::EoAdc(const EoAdcConfig& config)
    : config_(checked(config)),
      ring_(channel_ring(lsb())),
      photodiode_(config.photodiode),
      decoder_(config.bits) {
  Rng mismatch_rng(config.mismatch_seed);
  const std::size_t n = channel_count();
  vref_.reserve(n);
  for (std::size_t ch = 0; ch < n; ++ch) {
    double vref = (static_cast<double>(ch) + 0.5) * lsb();
    if (config.vref_mismatch_sigma > 0.0) {
      vref += mismatch_rng.normal(0.0, config.vref_mismatch_sigma);
    }
    vref_.push_back(vref);
  }
  breaks_.fill(std::numeric_limits<double>::infinity());
  locate_window();
  build_table();
}

bool EoAdc::fires_at_bias(double bias) const {
  return config_.input_power_per_ring *
             ring_.thru_transmission_at(bias, tech_adc_wavelength) <
         activation_threshold_power();
}

void EoAdc::locate_window() {
  // Within half an FSR of resonance the thru notch rises monotonically
  // with |detuning|, so the active set is one bias interval around 0.
  // Past that, the next resonance order could fire again: find the bias
  // whose electro-optic shift reaches FSR/2 (the shift is odd and
  // monotone) and keep window conversions inside it.
  const double half_fsr = 0.5 * ring_.fsr(tech_adc_wavelength);
  double reach = 1.0;
  while (ring_.junction().resonance_shift(reach) < half_fsr) reach *= 2.0;
  double near = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (near + reach);
    if (ring_.junction().resonance_shift(mid) < half_fsr) {
      near = mid;
    } else {
      reach = mid;
    }
  }
  bias_limit_ = near;
  if (!fires_at_bias(0.0) || fires_at_bias(bias_limit_) ||
      fires_at_bias(-bias_limit_)) {
    return;  // no single window: code() always walks the rings
  }

  // Bisect each edge to adjacent doubles: `in` fires, `out` does not.
  auto edge = [this](double in, double out) {
    for (;;) {
      const double mid = in + 0.5 * (out - in);
      if (mid == in || mid == out) return in;
      (fires_at_bias(mid) ? in : out) = mid;
    }
  };
  window_lo_ = edge(0.0, -bias_limit_);
  window_hi_ = edge(0.0, bias_limit_);
  window_v_lo_ = *std::max_element(vref_.begin(), vref_.end()) - bias_limit_;
  window_v_hi_ = *std::min_element(vref_.begin(), vref_.end()) + bias_limit_;
}

void EoAdc::build_table() {
  // Empty when no single window exists: code() then always walks the rings.
  if (!(window_v_lo_ <= window_v_hi_)) return;

  // First input in [window_v_lo_, window_v_hi_] where `holds` is true, for
  // a predicate that never turns false as the input rises; +inf when it
  // never holds there.  Bisected to adjacent doubles.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto first_true = [this](auto holds) {
    double lo = window_v_lo_;
    double hi = window_v_hi_;
    if (holds(lo)) return lo;
    if (!holds(hi)) return kInf;
    while (std::nextafter(lo, hi) != hi) {
      double mid = lo + 0.5 * (hi - lo);
      if (!(mid > lo && mid < hi)) mid = std::nextafter(lo, hi);
      (holds(mid) ? hi : lo) = mid;
    }
    return hi;
  };
  // The same subtraction the ring walk evaluates the ring at; channel k
  // fires on [enter[k], leave[k]).
  const std::size_t n = channel_count();
  std::vector<double> enter(n);
  std::vector<double> leave(n);
  std::vector<double> ends;
  for (std::size_t k = 0; k < n; ++k) {
    const double vref = vref_[k];
    enter[k] = first_true([&](double v) { return vref - v <= window_hi_; });
    leave[k] = first_true([&](double v) { return vref - v < window_lo_; });
    for (const double end : {enter[k], leave[k]}) {
      if (end > window_v_lo_ && end != kInf) ends.push_back(end);
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  break_count_ = ends.size();
  std::copy(ends.begin(), ends.end(), breaks_.begin());

  // No channel changes state inside an interval, so the pattern at its left
  // end is the pattern on the whole interval.
  for (std::size_t i = 0; i <= break_count_; ++i) {
    const double left = i == 0 ? window_v_lo_ : breaks_[i - 1];
    unsigned pattern = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool fires = enter[k] <= left && left < leave[k];
      pattern |= static_cast<unsigned>(fires) << k;
    }
    const auto decode = decoder_.decode(pattern);
    interval_code_[i] =
        decode.any_active ? static_cast<std::uint8_t>(decode.code) : kWalk;
  }

  if (break_count_ >= 2) {
    bucket_scale_ = static_cast<double>(kBuckets) /
                    (breaks_[break_count_ - 1] - breaks_[0]);
  }
  // Each bucket's scan starts past every break of the buckets below it.
  for (std::size_t i = 0; i < break_count_; ++i) {
    for (std::size_t b = bucket(breaks_[i]) + 1; b < kBuckets; ++b) {
      ++bucket_start_[b];
    }
  }
}

double EoAdc::lsb() const {
  return config_.v_full_scale / static_cast<double>(channel_count());
}

double EoAdc::reference_voltage(std::size_t ch) const {
  expects(ch < vref_.size(), "channel index out of range");
  return vref_[ch];
}

double EoAdc::ring_thru_transmission(std::size_t ch, double v_in) const {
  // The junction sees V_pn = V_REF - V_IN (p-terminal at the reference,
  // n-terminal at the input, paper Sec. II-C).
  return ring_.thru_transmission_at(vref_[ch] - v_in, tech_adc_wavelength);
}

double EoAdc::channel_thru_power(std::size_t ch, double v_in) const {
  expects(ch < channel_count(), "channel index out of range");
  return config_.input_power_per_ring * ring_thru_transmission(ch, v_in);
}

double EoAdc::activation_threshold_power() const {
  return config_.trip_offset_ratio * config_.reference_power;
}

std::vector<bool> EoAdc::channel_activations(double v_in) const {
  std::vector<bool> active(channel_count());
  for (std::size_t ch = 0; ch < channel_count(); ++ch) {
    active[ch] = channel_thru_power(ch, v_in) < activation_threshold_power();
  }
  return active;
}

EoAdc::Conversion EoAdc::convert(double v_in) const {
  Conversion out;
  out.active = channel_activations(v_in);
  const auto decode = decoder_.decode(out.active);
  out.any_active = decode.any_active;
  out.boundary = decode.boundary;
  out.fault = decode.fault;
  out.code = decode.any_active ? decode.code : deepest_channel(v_in);
  return out;
}

unsigned EoAdc::deepest_channel(double v_in) const {
  // Out-of-range or (mis-calibrated) dead zone: fall back to the channel
  // with the deepest dip — the physically nearest code.
  std::size_t best = 0;
  double best_power = channel_thru_power(0, v_in);
  for (std::size_t ch = 1; ch < channel_count(); ++ch) {
    const double p = channel_thru_power(ch, v_in);
    if (p < best_power) {
      best_power = p;
      best = ch;
    }
  }
  return static_cast<unsigned>(best);
}

EoAdc::TransientResult EoAdc::convert_transient(
    double v_in, sim::TraceSet* traces) const {
  const std::size_t n = channel_count();
  const double dt = config_.dt;
  const double vdd = config_.tia.vdd;
  const double bias = config_.tia.bias_point;
  // Keeper current realizing the trip asymmetry: at the exact balance point
  // (P_thru == P_ref) the node drifts low, so boundary channels activate.
  const double keeper = (config_.trip_offset_ratio - 1.0) *
                        photodiode_.config().responsivity *
                        config_.reference_power;

  const double window = config_.use_amplifier_chain
                            ? 1.0 / config_.sample_rate_with_amps
                            : 1.0 / sample_rate();

  // Per-channel dynamic state.
  std::vector<circuit::FirstOrderLag> ring_lag;
  std::vector<circuit::FirstOrderLag> pd_lag;
  std::vector<double> v_qp(n, bias);
  std::vector<circuit::InverterTia> tias;
  std::vector<circuit::VoltageAmplifier> amps;
  ring_lag.reserve(n);
  pd_lag.reserve(n);
  tias.reserve(n);
  amps.reserve(n);
  for (std::size_t ch = 0; ch < n; ++ch) {
    // The junction tracks V_REF - V_IN during the acquisition phase, so the
    // conversion window starts from the settled electro-optic operating
    // point; what remains is the Qp / TIA / amplifier decision dynamics.
    const double v_pn0 = vref_[ch] - v_in;
    ring_lag.emplace_back(ring_.junction().config().response_time, v_pn0);
    pd_lag.emplace_back(photodiode_.response_time_constant(),
                        config_.input_power_per_ring *
                            ring_thru_transmission(ch, v_in));
    tias.emplace_back(config_.tia);
    amps.emplace_back(config_.amplifier);
  }

  TransientResult result;
  std::vector<bool> active(n, false);
  unsigned last_code = 0;
  double last_change = 0.0;
  const double responsivity = photodiode_.config().responsivity;

  for (double t = dt; t <= window + 0.5 * dt; t += dt) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      // Junction voltage settles with the depletion response time.
      const double v_pn = ring_lag[ch].step(vref_[ch] - v_in, dt);
      const double p_thru_inst =
          config_.input_power_per_ring *
          ring_.thru_transmission_at(v_pn, tech_adc_wavelength);
      const double p_thru = pd_lag[ch].step(p_thru_inst, dt);
      // Balanced PD: top (thru) charges Qp, bottom (reference) + keeper
      // discharge it.
      const double i_net =
          responsivity * (p_thru - config_.reference_power) - keeper;
      v_qp[ch] = std::clamp(v_qp[ch] + i_net * dt / config_.qp_capacitance,
                            0.0, vdd);
      if (config_.use_amplifier_chain) {
        const double tia_out = tias[ch].step(v_qp[ch], dt);
        const double amp_out = amps[ch].step(tia_out, dt);
        active[ch] = amp_out > 0.5 * vdd;
      } else {
        active[ch] = v_qp[ch] < config_.no_amp_low_level;
      }
      if (traces != nullptr) {
        const std::string suffix = std::to_string(ch);
        traces->at("qp" + suffix).record(t, v_qp[ch]);
        traces->at("b" + suffix).record(t, active[ch] ? vdd : 0.0);
      }
    }
    const auto decode = decoder_.decode(active);
    const unsigned code_now = decode.any_active ? decode.code : last_code;
    if (code_now != last_code) {
      last_code = code_now;
      last_change = t;
    }
  }

  const auto decode = decoder_.decode(active);
  result.conversion.active = active;
  result.conversion.any_active = decode.any_active;
  result.conversion.boundary = decode.boundary;
  result.conversion.fault = decode.fault;
  result.conversion.code = decode.any_active ? decode.code : last_code;
  result.decision_time = last_change;
  result.completed = decode.any_active;
  return result;
}

std::vector<double> EoAdc::code_edges() const {
  std::vector<double> edges;
  edges.reserve(channel_count() - 1);
  for (unsigned target = 1; target < channel_count(); ++target) {
    // Bisect the lowest input voltage whose code is >= target.
    double lo = 0.0;
    double hi = config_.v_full_scale;
    if (code(lo) >= target) {
      edges.push_back(lo);
      continue;
    }
    if (code(hi) < target) {
      edges.push_back(hi);
      continue;
    }
    for (int i = 0; i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (code(mid) >= target) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    edges.push_back(0.5 * (lo + hi));
  }
  return edges;
}

EoAdc::Linearity EoAdc::linearity() const {
  Linearity lin;
  lin.code_edges = code_edges();
  const std::size_t n_edges = lin.code_edges.size();
  ensures(n_edges >= 2, "need at least two edges for linearity");

  // Endpoint-fit LSB from the measured first/last edges.
  const double lsb_fit = (lin.code_edges.back() - lin.code_edges.front()) /
                         static_cast<double>(n_edges - 1);
  ensures(lsb_fit > 0.0, "transfer function is not monotonic");

  lin.dnl.reserve(n_edges - 1);
  for (std::size_t k = 0; k + 1 < n_edges; ++k) {
    const double width = lin.code_edges[k + 1] - lin.code_edges[k];
    lin.dnl.push_back(width / lsb_fit - 1.0);
  }
  lin.inl.reserve(n_edges);
  for (std::size_t k = 0; k < n_edges; ++k) {
    const double ideal = lin.code_edges.front() +
                         static_cast<double>(k) * lsb_fit;
    lin.inl.push_back((lin.code_edges[k] - ideal) / lsb_fit);
  }
  for (double d : lin.dnl)
    lin.max_abs_dnl = std::max(lin.max_abs_dnl, std::fabs(d));
  for (double i : lin.inl)
    lin.max_abs_inl = std::max(lin.max_abs_inl, std::fabs(i));
  // A missing code shows up as a bin of (near-)zero width: DNL -> -1.
  lin.missing_codes =
      std::any_of(lin.dnl.begin(), lin.dnl.end(),
                  [](double d) { return d <= -0.99; });
  return lin;
}

double EoAdc::optical_power_delivered() const {
  return static_cast<double>(channel_count()) *
         (config_.input_power_per_ring + config_.reference_power);
}

double EoAdc::optical_wall_power() const {
  return optical_power_delivered() / config_.wall_plug_efficiency;
}

double EoAdc::electrical_power() const {
  const double per_channel =
      config_.use_amplifier_chain
          ? config_.tia.power + config_.amplifier.power
          : 0.0;
  return static_cast<double>(channel_count()) * per_channel +
         config_.decoder_static_power + config_.clock_power;
}

double EoAdc::total_power() const {
  return optical_wall_power() + electrical_power();
}

double EoAdc::sample_rate() const {
  if (config_.use_amplifier_chain) return config_.sample_rate_with_amps;
  // Amplifier-less: Qp itself slews to a logic level.  Worst-case in-bin
  // discharge current is the balanced current at a code centre.
  const double responsivity = photodiode_.config().responsivity;
  const double p_thru_min =
      config_.input_power_per_ring * ring_thru_transmission(0, vref_[0]);
  const double keeper = (config_.trip_offset_ratio - 1.0) * responsivity *
                        config_.reference_power;
  const double i_discharge =
      responsivity * (config_.reference_power - p_thru_min) + keeper;
  const double swing = config_.tia.bias_point - config_.no_amp_low_level;
  const double t_conv =
      config_.qp_capacitance * swing / i_discharge * config_.no_amp_margin;
  return 1.0 / t_conv;
}

double EoAdc::energy_per_conversion() const {
  return total_power() / sample_rate();
}

}  // namespace ptc::core
