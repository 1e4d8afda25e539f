#ifndef PTC_BASELINE_COMPARISON_HPP
#define PTC_BASELINE_COMPARISON_HPP

#include <string>
#include <vector>

#include "core/tensor_core.hpp"

/// Table I of the paper: the published photonic IMC macros the tensor core
/// is compared against.  Each row carries the cited work's published
/// throughput, efficiency and weight-update figures (the TFLN row derives
/// its throughput from the published core size and symbol rate), except
/// This Work, which a core::TensorCore reports from its own Sec. IV-D
/// accessors.
namespace ptc::baseline {

/// One row of the Table I comparison.
struct PerformanceReport {
  std::string name;
  double throughput_tops = 0.0;     ///< tera-operations per second
  double efficiency_tops_w = 0.0;   ///< TOPS per watt (0 = not reported)
  double weight_update_hz = 0.0;    ///< weight refresh rate
  std::string update_note;          ///< provenance of the update-rate figure
};

/// Ref. [33]: Lin et al., thin-film lithium niobate photonic tensor core.
/// EO modulation enables 60 GHz in-situ weight updates but the demonstrated
/// core is small, capping throughput near 0.12 TOPS (120 GOPS).
PerformanceReport tfln_mzi_core();

/// Ref. [48]: Du et al., scalable parallel photonic processing unit.
/// Weights held by an FPGA-controlled multi-channel DC supply (< 0.5 GHz
/// effective update), 0.93 TOPS at 0.83 TOPS/W.
PerformanceReport parallel_ppu();

/// Ref. [49]: Xu et al., 11 TOPS time-wavelength interleaved convolutional
/// accelerator; weights set by a Finisar WaveShaper with ~500 ms settling
/// (2 Hz update).
PerformanceReport conv_accelerator();

/// Ref. [50]: Zhou et al., in-memory photonic dot-product engine with
/// electrically programmable PCM weight banks: 10 TOPS/W, ~1 GHz write.
PerformanceReport pcm_dot_product_engine();

/// Ref. [51]: Ouyang et al., reconfigurable silicon photonic tensor
/// processing core: 3.98 TOPS at 1.97 TOPS/W, DC-supply weight control.
PerformanceReport reconfigurable_core();

/// All Table I rows including "This Work" (a tensor core built from the
/// given configuration), in the paper's row order.
std::vector<PerformanceReport> table1_rows(
    const core::TensorCoreConfig& this_work = {});

}  // namespace ptc::baseline

#endif  // PTC_BASELINE_COMPARISON_HPP
