#ifndef PTC_BASELINE_COMPARISON_HPP
#define PTC_BASELINE_COMPARISON_HPP

#include <vector>

#include "core/performance.hpp"

/// Table I of the paper: the published photonic IMC macros the tensor core
/// is compared against.  Each row carries the cited work's published
/// throughput, efficiency and weight-update figures (the TFLN row derives
/// its throughput from the published core size and symbol rate), except
/// This Work, which comes from core::PerformanceModel.
namespace ptc::baseline {

/// Ref. [33]: Lin et al., thin-film lithium niobate photonic tensor core.
/// EO modulation enables 60 GHz in-situ weight updates but the demonstrated
/// core is small, capping throughput near 0.12 TOPS (120 GOPS).
core::PerformanceReport tfln_mzi_core();

/// Ref. [48]: Du et al., scalable parallel photonic processing unit.
/// Weights held by an FPGA-controlled multi-channel DC supply (< 0.5 GHz
/// effective update), 0.93 TOPS at 0.83 TOPS/W.
core::PerformanceReport parallel_ppu();

/// Ref. [49]: Xu et al., 11 TOPS time-wavelength interleaved convolutional
/// accelerator; weights set by a Finisar WaveShaper with ~500 ms settling
/// (2 Hz update).
core::PerformanceReport conv_accelerator();

/// Ref. [50]: Zhou et al., in-memory photonic dot-product engine with
/// electrically programmable PCM weight banks: 10 TOPS/W, ~1 GHz write.
core::PerformanceReport pcm_dot_product_engine();

/// Ref. [51]: Ouyang et al., reconfigurable silicon photonic tensor
/// processing core: 3.98 TOPS at 1.97 TOPS/W, DC-supply weight control.
core::PerformanceReport reconfigurable_core();

/// All Table I rows including "This Work" (computed from the given tensor
/// core configuration), in the paper's row order.
std::vector<core::PerformanceReport> table1_rows(
    const core::TensorCoreConfig& this_work = {});

}  // namespace ptc::baseline

#endif  // PTC_BASELINE_COMPARISON_HPP
