#include "baseline/comparison.hpp"

namespace ptc::baseline {

PerformanceReport tfln_mzi_core() {
  PerformanceReport r;
  r.name = "TFLN MZI core [33]";
  // 4x4-class coherent core at ~15 GBd symbol rate:
  // 4 MACs/symbol * 2 op/MAC * 15e9 = 0.12 TOPS.
  const double macs = 4.0;
  const double rate = 15e9;
  r.throughput_tops = macs * 2.0 * rate / 1e12;
  r.efficiency_tops_w = 0.0;  // not reported in the source
  r.weight_update_hz = 60e9;  // EO weight modulation
  r.update_note = "thin-film LiNbO3 EO modulation";
  return r;
}

PerformanceReport parallel_ppu() {
  PerformanceReport r;
  r.name = "Parallel PPU [48]";
  r.throughput_tops = 0.93;
  r.efficiency_tops_w = 0.83;
  r.weight_update_hz = 0.5e9;  // < 0.5 GHz
  r.update_note = "FPGA-controlled multi-channel DC supply";
  return r;
}

PerformanceReport conv_accelerator() {
  PerformanceReport r;
  r.name = "Conv accelerator [49]";
  // Time-wavelength interleaving: ~90 comb lines at 62.9 GBd effective:
  // throughput quoted at 11 TOPS.
  r.throughput_tops = 11.0;
  r.efficiency_tops_w = 0.0;  // not reported
  r.weight_update_hz = 2.0;   // WaveShaper settling ~500 ms
  r.update_note = "Finisar WaveShaper 4000S, 500 ms settling";
  return r;
}

PerformanceReport pcm_dot_product_engine() {
  PerformanceReport r;
  r.name = "PCM dot-product engine [50]";
  r.throughput_tops = 0.0;  // not reported
  r.efficiency_tops_w = 10.0;
  r.weight_update_hz = 1e9;  // single-pulse electrical PCM write
  r.update_note = "PCM write speed";
  return r;
}

PerformanceReport reconfigurable_core() {
  PerformanceReport r;
  r.name = "Reconfigurable core [51]";
  r.throughput_tops = 3.98;
  r.efficiency_tops_w = 1.97;
  r.weight_update_hz = 0.5e9;  // < 0.5 GHz
  r.update_note = "FPGA-controlled multi-channel DC supply";
  return r;
}

std::vector<PerformanceReport> table1_rows(
    const core::TensorCoreConfig& this_work) {
  std::vector<PerformanceReport> rows;
  rows.push_back(tfln_mzi_core());
  rows.push_back(parallel_ppu());
  rows.push_back(conv_accelerator());
  rows.push_back(pcm_dot_product_engine());
  rows.push_back(reconfigurable_core());
  const core::TensorCore ours(this_work);
  rows.push_back({.name = "This Work",
                  .throughput_tops = ours.throughput_ops() / 1e12,
                  .efficiency_tops_w = ours.tops_per_watt() / 1e12,
                  .weight_update_hz = ours.weight_update_rate(),
                  .update_note = "differential optical write, 50 ps pulse"});
  return rows;
}

}  // namespace ptc::baseline
