// Reproduces the paper's Sec. IV-D performance analysis: the 16x16, 3-bit,
// 768-bitcell photonic tensor core reaching 4.10 TOPS at 3.02 TOPS/W, with
// the full per-component power breakdown and scaling sweeps.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "core/performance.hpp"

int main() {
  using namespace ptc;
  using namespace ptc::core;

  const PerformanceModel model;
  std::cout << "Sec. IV-D reproduction: 16x16 photonic tensor core\n\n";

  TablePrinter summary({"metric", "paper", "measured"});
  summary.add_row({"pSRAM bitcells", "768",
                   std::to_string(model.bitcell_count())});
  summary.add_row({"ops per ADC sample", "512 (16 x 32)",
                   TablePrinter::num(model.ops_per_sample())});
  summary.add_row({"ADC sample rate", "8 GS/s",
                   units::si_format(model.sample_rate(), "S/s")});
  summary.add_row({"throughput", "4.10 TOPS",
                   TablePrinter::num(model.throughput_ops() / 1e12, 3) +
                       " TOPS"});
  summary.add_row({"total power", "~1.36 W (4.10/3.02)",
                   units::si_format(model.power(), "W")});
  summary.add_row({"power efficiency", "3.02 TOPS/W",
                   TablePrinter::num(model.tops_per_watt() / 1e12, 3) +
                       " TOPS/W"});
  summary.add_row({"weight update rate", "20 GHz",
                   units::si_format(model.config().psram.write_rate, "Hz")});
  summary.add_row({"full weight reload", "-",
                   units::si_format(model.weight_reload_time(), "s")});
  summary.print(std::cout);

  std::cout << "\npower breakdown:\n";
  TablePrinter breakdown({"component", "power", "share"});
  for (const auto& [name, watts] : model.power_table()) {
    breakdown.add_row({name, units::si_format(watts, "W"),
                       TablePrinter::num(100.0 * watts / model.power(), 3) +
                           " %"});
  }
  breakdown.print(std::cout);

  std::cout << "\nscaling sweep (same device models, varying array size):\n";
  TablePrinter scaling({"array", "bitcells", "TOPS", "W", "TOPS/W"});
  for (std::size_t n : {4, 8, 16, 32, 64}) {
    TensorCoreConfig config;
    config.rows = n;
    config.cols = n;
    const PerformanceModel m(config);
    scaling.add_row({std::to_string(n) + "x" + std::to_string(n),
                     std::to_string(m.bitcell_count()),
                     TablePrinter::num(m.throughput_ops() / 1e12, 3),
                     TablePrinter::num(m.power(), 3),
                     TablePrinter::num(m.tops_per_watt() / 1e12, 3)});
  }
  scaling.print(std::cout);

  std::cout << "\nnote: the ADC limits the sample rate (paper: \"latency "
               "from the electro-optic ADC limits the overall speed\"); "
               "efficiency improves with array size because ADC/TIA power "
               "is amortized over N^2 MACs.\n";
  return 0;
}
