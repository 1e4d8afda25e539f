// Reproduces paper Table I: performance comparison of photonic IMC macros.
// Baseline rows carry the cited works' published figures (src/baseline);
// the "This Work" row is read from a simulated 16x16 TensorCore's own
// Sec. IV-D accessors.
#include <iostream>

#include "common/table.hpp"
#include "common/units.hpp"
#include "baseline/comparison.hpp"

int main() {
  using namespace ptc;
  using namespace ptc::baseline;

  std::cout << "Table I reproduction: photonic IMC macro comparison\n\n";

  TablePrinter table({"Reference", "Throughput (TOPS)",
                      "Power Efficiency (TOPS/W)", "Weight Update (Speed)",
                      "Update mechanism"});
  for (const auto& row : table1_rows()) {
    table.add_row(
        {row.name,
         row.throughput_tops > 0.0 ? TablePrinter::num(row.throughput_tops, 3)
                                   : "-",
         row.efficiency_tops_w > 0.0
             ? TablePrinter::num(row.efficiency_tops_w, 3)
             : "-",
         units::si_format(row.weight_update_hz, "Hz"), row.update_note});
  }
  table.print(std::cout);

  std::cout << "\npaper Table I:  [33] 0.12 TOPS / 60 GHz;  [48] 0.93 TOPS, "
               "0.83 TOPS/W, <0.5 GHz;\n"
               "                [49] 11.0 TOPS / 2 Hz;  [50] 10 TOPS/W / "
               "~1 GHz;  [51] 3.98 TOPS, 1.97 TOPS/W, <0.5 GHz;\n"
               "                This Work 4.10 TOPS, 3.02 TOPS/W, 20 GHz\n";
  return 0;
}
