// CNN digit classification through the graph compiler: the first non-MLP
// workload.  A conv -> pool -> dense network runs on the accelerator fleet
// as a graph schedule — the frozen 3x3 feature bank does inference-only
// convolution on the photonic substrate (im2col lowered into tiled
// matmuls), while the dense head is trained in float on the extracted
// features, the standard split when the analog hardware serves inference.
//
// Set PTC_TRACE=/path/to/trace.json to capture the fleet's inference
// passes (analog + quantized backends) as a Chrome trace.
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/executor.hpp"
#include "graph/models.hpp"
#include "nn/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace ptc;

double accuracy(const graph::Graph& graph, nn::MatmulBackend& backend,
                const nn::Dataset& data) {
  const Matrix logits = graph::run(graph, backend, data.inputs);
  const auto predicted = nn::argmax_rows(logits);
  std::size_t correct = 0;
  for (std::size_t s = 0; s < data.size(); ++s)
    if (predicted[s] == data.labels[s]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace

int main() {
  using namespace ptc;

  Rng rng(2025);
  const nn::Dataset train = nn::make_dataset(600, rng, 0.12);
  const nn::Dataset test = nn::make_dataset(200, rng, 0.12);

  // Frozen feature extractor: 6 oriented-edge/blob kernels, relu, 2x2 pool.
  constexpr std::size_t kChannels = 6;
  constexpr std::size_t kKernel = 3;
  constexpr std::size_t kPool = 2;
  const Matrix bank = graph::edge_kernel_bank(kChannels);

  graph::Graph features(graph::Shape{{nn::glyph_side, nn::glyph_side, 1}});
  features.conv2d(bank, kKernel).relu().maxpool(kPool).flatten();
  const std::size_t feature_width = features.output_size();

  // Train the dense head in float on the extracted features.
  nn::FloatBackend reference;
  nn::Dataset train_features{
      graph::run(features, reference, train.inputs), train.labels};
  std::cout << "training a conv(" << kChannels << "ch)->pool->dense("
            << feature_width << "-32-10) head in float on " << train.size()
            << " synthetic glyphs...\n";
  nn::Mlp head(feature_width, 32, nn::glyph_classes, rng);
  for (int epoch = 0; epoch < 40; ++epoch) {
    const double loss = head.train_epoch(train_features, 0.1, 16, rng);
    if (epoch % 10 == 9) {
      std::cout << "  epoch " << epoch + 1 << ": loss "
                << TablePrinter::num(loss, 4) << "\n";
    }
  }

  // Assemble the full CNN.
  const graph::Graph cnn = graph::cnn_graph(
      nn::glyph_side, nn::glyph_side, bank, kKernel, kPool, head.layer1().w,
      head.layer1().b, head.layer2().w, head.layer2().b);

  constexpr std::size_t kCores = 8;
  nn::PhotonicBackendOptions analog;
  analog.quantize_output = false;
  analog.differential_weights = true;
  runtime::Accelerator accelerator({.cores = kCores});
  runtime::AcceleratorBackend fleet_analog(accelerator, analog);

  nn::PhotonicBackendOptions quantized = analog;
  quantized.quantize_output = true;
  quantized.adc_range_gain = 8.0;
  runtime::AcceleratorBackend fleet_quantized(accelerator, quantized);

  const core::TensorCore& probe = accelerator.core(0);
  std::cout << "\ncompiled CNN schedule (" << kCores << "-core fleet, "
            << probe.rows() << "x" << probe.cols()
            << " tiles, differential weights):\n"
            << cnn.schedule_dump(probe.rows(), probe.cols(),
                                 analog.differential_weights);

  std::cout << "\nrunning inference on " << test.size() << " samples...\n\n";
  telemetry::Tracer tracer;
  const char* trace_path = telemetry::trace_path_from_env();
  if (trace_path != nullptr) accelerator.set_tracer(&tracer);
  TablePrinter table({"backend", "weights", "readout", "accuracy"});
  table.add_row({"float reference", "fp64", "exact",
                 TablePrinter::num(100.0 * accuracy(cnn, reference, test), 4) +
                     " %"});
  table.add_row(
      {"fleet (analog readout)", "3-bit pSRAM", "ideal high-res ADC",
       TablePrinter::num(100.0 * accuracy(cnn, fleet_analog, test), 4) +
           " %"});
  table.add_row(
      {"fleet (3-bit eoADC, gain 8)", "3-bit pSRAM", "3-bit eoADC",
       TablePrinter::num(100.0 * accuracy(cnn, fleet_quantized, test), 4) +
           " %"});
  table.print(std::cout);

  const runtime::AcceleratorStats stats = accelerator.stats();
  std::cout << "\nfleet after inference: " << stats.tile_loads
            << " tile loads, reload time "
            << TablePrinter::num(stats.reload_time * 1e6, 4)
            << " us, modeled makespan "
            << TablePrinter::num(stats.makespan * 1e6, 4)
            << " us\nthe conv step streams "
            << cnn.pass_profile(probe.rows(), probe.cols(), true)
                   .steps.front()
                   .rows_per_sample
            << " im2col rows per image through each kernel-tile residency — "
               "the reload amortization the 20 GHz weight streaming buys\n";
  if (trace_path != nullptr) {
    accelerator.set_tracer(nullptr);
    tracer.write_chrome_json_file(trace_path);
    std::cout << "\nwrote Chrome trace (" << tracer.size()
              << " events, analog + quantized inference) to " << trace_path
              << "\n";
  }
  return 0;
}
