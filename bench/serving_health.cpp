// The oracle-free recalibration frontier: who pulls the re-lock trigger —
// the simulator's ground-truth detuning oracle, the pilot-tone drift
// *estimate*, or the anomaly detector riding the same probe channels —
// swept through the discrete-event Server on a variation-aware fleet.
//
// Real hardware has no oracle.  The estimated / anomaly rows read only
// FleetHealthMonitor state (probe transmission inverted through the ring
// model, EWMA-smoothed), pay for every probe sweep through the fleet
// attribution row, and still have to match the oracle row's served
// accuracy.  The gap between "oracle drift > 0.10K" and "estimated drift
// > 0.10K" is the price of observability; the probe-overhead column is the
// price of the sensor data itself.
//
// Exit status is the acceptance gate: at sigma = 1.0 K the estimated
// trigger must recover >= 95% of the oracle-triggered accuracy while
// spending <= 2% of the makespan on probe sweeps — and the
// no-recalibration row must degrade, or the sweep is not exercising drift.
//
// Emits BENCH_health.json (telemetry::BenchReport) on *modeled* time —
// deterministic across hosts, so the gates carry tight tolerances; any
// drift there is a behavior change, not runner noise.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "telemetry/bench_report.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

struct PolicyRow {
  std::string label;
  const char* key;  // stable metric-name key for the BENCH artifact
  BatchPolicy policy;
};

}  // namespace

int main() {
  constexpr std::size_t kCores = 8;
  constexpr std::size_t kRequests = 256;
  constexpr double kRate = 100e6;    // ~2.6 us horizon: a few drift tau
  // A sweep is 4 samples at 8 GS/s, 0.5 ns: about 1.7% duty at 30 ns.
  constexpr double kProbe = 30e-9;

  // Same fleet as the drift frontier (6-bit weights, variation seed 42,
  // OU tau = 4 us) so the oracle rows here line up with BENCH_drift.json.
  const PolicyRow policies[] = {
      {"no recalibration", "none", {.max_batch = 8, .max_wait = 20e-9}},
      {"oracle drift > 0.10K",
       "oracle",
       {.max_batch = 8, .max_wait = 20e-9, .drift_threshold = 0.10}},
      {"estimated drift > 0.10K",
       "estimated",
       {.max_batch = 8,
        .max_wait = 20e-9,
        .probe_period = kProbe,
        .estimated_drift_threshold = 0.10}},
      {"anomaly triggered",
       "anomaly",
       {.max_batch = 8,
        .max_wait = 20e-9,
        .probe_period = kProbe,
        .recalibrate_on_anomaly = true}},
  };

  constexpr double kTightTolerance = 1e-6;
  telemetry::BenchReport bench("serving_health");
  bench.set_meta("cores", static_cast<double>(kCores));
  bench.set_meta("requests", static_cast<double>(kRequests));
  bench.set_meta("rate_req_per_s", kRate);
  bench.set_meta("probe_period_s", kProbe);

  std::cout << "serving-health frontier: " << kCores
            << "-core variation-aware fleet, 6-bit weights, OU drift "
               "(tau = 4 us), pilot-tone probes every "
            << units::si_format(kProbe, "s") << ", " << kRequests
            << " requests at " << units::si_format(kRate, "req/s") << "\n\n";

  TablePrinter table({"drift sigma [K]", "policy", "accuracy", "p99",
                      "recals", "probes", "probe ovh", "lag p50", "alerts",
                      "max |detuning| [K]"});

  double oracle_accuracy = 0.0;
  double estimated_accuracy = 0.0;
  double estimated_overhead = 0.0;
  double no_recal_accuracy = 0.0;
  for (const double sigma : {0.5, 1.0}) {
    runtime::AcceleratorConfig config;
    config.cores = kCores;
    config.core.weight_bits = 6;
    config.variation.seed = 42;
    config.drift.sigma = sigma;
    config.drift.tau = 4e-6;
    runtime::Accelerator accelerator(config);

    nn::PhotonicBackendOptions options;
    options.quantize_output = false;
    options.differential_weights = true;
    ModelRegistry registry(accelerator, options);
    Rng rng(7);
    registry.add("mlp", nn::Mlp(32, 16, 10, rng));  // 6 tiles <= 8 cores
    Server server(registry);

    const LoadGenerator generator(
        {{.name = "t", .model = "mlp", .rate = kRate, .requests = kRequests}},
        1234);
    const std::vector<Request> requests = generator.generate(registry);

    for (const PolicyRow& row : policies) {
      const ServeReport report = server.run(requests, row.policy);
      {
        std::ostringstream key;
        key << row.key << "_sigma" << TablePrinter::num(sigma, 2);
        bench.add_info("accuracy_" + key.str(), report.accuracy(), "frac");
        bench.add_info("p99_" + key.str(), report.total.p99, "s");
        bench.add_info("recals_" + key.str(),
                       static_cast<double>(report.recalibrations), "count");
        bench.add_info("probe_overhead_" + key.str(), report.probe_overhead(),
                       "frac");
        bench.add_info("trigger_lag_p50_" + key.str(), report.trigger_lag.p50,
                       "s");
      }
      table.add_row(
          {TablePrinter::num(sigma, 2), row.label,
           TablePrinter::num(report.accuracy(), 3),
           units::si_format(report.total.p99, "s"),
           std::to_string(report.recalibrations),
           std::to_string(report.probes),
           TablePrinter::num(report.probe_overhead(), 4),
           units::si_format(report.trigger_lag.p50, "s"),
           std::to_string(report.health_alerts),
           TablePrinter::num(report.max_abs_detuning, 3)});
      if (sigma == 1.0) {
        if (row.key == std::string("none")) {
          no_recal_accuracy = report.accuracy();
        } else if (row.key == std::string("oracle")) {
          oracle_accuracy = report.accuracy();
        } else if (row.key == std::string("estimated")) {
          estimated_accuracy = report.accuracy();
          estimated_overhead = report.probe_overhead();
        }
      }
    }
  }
  table.print(std::cout);

  const double recovery =
      oracle_accuracy > 0.0 ? estimated_accuracy / oracle_accuracy : 0.0;
  std::cout << "\nacceptance at sigma = 1.0 K: oracle-triggered accuracy "
            << TablePrinter::num(oracle_accuracy, 3) << ", estimated-trigger "
            << TablePrinter::num(estimated_accuracy, 3) << " (recovery "
            << TablePrinter::num(recovery, 3) << ", bar 0.95), probe overhead "
            << TablePrinter::num(estimated_overhead, 4) << " (bar 0.02)\n";

  bench.add_metric("recovery_ratio", recovery, "frac",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("estimated_accuracy", estimated_accuracy, "frac",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("probe_overhead", estimated_overhead, "frac",
                   telemetry::Direction::kLowerIsBetter, kTightTolerance);
  bench.add_info("oracle_accuracy", oracle_accuracy, "frac");
  bench.add_info("no_recal_accuracy", no_recal_accuracy, "frac");
  bench.write("BENCH_health.json");
  std::cout << "wrote BENCH_health.json\n";

  if (recovery < 0.95) {
    std::cout << "FAIL: the estimated trigger does not recover 95% of the "
                 "oracle-triggered accuracy\n";
    return 1;
  }
  if (estimated_overhead > 0.02) {
    std::cout << "FAIL: probe sweeps cost more than 2% of the makespan\n";
    return 1;
  }
  if (no_recal_accuracy >= 0.95 * oracle_accuracy) {
    std::cout << "FAIL: the no-recalibration row does not degrade — the "
                 "sweep is not exercising drift\n";
    return 1;
  }
  std::cout << "PASS: oracle-free estimated trigger recovers >= 95% of the "
               "oracle accuracy at <= 2% probe overhead\n";
  return 0;
}
