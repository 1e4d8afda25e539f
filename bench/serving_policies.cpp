// The serving-policy frontier: arrival rate x {max_batch, max_wait} swept
// through the discrete-event Server, printing the saturation / tail-latency
// trade-off a production deployment navigates.
//
// Two regimes bound the design space:
//  - streaming regime (model tiles > fleet cores): every batch pays its
//    pSRAM reloads, so dynamic batching is the whole game — it must sustain
//    multiples of the batch=1 throughput while the max-wait bound keeps the
//    p99 finite even past batch=1 saturation;
//  - resident regime (model fits the fleet): consecutive batches reuse the
//    resident weight tiles and skip reloads entirely, the serving-side
//    payoff of the paper's 20 GHz weight-streaming argument.
//
// Emits BENCH_serving.json (telemetry::BenchReport): modeled-time results
// are bit-deterministic, so the gated metrics carry tight tolerances.  The
// closing multi-tenant section mixes all three tenants through one fleet;
// with PTC_TRACE=<path> it attaches a span tracer, prints each model's
// pass schedule (graph::Graph::schedule_dump), writes the Chrome trace
// (which the writer lints first) and verifies its span counts
// against the ServeReport — the end-to-end observability check CI's
// bench-smoke job runs.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "graph/models.hpp"
#include "nn/mlp.hpp"
#include "runtime/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

struct PolicyRow {
  std::string label;
  BatchPolicy policy;
};

ServeReport run_once(Server& server, ModelRegistry& registry,
                     const std::string& model, double rate,
                     std::size_t requests, const BatchPolicy& policy) {
  const LoadGenerator generator(
      {{.name = "t", .model = model, .rate = rate, .requests = requests}},
      1234);
  return server.run(generator.generate(registry), policy);
}

}  // namespace

int main() {
  constexpr std::size_t kCores = 8;
  runtime::Accelerator accelerator({.cores = kCores});
  ModelRegistry registry(accelerator);
  Rng rng(99);
  registry.add("stream", nn::Mlp(64, 32, 10, rng));    // 10 tiles > 8 cores
  registry.add("resident", nn::Mlp(32, 16, 10, rng));  // 3 tiles <= 8 cores
  // Compiled CNN tenant: conv(4ch) -> pool -> dense, 5 tiles <= 8 cores,
  // but the conv step streams 36 im2col rows per request.
  registry.add_graph(
      "cnn", graph::cnn_graph(8, 8, graph::edge_kernel_bank(4), 3, 2,
                              random_signed(36, 16, rng),
                              std::vector<double>(16, 0.0),
                              random_signed(16, 10, rng),
                              std::vector<double>(10, 0.0)));
  Server server(registry);

  std::cout << "serving-policy sweep: " << kCores
            << "-core fleet, open-loop Poisson arrivals, 96 requests per "
               "point, modeled hardware time\n\n"
            << "streaming regime (64-32-10 model, 10 weight tiles: every "
               "batch reloads):\n";

  const PolicyRow policies[] = {
      {"batch=1", {.max_batch = 1, .max_wait = 0.0}},
      {"b<=16, w=20ns", {.max_batch = 16, .max_wait = 20e-9}},
      {"b<=32, w=100ns", {.max_batch = 32, .max_wait = 100e-9}},
      {"b=32 fixed", {.max_batch = 32, .max_wait = BatchPolicy::kNoTimeout}},
  };

  TablePrinter table({"arrival rate", "policy", "mean batch", "requests/s",
                      "p50", "p99", "utilization", "energy/request"});
  double batch1_throughput = 0.0;
  ServeReport best_dynamic;
  for (const double rate : {50e6, 200e6, 1.2e9}) {
    for (const PolicyRow& row : policies) {
      const ServeReport report =
          run_once(server, registry, "stream", rate, 96, row.policy);
      table.add_row({units::si_format(rate, "req/s"), row.label,
                     TablePrinter::num(report.mean_batch(), 3),
                     units::si_format(report.throughput(), "req/s"),
                     units::si_format(report.total.p50, "s"),
                     units::si_format(report.total.p99, "s"),
                     TablePrinter::num(report.utilization(), 4),
                     units::si_format(report.energy_per_request(), "J")});
      if (rate == 1.2e9 && row.label == std::string("batch=1")) {
        batch1_throughput = report.throughput();
      }
      if (rate == 1.2e9 && row.label == std::string("b<=32, w=100ns")) {
        best_dynamic = report;
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nsaturation frontier at 1.2 Greq/s: dynamic batching "
               "(b<=32, w=100ns) sustains "
            << TablePrinter::num(best_dynamic.throughput() /
                                     batch1_throughput,
                                 3)
            << "x the throughput of batch=1 with a bounded p99 of "
            << units::si_format(best_dynamic.total.p99, "s") << " ("
            << units::si_format(best_dynamic.throughput(), "req/s")
            << " vs "
            << units::si_format(batch1_throughput, "req/s") << ")\n";

  std::cout << "\nresident regime (32-16-10 model, 3 weight tiles: "
               "consecutive batches reuse residencies) at 2 Greq/s:\n";
  TablePrinter resident({"policy", "mean batch", "warm passes", "requests/s",
                         "p99", "energy/request"});
  for (const PolicyRow& row :
       {PolicyRow{"batch=1", {.max_batch = 1, .max_wait = 0.0}},
        PolicyRow{"b=16 fixed",
                  {.max_batch = 16, .max_wait = BatchPolicy::kNoTimeout}}}) {
    const ServeReport report =
        run_once(server, registry, "resident", 2e9, 96, row.policy);
    resident.add_row(
        {row.label, TablePrinter::num(report.mean_batch(), 3),
         TablePrinter::num(100.0 * report.warm_fraction(), 3) + " %",
         units::si_format(report.throughput(), "req/s"),
         units::si_format(report.total.p99, "s"),
         units::si_format(report.energy_per_request(), "J")});
  }
  resident.print(std::cout);

  std::cout << "\ncompiled-CNN tenant (conv->pool->dense via the graph "
               "compiler, 5 weight tiles resident on 8 cores, conv streams "
               "36 im2col rows per request):\n";
  TablePrinter cnn_table({"arrival rate", "policy", "mean batch",
                          "requests/s", "p50", "p99", "warm passes",
                          "energy/request"});
  for (const double rate : {50e6, 200e6, 1.2e9}) {
    for (const PolicyRow& row : policies) {
      const ServeReport report =
          run_once(server, registry, "cnn", rate, 96, row.policy);
      cnn_table.add_row(
          {units::si_format(rate, "req/s"), row.label,
           TablePrinter::num(report.mean_batch(), 3),
           units::si_format(report.throughput(), "req/s"),
           units::si_format(report.total.p50, "s"),
           units::si_format(report.total.p99, "s"),
           TablePrinter::num(100.0 * report.warm_fraction(), 3) + " %",
           units::si_format(report.energy_per_request(), "J")});
    }
  }
  cnn_table.print(std::cout);

  // --- multi-tenant closing section -----------------------------------
  // All three tenants share the fleet under one dynamic policy: the
  // scenario the telemetry subsystem instruments end to end (request
  // lifecycles, batch windows, per-core passes, queue depth).
  std::cout << "\nmulti-tenant mix (alpha->stream, beta->resident, "
               "gamma->cnn on one fleet, b<=16, w=50ns):\n";
  telemetry::Tracer tracer;
  telemetry::MetricsRegistry metrics;
  const char* trace_path = telemetry::trace_path_from_env();
  if (trace_path != nullptr) {
    server.set_tracer(&tracer);
    server.set_metrics(&metrics);
    for (const char* name : {"stream", "resident", "cnn"}) {
      std::cout << "\ncompiled schedule [" << name << "]:\n"
                << registry.schedule_dump(name);
    }
  }
  const LoadGenerator mixed(
      {{.name = "alpha", .model = "stream", .rate = 120e6, .requests = 40},
       {.name = "beta", .model = "resident", .rate = 300e6, .requests = 32},
       {.name = "gamma", .model = "cnn", .rate = 80e6, .requests = 24}},
      777);
  const BatchPolicy mixed_policy{.max_batch = 16, .max_wait = 50e-9};
  const ServeReport mixed_report =
      server.run(mixed.generate(registry), mixed_policy);
  server.set_tracer(nullptr);
  server.set_metrics(nullptr);

  TablePrinter mixed_table({"tenant", "count", "p50", "p99"});
  for (const char* tenant : {"alpha", "beta", "gamma"}) {
    const LatencyStats stats = mixed_report.tenant_total(tenant);
    mixed_table.add_row({tenant, std::to_string(stats.count),
                         units::si_format(stats.p50, "s"),
                         units::si_format(stats.p99, "s")});
  }
  mixed_table.print(std::cout);
  std::cout << "fleet: " << units::si_format(mixed_report.throughput(),
                                             "req/s")
            << ", p99 " << units::si_format(mixed_report.total.p99, "s")
            << ", mean batch "
            << TablePrinter::num(mixed_report.mean_batch(), 3)
            << ", warm "
            << TablePrinter::num(100.0 * mixed_report.warm_fraction(), 3)
            << " %\n";

  if (trace_path != nullptr) {
    tracer.write_chrome_json_file(trace_path);
    // The acceptance check: every request contributes one async begin/end
    // pair and every dispatched batch one "batch" span — the trace and the
    // report must agree exactly.
    const std::size_t request_spans =
        tracer.count(telemetry::TraceEvent::Phase::kAsyncBegin, "request");
    const std::size_t batch_spans =
        tracer.count(telemetry::TraceEvent::Phase::kComplete, "batch");
    std::cout << "\nPTC_TRACE: wrote " << tracer.size() << " events to "
              << trace_path << " (" << request_spans << " request spans, "
              << batch_spans << " batch spans)\n";
    if (request_spans != mixed_report.completed ||
        batch_spans != mixed_report.dispatched_batches) {
      std::cout << "FAIL: trace span counts disagree with the report ("
                << mixed_report.completed << " requests, "
                << mixed_report.dispatched_batches << " batches)\n";
      return 1;
    }
    std::cout << "\nmetrics exposition:\n" << metrics.prometheus_text();
  }

  telemetry::BenchReport bench("serving_policies");
  bench.set_meta("cores", static_cast<double>(kCores));
  bench.set_meta("requests_per_point", 96.0);
  constexpr double kTightTolerance = 1e-6;
  bench.add_metric("dynamic_speedup_vs_batch1",
                   best_dynamic.throughput() / batch1_throughput, "x",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("dynamic_throughput", best_dynamic.throughput(), "req/s",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("dynamic_p99", best_dynamic.total.p99, "s",
                   telemetry::Direction::kLowerIsBetter, kTightTolerance);
  bench.add_metric("mixed_throughput", mixed_report.throughput(), "req/s",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("mixed_p99", mixed_report.total.p99, "s",
                   telemetry::Direction::kLowerIsBetter, kTightTolerance);
  bench.add_info("batch1_throughput", batch1_throughput, "req/s");
  bench.add_info("mixed_warm_fraction", mixed_report.warm_fraction(), "frac");
  bench.add_info("mixed_mean_batch", mixed_report.mean_batch(), "count");
  bench.write("BENCH_serving.json");
  std::cout << "\nwrote BENCH_serving.json\n";

  std::cout << "\nin the streaming regime the batcher earns its keep: past "
               "batch=1 saturation the queue grows without bound, while the "
               "max-wait policy closes near-full batches and holds the tail; "
               "in the resident regime even unbatched requests ride warm "
               "tiles, so the 20 GHz reload path only matters when the "
               "working set exceeds the fleet — exactly the paper's "
               "weight-streaming amortization argument, restated as a "
               "serving policy (energy/request is execution energy and is "
               "not credited for skipped reloads; the static-power-dominated "
               "ledger keeps it flat across policies); the CNN tenant sits "
               "between the regimes — its 5 tiles ride warm like the "
               "resident MLP, but every request streams 36 conv rows, so "
               "service time (and the batch=1 saturation point) is set by "
               "compute, not reloads\n";
  return 0;
}
