#include "console/demo.hpp"

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"

namespace ptc::console {
namespace {

/// 4 drifting, device-varied cores: small enough to run in milliseconds,
/// varied enough that accuracy scoring, detuning queries, and the
/// recalibration fleet row all have non-trivial answers.
runtime::AcceleratorConfig demo_config(std::size_t threads) {
  runtime::AcceleratorConfig config;
  config.cores = 4;
  config.threads = threads;
  config.variation.seed = 7;
  config.drift.sigma = 0.5;
  config.drift.tau = 1e-6;
  return config;
}

}  // namespace

DemoScenario::DemoScenario(std::size_t threads)
    : accelerator_(demo_config(threads)),
      registry_(accelerator_),
      server_(registry_) {
  Rng rng(2025);
  // "vision" streams more tiles than the fleet holds (always cold);
  // "keyword" fits resident, so its back-to-back batches run warm — the
  // cost asymmetry TEN:COST? exists to expose.
  registry_.add("vision", nn::Mlp(32, 24, 10, rng));
  registry_.add("keyword", nn::Mlp(16, 12, 4, rng));
  // "chat" is the token-serving tenant's transformer: TOK:RUN? decodes
  // against it and its KV-residency costs land in TEN:COST?.
  nn::TransformerConfig tf_config;
  tf_config.vocab = 16;
  tf_config.d_model = 8;
  tf_config.heads = 2;
  tf_config.layers = 2;
  tf_config.d_ff = 12;
  tf_config.max_seq = 24;
  Rng tf_rng(71);
  registry_.add_transformer("chat",
                            nn::TransformerModel::random(tf_config, tf_rng));
  server_.set_tracer(&tracer_);
  server_.set_metrics(&metrics_);

  serve::SloObjective latency;
  latency.name = "p99-latency";
  latency.kind = serve::SloObjective::Kind::kLatency;
  latency.latency_target = 30e-9;
  latency.objective = 0.99;
  latency.short_window = 50e-9;
  latency.long_window = 200e-9;
  latency.burn_threshold = 1.0;
  server_.add_slo(latency);

  serve::SloObjective accuracy;
  accuracy.name = "mobile-accuracy";
  accuracy.tenant = "mobile";
  accuracy.kind = serve::SloObjective::Kind::kErrorRate;
  accuracy.objective = 0.9;
  accuracy.short_window = 100e-9;
  accuracy.long_window = 400e-9;
  accuracy.burn_threshold = 1.0;
  server_.add_slo(accuracy);
}

serve::ServeReport DemoScenario::run() {
  const serve::LoadGenerator generator(
      {{.name = "mobile", .model = "vision", .rate = 120e6, .requests = 24},
       {.name = "embedded", .model = "keyword", .rate = 500e6, .requests = 36}},
      7);
  // Oracle-free recalibration: probe sweeps every 10 ns feed the health
  // monitor, and the re-lock fires from the *estimated* detuning — so the
  // transcript's HEALth queries have live estimator state behind them.
  // The demo drifts fast (tau = 1 us vs a ~125 ns run), so the threshold
  // sits low enough for the lagging EWMA estimate to cross it mid-run.
  const serve::BatchPolicy policy{.max_batch = 8, .max_wait = 25e-9,
                                  .probe_period = 10e-9,
                                  .estimated_drift_threshold = 0.1};
  return server_.run(generator.generate(registry_), policy);
}

serve::TokenServeReport DemoScenario::run_tokens() {
  // Six near-simultaneous chat requests (decode steps are ns-scale) from
  // two tenants, under a KV budget tight enough to force preemption — so
  // the console's token, residency, and eviction figures are all live.
  std::vector<serve::TokenRequest> requests;
  Rng load(72);
  for (std::size_t i = 0; i < 6; ++i) {
    serve::TokenRequest request;
    request.id = i;
    request.tenant = i % 2 == 0 ? "chat-pro" : "chat-free";
    request.model = "chat";
    request.arrival = static_cast<double>(i) * 1e-9;
    const std::size_t prompt_len = 1 + load.below(4);
    for (std::size_t t = 0; t < prompt_len; ++t) {
      request.prompt.push_back(load.below(16));
    }
    request.max_new = 3 + load.below(6);
    requests.push_back(std::move(request));
  }
  serve::TokenPolicy policy;
  policy.schedule = serve::TokenPolicy::Schedule::kContinuous;
  policy.max_batch = 8;
  policy.kv_budget_rows = 16;
  return server_.run(requests, policy);
}

Console DemoScenario::make_console() {
  Console console(server_, registry_, accelerator_);
  console.set_run_callback([this] { return run(); });
  console.set_token_run_callback([this] { return run_tokens(); });
  return console;
}

}  // namespace ptc::console
