// The transformer serving frontier: token-level decoding of a registered
// decoder-only transformer swept over sequence length x scheduling policy
// (static padded batches vs continuous batching) through the deterministic
// token event loop of serve::Server on a photonic fleet.
//
// The point of the sweep: under a saturated queue with mixed generation
// lengths, a static batch holds its freed slots hostage until the longest
// request drains, so queued requests pay the straggler's tail; continuous
// batching refills every token step, which compresses p99 and lifts
// tokens/sec while the per-token energy barely moves (the same tokens run
// either way — only *when* they run changes).  Decode arithmetic is
// per-request, so both policies emit bit-identical token streams; the
// schedulers reorder time, never results.
//
// Exit status is the acceptance gate: at the longest (saturating) sequence
// row, continuous batching must beat static on p99 and on tokens/sec, the
// two policies must produce identical token streams, and the gated row's
// report must be byte-identical across 1/2/8 host threads — or the sweep
// is not exercising continuous batching.
//
// Emits BENCH_transformer.json (telemetry::BenchReport) on *modeled* time —
// deterministic across hosts, so the gates carry tight tolerances.  The
// --quick flag drops the intermediate sequence row (CI smoke); every row is
// an independent run, so the gated numbers are identical either way.
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "telemetry/bench_report.hpp"

namespace {

using namespace ptc;
using namespace ptc::serve;

constexpr std::size_t kCores = 32;  // holds the model's 26 static weight
                                    // tiles, so back-to-back steps run warm
constexpr std::size_t kRequests = 24;
constexpr std::size_t kMaxBatch = 8;

nn::TransformerConfig model_config() {
  nn::TransformerConfig config;
  config.vocab = 16;
  config.d_model = 8;
  config.heads = 2;
  config.layers = 2;
  config.d_ff = 12;
  config.max_seq = 24;
  return config;
}

/// Saturating load at one target sequence length: every request arrives
/// within a few ns (decode steps are ns-scale), prompts and generation
/// lengths drawn around seq/2 so total contexts land near `seq` with the
/// mixed-drain imbalance static batching suffers from.
std::vector<TokenRequest> make_requests(std::size_t seq) {
  const nn::TransformerConfig config = model_config();
  std::vector<TokenRequest> requests;
  Rng load(72 + seq);
  for (std::size_t i = 0; i < kRequests; ++i) {
    TokenRequest request;
    request.id = i;
    request.tenant = i % 3 == 0 ? "acme" : (i % 3 == 1 ? "globex" : "initech");
    request.model = "tf";
    request.arrival = static_cast<double>(i) * 1e-9;
    const std::size_t prompt_len = 1 + load.below(seq / 2);
    for (std::size_t t = 0; t < prompt_len; ++t) {
      request.prompt.push_back(load.below(config.vocab));
    }
    const std::size_t room = config.max_seq - prompt_len;
    request.max_new = 1 + load.below(std::min(seq, room));
    requests.push_back(std::move(request));
  }
  return requests;
}

/// One independent run: fresh fleet, fresh registry, same seeded weights.
TokenServeReport run_row(std::size_t seq, TokenPolicy::Schedule schedule,
                         std::size_t threads) {
  runtime::AcceleratorConfig config;
  config.cores = kCores;
  config.threads = threads;
  config.variation.seed = 7;
  runtime::Accelerator accelerator(config);
  ModelRegistry registry(accelerator);
  Rng rng(71);
  registry.add_transformer("tf",
                           nn::TransformerModel::random(model_config(), rng));
  Server server(registry);
  TokenPolicy policy;
  policy.schedule = schedule;
  policy.max_batch = kMaxBatch;
  return server.run(make_requests(seq), policy);
}

/// Token streams keyed by request id — the bit-identity cross-check.
std::map<std::size_t, std::vector<std::size_t>> streams(
    const TokenServeReport& report) {
  std::map<std::size_t, std::vector<std::size_t>> out;
  for (const TokenRequestRecord& record : report.requests) {
    out[record.id] = record.tokens;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  constexpr double kTightTolerance = 1e-6;
  telemetry::BenchReport bench("serving_transformer");
  bench.set_meta("cores", static_cast<double>(kCores));
  bench.set_meta("requests", static_cast<double>(kRequests));
  bench.set_meta("max_batch", static_cast<double>(kMaxBatch));

  std::cout << "transformer serving frontier: " << kCores
            << "-core fleet, decoder-only transformer (2 layers, 2 heads, "
               "d_model 8), "
            << kRequests << " requests, batch " << kMaxBatch
            << (quick ? " (quick grid)" : "") << "\n\n";

  TablePrinter table({"seq", "policy", "steps", "tokens", "p99", "first-token"
                                                                 " p99",
                      "tokens/s", "energy/token", "warm", "makespan"});

  std::vector<std::size_t> seq_lengths = {6, 12, 24};
  if (quick) seq_lengths = {6, 24};
  const std::size_t gated_seq = seq_lengths.back();

  double static_p99 = 0.0;
  double continuous_p99 = 0.0;
  double static_tps = 0.0;
  double continuous_tps = 0.0;
  double continuous_ept = 0.0;
  bool streams_identical = true;
  for (const std::size_t seq : seq_lengths) {
    TokenServeReport static_report =
        run_row(seq, TokenPolicy::Schedule::kStatic, 0);
    TokenServeReport continuous_report =
        run_row(seq, TokenPolicy::Schedule::kContinuous, 0);
    // The schedulers may only reorder time: identical streams per request.
    if (streams(static_report) != streams(continuous_report)) {
      streams_identical = false;
    }
    const struct {
      const char* label;
      const char* key;
      const TokenServeReport* report;
    } rows[] = {{"static", "static", &static_report},
                {"continuous", "continuous", &continuous_report}};
    for (const auto& row : rows) {
      const TokenServeReport& report = *row.report;
      table.add_row({std::to_string(seq), row.label,
                     std::to_string(report.steps),
                     std::to_string(report.tokens),
                     units::si_format(report.total.p99, "s"),
                     units::si_format(report.first_token.p99, "s"),
                     units::si_format(report.tokens_per_second(), "tok/s"),
                     units::si_format(report.energy_per_token(), "J"),
                     TablePrinter::num(report.warm_fraction(), 3),
                     units::si_format(report.makespan, "s")});
      const std::string key =
          std::string(row.key) + "_seq" + std::to_string(seq);
      bench.add_info("p99_" + key, report.total.p99, "s");
      bench.add_info("first_token_p99_" + key, report.first_token.p99, "s");
      bench.add_info("tokens_per_s_" + key, report.tokens_per_second(),
                     "tok/s");
      bench.add_info("energy_per_token_" + key, report.energy_per_token(),
                     "J");
      bench.add_info("warm_fraction_" + key, report.warm_fraction(), "frac");
      bench.add_info("makespan_" + key, report.makespan, "s");
    }
    if (seq == gated_seq) {
      static_p99 = static_report.total.p99;
      continuous_p99 = continuous_report.total.p99;
      static_tps = static_report.tokens_per_second();
      continuous_tps = continuous_report.tokens_per_second();
      continuous_ept = continuous_report.energy_per_token();
    }
  }
  table.print(std::cout);

  // Host-thread byte-identity at the gated row: the modeled report is a
  // pure function of (requests, policy, fleet config).
  const TokenServeReport t1 =
      run_row(gated_seq, TokenPolicy::Schedule::kContinuous, 1);
  const TokenServeReport t2 =
      run_row(gated_seq, TokenPolicy::Schedule::kContinuous, 2);
  const TokenServeReport t8 =
      run_row(gated_seq, TokenPolicy::Schedule::kContinuous, 8);
  const bool thread_stable =
      t1.makespan == t2.makespan && t1.makespan == t8.makespan &&
      t1.energy == t2.energy && t1.energy == t8.energy &&
      t1.total.p99 == t2.total.p99 && t1.total.p99 == t8.total.p99 &&
      t1.tokens == t2.tokens && t1.tokens == t8.tokens &&
      streams(t1) == streams(t2) && streams(t1) == streams(t8);

  const double p99_speedup =
      continuous_p99 > 0.0 ? static_p99 / continuous_p99 : 0.0;
  const double tps_speedup =
      static_tps > 0.0 ? continuous_tps / static_tps : 0.0;
  std::cout << "\nacceptance at seq " << gated_seq << ": static p99 "
            << units::si_format(static_p99, "s") << ", continuous p99 "
            << units::si_format(continuous_p99, "s") << " (speedup "
            << TablePrinter::num(p99_speedup, 3)
            << ", bar > 1), tokens/s speedup "
            << TablePrinter::num(tps_speedup, 3)
            << " (bar > 1), streams identical "
            << (streams_identical ? "yes" : "NO") << ", thread-stable "
            << (thread_stable ? "yes" : "NO") << "\n";

  bench.add_metric("continuous_p99_speedup", p99_speedup, "x",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("continuous_tokens_per_s", continuous_tps, "tok/s",
                   telemetry::Direction::kHigherIsBetter, kTightTolerance);
  bench.add_metric("continuous_energy_per_token", continuous_ept, "J",
                   telemetry::Direction::kLowerIsBetter, kTightTolerance);
  bench.add_info("static_p99", static_p99, "s");
  bench.add_info("continuous_p99", continuous_p99, "s");
  bench.add_info("tokens_per_s_speedup", tps_speedup, "x");
  bench.write("BENCH_transformer.json");
  std::cout << "wrote BENCH_transformer.json\n";

  if (!streams_identical) {
    std::cout << "FAIL: the schedulers changed a token stream — continuous "
                 "batching must be bit-identical to static\n";
    return 1;
  }
  if (!thread_stable) {
    std::cout << "FAIL: the gated row is not byte-identical across 1/2/8 "
                 "host threads\n";
    return 1;
  }
  if (p99_speedup <= 1.0) {
    std::cout << "FAIL: continuous batching does not beat static on p99 at "
                 "the saturating sequence length\n";
    return 1;
  }
  if (tps_speedup <= 1.0) {
    std::cout << "FAIL: continuous batching does not beat static on "
                 "tokens/sec at the saturating sequence length\n";
    return 1;
  }
  std::cout << "PASS: continuous batching beats static on p99 and tokens/sec "
               "at saturation with bit-identical token streams\n";
  return 0;
}
