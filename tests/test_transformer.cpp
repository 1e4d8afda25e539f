// Transformer decoding: the incremental KV-cache decode path against a
// cache-free full-sequence reference written here, over seeded random
// (seq_len, heads, d_model) draws.  The contracts the serving layer leans
// on:
//  (1) decode_step's logits are bitwise equal to the full-sequence forward
//      on the float backend (same helpers, same accumulation order), and
//      the passes a decode step loads are the passes serving bills,
//  (2) decode on the fleet is bit-identical to a single photonic core and
//      within ADC tolerance of the float reference,
//  (3) a request's token stream is independent of how decode steps
//      interleave with other requests — the property that makes
//      continuous batching's output bit-identical to sequential decoding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "nn/backend.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/tiling.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"

namespace {

using namespace ptc;
using nn::KvCache;
using nn::TransformerConfig;
using nn::TransformerModel;

std::vector<std::size_t> random_tokens(std::size_t count, std::size_t vocab,
                                       Rng& rng) {
  std::vector<std::size_t> tokens(count);
  for (auto& t : tokens) t = rng.below(vocab);
  return tokens;
}

/// Decodes `tokens` one step at a time from an empty cache; row p holds
/// the logits after token p.
Matrix decode_all(const TransformerModel& model, nn::MatmulBackend& backend,
                  const std::vector<std::size_t>& tokens) {
  KvCache cache = model.make_cache();
  Matrix logits(tokens.size(), model.config().vocab);
  for (std::size_t p = 0; p < tokens.size(); ++p) {
    const std::vector<double> row =
        model.decode_step(backend, cache, tokens[p]);
    for (std::size_t j = 0; j < row.size(); ++j) logits(p, j) = row[j];
  }
  return logits;
}

/// Cache-free full-sequence forward: every position's K and V come from one
/// matmul over the whole sequence, then position p attends over rows 0..p.
/// Uses decode's helpers in decode's order, so on the float backend it is
/// the bitwise reference for decode_step.  Row p holds position p's logits.
Matrix full_sequence_logits(const TransformerModel& model,
                            nn::MatmulBackend& backend,
                            const std::vector<std::size_t>& tokens) {
  const TransformerConfig& config = model.config();
  const std::size_t t = tokens.size();
  const std::size_t d = config.d_model;
  const std::size_t dk = config.head_dim();
  const double scale = 1.0 / std::sqrt(static_cast<double>(dk));

  Matrix x(t, d);
  for (std::size_t p = 0; p < t; ++p)
    for (std::size_t ch = 0; ch < d; ++ch)
      x(p, ch) = model.token_table()(tokens[p], ch) + model.pos_table()(p, ch);

  for (const nn::TransformerLayer& layer : model.layers()) {
    Matrix h = x;
    nn::layernorm_inplace(h, layer.ln1_gain, layer.ln1_bias);
    const Matrix q = nn::signed_matmul(backend, h, layer.wq);
    const Matrix k = nn::signed_matmul(backend, h, layer.wk);
    const Matrix v = nn::signed_matmul(backend, h, layer.wv);
    Matrix merged(t, d);
    for (std::size_t p = 0; p < t; ++p) {
      for (std::size_t head = 0; head < config.heads; ++head) {
        const std::size_t base = head * dk;
        Matrix qh(1, dk), kt(dk, p + 1), vals(p + 1, dk);
        for (std::size_t c = 0; c < dk; ++c) qh(0, c) = q(p, base + c);
        for (std::size_t j = 0; j <= p; ++j) {
          for (std::size_t c = 0; c < dk; ++c) {
            kt(c, j) = k(j, base + c);
            vals(j, c) = v(j, base + c);
          }
        }
        Matrix scores = nn::signed_matmul(backend, qh, kt);
        for (double& s : scores.data()) s *= scale;
        nn::softmax_inplace(scores);
        const Matrix ctx = backend.matmul(scores, vals);
        for (std::size_t c = 0; c < dk; ++c) merged(p, base + c) = ctx(0, c);
      }
    }
    Matrix attn = nn::signed_matmul(backend, merged, layer.wo);
    attn += x;
    x = std::move(attn);

    Matrix h2 = x;
    nn::layernorm_inplace(h2, layer.ln2_gain, layer.ln2_bias);
    Matrix f = nn::signed_matmul(backend, h2, layer.w_ff1);
    for (std::size_t p = 0; p < t; ++p)
      for (std::size_t j = 0; j < config.d_ff; ++j) f(p, j) += layer.b_ff1[j];
    nn::gelu_inplace(f);
    Matrix f2 = nn::signed_matmul(backend, f, layer.w_ff2);
    for (std::size_t p = 0; p < t; ++p)
      for (std::size_t ch = 0; ch < d; ++ch) f2(p, ch) += layer.b_ff2[ch];
    f2 += x;
    x = std::move(f2);
  }
  nn::layernorm_inplace(x, model.lnf_gain(), model.lnf_bias());
  return nn::signed_matmul(backend, x, model.unembed());
}

/// Float backend that records every weight-matrix residency: a matmul
/// whose weights equal the previous load's (the x- half of a signed
/// stream) rides that load.
class LoadRecordingBackend final : public nn::MatmulBackend {
 public:
  Matrix matmul(const Matrix& x, const Matrix& w) override {
    if (loads_.empty() || w.rows() != loads_.back().rows() ||
        w.data() != loads_.back().data()) {
      loads_.push_back(w);
    }
    return inner_.matmul(x, w);
  }
  const char* name() const override { return "load-recording"; }

  /// tile_passes summed over the recorded loads, then forgotten.
  std::size_t take_passes(std::size_t tile_m, std::size_t tile_k,
                          bool differential) {
    std::size_t passes = 0;
    for (const Matrix& w : loads_)
      passes += nn::tile_passes(w.rows(), w.cols(), tile_m, tile_k,
                                differential);
    loads_.clear();
    return passes;
  }

 private:
  nn::FloatBackend inner_;
  std::vector<Matrix> loads_;
};

// ---------------------------------------------------------------------------
// Contract 1: decode == full-sequence reference, bitwise, on the float
// backend; serving bills the passes decode loads
// ---------------------------------------------------------------------------

TEST(Transformer, DecodeMatchesAFullSequenceForwardBitwiseOnFloatBackend) {
  Rng param_rng(21);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t heads = 1 + param_rng.below(3);  // 1..3 heads
    const TransformerConfig config{
        .vocab = 8 + static_cast<std::size_t>(param_rng.below(17)),
        .d_model = heads * (4 + static_cast<std::size_t>(param_rng.below(3))),
        .heads = heads,
        .layers = 1 + static_cast<std::size_t>(param_rng.below(2)),
        .d_ff = 8 + static_cast<std::size_t>(param_rng.below(17)),
        .max_seq = 16};
    Rng weight_rng(100 + trial);
    const TransformerModel model = TransformerModel::random(config, weight_rng);
    const std::size_t seq = 1 + param_rng.below(6);
    const std::vector<std::size_t> tokens =
        random_tokens(seq, config.vocab, param_rng);

    nn::FloatBackend backend;
    const Matrix full = full_sequence_logits(model, backend, tokens);
    ASSERT_EQ(full.cols(), config.vocab);

    KvCache cache = model.make_cache();
    for (std::size_t p = 0; p < seq; ++p) {
      const std::vector<double> logits =
          model.decode_step(backend, cache, tokens[p]);
      ASSERT_EQ(logits.size(), config.vocab);
      for (std::size_t j = 0; j < config.vocab; ++j) {
        EXPECT_EQ(logits[j], full(p, j))
            << "trial " << trial << " position " << p << " logit " << j;
      }
    }
    EXPECT_EQ(cache.length, seq);
    EXPECT_EQ(cache.rows(), seq * config.layers);
  }
}

TEST(Transformer, PassCountsMatchWhatADecodeStepLoads) {
  Rng rng(12);
  const TransformerConfig config{.vocab = 16,
                                 .d_model = 16,
                                 .heads = 2,
                                 .layers = 2,
                                 .d_ff = 24,
                                 .max_seq = 16};
  const TransformerModel model = TransformerModel::random(config, rng);
  const std::vector<std::size_t> tokens = random_tokens(9, config.vocab, rng);
  // The serving geometry, and a non-square one on which a context of 9
  // crosses a tile edge and a transposed operand would count differently.
  const std::pair<std::size_t, std::size_t> geometries[] = {{16, 16}, {4, 8}};
  for (const auto& [tile_m, tile_k] : geometries) {
    for (const bool differential : {false, true}) {
      LoadRecordingBackend backend;
      KvCache cache = model.make_cache();
      for (const std::size_t token : tokens) {
        model.decode_step(backend, cache, token);
        EXPECT_EQ(backend.take_passes(tile_m, tile_k, differential),
                  model.weight_passes(tile_m, tile_k, differential) +
                      model.attention_passes(cache.length, tile_m, tile_k,
                                             differential))
            << tile_m << "x" << tile_k << " tiles, context " << cache.length
            << (differential ? ", differential" : ", offset");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Contract 2: fleet == single core bitwise; fleet ~= float within tolerance
// ---------------------------------------------------------------------------

TEST(Transformer, FleetForwardIsBitIdenticalToASinglePhotonicCore) {
  Rng rng(31);
  const TransformerConfig config{.vocab = 16,
                                 .d_model = 16,
                                 .heads = 2,
                                 .layers = 2,
                                 .d_ff = 24,
                                 .max_seq = 8};
  const TransformerModel model = TransformerModel::random(config, rng);
  const std::vector<std::size_t> tokens = random_tokens(6, config.vocab, rng);

  nn::PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore core;
  nn::PhotonicBackend single(core, options);
  const Matrix y_single = decode_all(model, single, tokens);

  runtime::Accelerator accelerator({.cores = 8});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_fleet = decode_all(model, fleet, tokens);

  EXPECT_EQ(y_fleet.max_abs_diff(y_single), 0.0);
}

TEST(Transformer, AnalogFleetTracksTheFloatReferenceWithinAdcTolerance) {
  Rng rng(32);
  const TransformerConfig config{.vocab = 16,
                                 .d_model = 16,
                                 .heads = 2,
                                 .layers = 1,
                                 .d_ff = 16,
                                 .max_seq = 8};
  const TransformerModel model = TransformerModel::random(config, rng);
  const std::vector<std::size_t> tokens = random_tokens(5, config.vocab, rng);

  nn::FloatBackend reference;
  const Matrix y_ref = decode_all(model, reference, tokens);

  nn::PhotonicBackendOptions options;
  options.quantize_output = false;  // isolate 3-bit weight quantization
  options.differential_weights = true;
  runtime::Accelerator accelerator({.cores = 4});
  runtime::AcceleratorBackend fleet(accelerator, options);
  const Matrix y_pho = decode_all(model, fleet, tokens);

  // Layernorms re-center each position, so quantization noise stays
  // bounded: same network, analog tolerance.
  EXPECT_LT(y_pho.max_abs_diff(y_ref), 0.5 * y_ref.norm());
  EXPECT_GT(y_pho.max_abs_diff(y_ref), 0.0);  // genuinely analog
}

// ---------------------------------------------------------------------------
// Contract 3: decode is independent of interleaving (continuous batching)
// ---------------------------------------------------------------------------

TEST(Transformer, InterleavedDecodingMatchesSequentialBitwise) {
  Rng rng(41);
  const TransformerConfig config{.vocab = 24,
                                 .d_model = 12,
                                 .heads = 2,
                                 .layers = 2,
                                 .d_ff = 16,
                                 .max_seq = 24};
  const TransformerModel model = TransformerModel::random(config, rng);
  nn::FloatBackend backend;

  const std::vector<std::vector<std::size_t>> prompts = {
      random_tokens(3, config.vocab, rng),
      random_tokens(5, config.vocab, rng),
      random_tokens(1, config.vocab, rng)};

  // Sequential reference: each request decoded alone, start to finish.
  std::vector<std::vector<std::size_t>> sequential;
  for (const auto& prompt : prompts)
    sequential.push_back(model.generate(backend, prompt, 8));

  // Interleaved: round-robin one decode step per request per round — the
  // schedule continuous batching produces.  Same caches, different order.
  std::vector<KvCache> caches;
  std::vector<std::vector<std::size_t>> streams = prompts;
  std::vector<std::size_t> fed(prompts.size(), 0);
  std::vector<std::vector<double>> logits(prompts.size());
  for (std::size_t r = 0; r < prompts.size(); ++r)
    caches.push_back(model.make_cache());
  for (std::size_t round = 0; round < 16; ++round) {
    for (std::size_t r = 0; r < prompts.size(); ++r) {
      if (streams[r].size() >= sequential[r].size() &&
          fed[r] == streams[r].size()) {
        continue;  // done generating
      }
      if (fed[r] < streams[r].size()) {
        logits[r] = model.decode_step(backend, caches[r], streams[r][fed[r]]);
        ++fed[r];
      }
      if (fed[r] == streams[r].size() &&
          streams[r].size() < sequential[r].size()) {
        std::size_t best = 0;
        for (std::size_t j = 1; j < logits[r].size(); ++j)
          if (logits[r][j] > logits[r][best]) best = j;
        streams[r].push_back(best);
      }
    }
  }
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    EXPECT_EQ(streams[r], sequential[r]) << "request " << r;
  }
}

TEST(Transformer, GenerateIsDeterministicAndBoundedByContextWindow) {
  Rng rng(51);
  const TransformerConfig config{.vocab = 12,
                                 .d_model = 8,
                                 .heads = 2,
                                 .layers = 1,
                                 .d_ff = 8,
                                 .max_seq = 6};
  const TransformerModel model = TransformerModel::random(config, rng);
  nn::FloatBackend backend;
  const std::vector<std::size_t> prompt = {3, 1};

  const auto a = model.generate(backend, prompt, 10);
  const auto b = model.generate(backend, prompt, 10);
  EXPECT_EQ(a, b);
  // 6-position window: 2 prompt positions leave 4 decodable continuations
  // plus the final argmax that needs no new position.
  EXPECT_LE(a.size(), config.max_seq + 1);
  EXPECT_GT(a.size(), prompt.size());
}

// ---------------------------------------------------------------------------
// Token-level serving: continuous batching
// ---------------------------------------------------------------------------

nn::TransformerModel serving_model() {
  Rng rng(71);
  const TransformerConfig config{.vocab = 16,
                                 .d_model = 8,
                                 .heads = 2,
                                 .layers = 2,
                                 .d_ff = 12,
                                 .max_seq = 24};
  return TransformerModel::random(config, rng);
}

std::vector<serve::TokenRequest> serving_requests(
    const TransformerConfig& config) {
  Rng rng(72);
  std::vector<serve::TokenRequest> requests;
  const char* tenants[] = {"acme", "acme", "globex", "initech", "globex",
                           "acme"};
  for (std::size_t i = 0; i < 6; ++i) {
    serve::TokenRequest request;
    request.id = i;
    request.tenant = tenants[i];
    request.model = "tf";
    // Near-simultaneous arrivals: decode steps are ns-scale, so a visible
    // stagger would serialize the run and no batch would ever form.
    request.arrival = static_cast<double>(i) * 1e-9;
    request.prompt = random_tokens(1 + rng.below(4), config.vocab, rng);
    request.max_new = 3 + rng.below(6);
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(TokenServing, ContinuousBatchingIsBitIdenticalToSequentialDecoding) {
  const TransformerModel model = serving_model();
  const auto requests = serving_requests(model.config());

  // 32 cores hold all of this model's static weight tiles simultaneously,
  // so back-to-back decode steps ride residency (warm passes below).
  runtime::Accelerator accelerator({.cores = 32});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);
  serve::Server server(registry);
  const serve::TokenServeReport report =
      server.run(requests, {.schedule =
                                serve::TokenPolicy::Schedule::kContinuous,
                            .max_batch = 3});

  ASSERT_EQ(report.completed, requests.size());
  // Each request's token stream must equal decoding it alone, start to
  // finish, on the same fleet backend — continuous batching changes when
  // tokens happen, never which tokens.
  for (const auto& record : report.requests) {
    const auto& request = requests[record.id];
    const auto expected = model.generate(registry.decode_backend(),
                                         request.prompt, request.max_new);
    EXPECT_EQ(record.tokens, expected) << "request " << record.id;
    EXPECT_EQ(record.generated, record.tokens.size() - record.prompt_tokens);
    EXPECT_GE(record.first_token, record.arrival);
    EXPECT_GE(record.completion, record.first_token);
  }
  EXPECT_GT(report.tokens_per_second(), 0.0);
  EXPECT_GT(report.energy_per_token(), 0.0);
  // Static weight tiles ride residency after the first step.
  EXPECT_GT(report.warm_fraction(), 0.0);
  EXPECT_GT(report.kv_peak_rows, 0u);
}

TEST(TokenServing, ReportIsByteStableAcrossHostThreadCounts) {
  const TransformerModel model = serving_model();
  const auto requests = serving_requests(model.config());

  std::vector<std::vector<std::size_t>> tokens[3];
  double p99[3], energy[3], makespan[3];
  const std::size_t threads[] = {1, 2, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    runtime::Accelerator accelerator({.cores = 4, .threads = threads[i]});
    serve::ModelRegistry registry(accelerator);
    registry.add_transformer("tf", model);
    serve::Server server(registry);
    const auto report = server.run(
        requests,
        {.schedule = serve::TokenPolicy::Schedule::kContinuous,
         .max_batch = 3});
    for (const auto& record : report.requests)
      tokens[i].push_back(record.tokens);
    p99[i] = report.total.p99;
    energy[i] = report.energy;
    makespan[i] = report.makespan;
  }
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(tokens[i], tokens[0]);
    EXPECT_EQ(p99[i], p99[0]);
    EXPECT_EQ(energy[i], energy[0]);
    EXPECT_EQ(makespan[i], makespan[0]);
  }
}

TEST(TokenServing, StaticScheduleHoldsSlotsUntilTheBatchDrains) {
  const TransformerModel model = serving_model();
  const auto requests = serving_requests(model.config());

  runtime::Accelerator accelerator({.cores = 4});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);
  serve::Server server(registry);
  const auto report = server.run(
      requests, {.schedule = serve::TokenPolicy::Schedule::kStatic,
                 .max_batch = 3});
  ASSERT_EQ(report.completed, requests.size());
  // Outputs stay bit-identical under the other schedule too.
  for (const auto& record : report.requests) {
    const auto& request = requests[record.id];
    EXPECT_EQ(record.tokens,
              model.generate(registry.decode_backend(), request.prompt,
                             request.max_new));
  }
}

TEST(TokenServing, KvBudgetPreemptsYoungestAndOutputsStayBitIdentical) {
  const TransformerModel model = serving_model();
  const auto requests = serving_requests(model.config());
  const std::size_t layers = model.config().layers;

  runtime::Accelerator accelerator({.cores = 4});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);
  serve::Server server(registry);
  // Budget fits ~2 requests' worth of modest contexts: the third admission
  // forces growth past the line and the youngest request loses its cache.
  const auto report = server.run(
      requests, {.schedule = serve::TokenPolicy::Schedule::kContinuous,
                 .max_batch = 3,
                 .kv_budget_rows = 8 * layers});
  ASSERT_EQ(report.completed, requests.size());
  EXPECT_GT(report.preemptions, 0u);
  EXPECT_GT(report.kv_evicted_rows, 0u);
  // The budget caps concurrent KV state (a lone request may exceed it —
  // the progress guarantee — but concurrency cannot): peak residency must
  // sit well under the unbudgeted run's.
  {
    runtime::Accelerator free_accelerator({.cores = 4});
    serve::ModelRegistry free_registry(free_accelerator);
    free_registry.add_transformer("tf", model);
    serve::Server free_server(free_registry);
    const auto unbudgeted = free_server.run(
        requests, {.schedule = serve::TokenPolicy::Schedule::kContinuous,
                   .max_batch = 3});
    EXPECT_LT(report.kv_peak_rows, unbudgeted.kv_peak_rows);
  }
  // Preemption drops the cache, not the result: the re-prefilled request
  // regenerates the same stream bit for bit.
  for (const auto& record : report.requests) {
    const auto& request = requests[record.id];
    EXPECT_EQ(record.tokens,
              model.generate(registry.decode_backend(), request.prompt,
                             request.max_new))
        << "request " << record.id << " (preempted " << record.preemptions
        << "x)";
  }
  // A preempted request decodes its prefill twice: it is billed for more
  // tokens than an unpreempted run would charge.
  std::size_t billed = 0;
  for (const auto& row : report.tenant_costs) billed += row.tokens;
  std::size_t lower_bound = 0;
  for (const auto& record : report.requests)
    lower_bound += record.tokens.size() - 1;
  EXPECT_GT(billed, lower_bound);
}

TEST(TokenServing, DecodeStepsRideTheRegistryResidencyRule) {
  const TransformerModel model = serving_model();
  // 13 static weight passes: resident on 32 cores (and on 31 after an
  // eviction), never on 4.
  runtime::Accelerator accelerator({.cores = 32});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);
  const std::size_t weight_passes = registry.passes("tf");
  ASSERT_EQ(weight_passes, model.weight_passes(16, 16, false));
  ASSERT_TRUE(registry.fits_resident("tf"));

  KvCache a = model.make_cache();
  KvCache b = model.make_cache();
  const std::vector<KvCache*> caches = {&a, &b};
  const serve::BatchDispatch first =
      registry.run_decode_step("tf", caches, {1, 2});
  EXPECT_FALSE(first.warm);
  EXPECT_EQ(first.warm_passes, 0u);
  EXPECT_EQ(first.passes,
            weight_passes + 2 * model.attention_passes(1, 16, 16, false));
  EXPECT_EQ(registry.resident_model(), "tf");
  const serve::BatchDispatch second =
      registry.run_decode_step("tf", caches, {3, 4});
  EXPECT_TRUE(second.warm);
  EXPECT_EQ(second.warm_passes, weight_passes);
  EXPECT_EQ(second.passes,
            weight_passes + 2 * model.attention_passes(2, 16, 16, false));

  // The rotation changed under the resident tiles: the next step is cold.
  accelerator.evict_core(5);
  ASSERT_TRUE(registry.fits_resident("tf"));
  EXPECT_EQ(registry.run_decode_step("tf", caches, {5, 6}).warm_passes, 0u);
  EXPECT_EQ(registry.run_decode_step("tf", caches, {7, 8}).warm_passes,
            weight_passes);

  // Static tiles that do not fit the fleet never ride residency.
  runtime::Accelerator small({.cores = 4});
  serve::ModelRegistry small_registry(small);
  small_registry.add_transformer("tf", model);
  ASSERT_FALSE(small_registry.fits_resident("tf"));
  KvCache c = model.make_cache();
  for (const std::size_t token : {1, 2, 3}) {
    const serve::BatchDispatch step =
        small_registry.run_decode_step("tf", {&c}, {token});
    EXPECT_FALSE(step.warm);
    EXPECT_EQ(step.warm_passes, 0u);
  }
  EXPECT_EQ(small_registry.resident_model(), "");
}

TEST(TokenServing, DecodeStepLogitsEqualDecodingThroughTheFleetBackend) {
  const TransformerModel model = serving_model();
  runtime::Accelerator accelerator({.cores = 4});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);

  KvCache a = model.make_cache();
  KvCache b = model.make_cache();
  KvCache ref_a = model.make_cache();
  KvCache ref_b = model.make_cache();
  const std::size_t stream_a[] = {3, 1, 4, 1};
  const std::size_t stream_b[] = {5, 9, 2, 6};
  for (std::size_t t = 0; t < 4; ++t) {
    const serve::BatchDispatch step =
        registry.run_decode_step("tf", {&a, &b}, {stream_a[t], stream_b[t]});
    ASSERT_EQ(step.logits.rows(), 2u);
    const std::vector<double> expected[] = {
        model.decode_step(registry.decode_backend(), ref_a, stream_a[t]),
        model.decode_step(registry.decode_backend(), ref_b, stream_b[t])};
    for (std::size_t i = 0; i < 2; ++i) {
      ASSERT_EQ(step.logits.cols(), expected[i].size());
      for (std::size_t j = 0; j < expected[i].size(); ++j) {
        EXPECT_EQ(step.logits(i, j), expected[i][j])
            << "step " << t << " row " << i << " logit " << j;
      }
    }
  }
  EXPECT_EQ(a.length, ref_a.length);
  EXPECT_EQ(b.length, ref_b.length);
}

TEST(TokenServing, RejectsBadRequestsBeforeTheFleetMoves) {
  const TransformerModel model = serving_model();
  runtime::Accelerator accelerator({.cores = 4});
  serve::ModelRegistry registry(accelerator);
  registry.add_transformer("tf", model);
  serve::Server server(registry);
  // Leave a batch model resident: a rejected run must throw before the
  // token loop resets residency.
  Rng rng(73);
  registry.add("mlp", nn::Mlp(8, 8, 4, rng));
  registry.run_batch("mlp", Matrix(1, 8));
  ASSERT_EQ(registry.resident_model(), "mlp");
  // A lone NaN arrival would spin the idle loop forever: max(now, NaN)
  // never moves the clock to it.
  for (const double arrival : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    std::vector<serve::TokenRequest> requests =
        serving_requests(model.config());
    requests.resize(1);
    requests.front().arrival = arrival;
    EXPECT_THROW(server.run(requests, serve::TokenPolicy{}),
                 std::invalid_argument);
    EXPECT_EQ(registry.resident_model(), "mlp");
  }
  // An out-of-vocabulary prompt id would otherwise throw from the decode
  // step, after residency and drift were reset.
  std::vector<serve::TokenRequest> requests = serving_requests(model.config());
  requests.back().prompt.back() = model.config().vocab;
  EXPECT_THROW(server.run(requests, serve::TokenPolicy{}),
               std::invalid_argument);
  EXPECT_EQ(registry.resident_model(), "mlp");
  // The fleet attribution row is reserved for fleet overhead.
  requests = serving_requests(model.config());
  requests.back().tenant = serve::TenantCost::kFleetTenant;
  EXPECT_THROW(server.run(requests, serve::TokenPolicy{}),
               std::invalid_argument);
  EXPECT_EQ(registry.resident_model(), "mlp");
}

TEST(Transformer, DecodeRejectsBadTokensAndOverflowingContext) {
  Rng rng(61);
  const TransformerConfig config{.vocab = 8,
                                 .d_model = 8,
                                 .heads = 1,
                                 .layers = 1,
                                 .d_ff = 8,
                                 .max_seq = 2};
  const TransformerModel model = TransformerModel::random(config, rng);
  nn::FloatBackend backend;
  KvCache cache = model.make_cache();
  EXPECT_THROW(model.decode_step(backend, cache, 8), std::invalid_argument);
  model.decode_step(backend, cache, 1);
  model.decode_step(backend, cache, 2);
  EXPECT_THROW(model.decode_step(backend, cache, 3), std::invalid_argument);
  cache.clear();
  EXPECT_EQ(cache.rows(), 0u);
  model.decode_step(backend, cache, 3);  // usable again after clear()
}

}  // namespace
