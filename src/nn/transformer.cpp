#include "nn/transformer.hpp"

#include <cmath>
#include <utility>

#include "common/expects.hpp"
#include "nn/layers.hpp"
#include "nn/tiling.hpp"

namespace ptc::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, double sigma,
                     Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal(0.0, sigma);
  return m;
}

}  // namespace

TransformerModel TransformerModel::random(const TransformerConfig& config,
                                          Rng& rng) {
  expects(config.heads >= 1 && config.d_model % config.heads == 0,
          "d_model must be divisible by the head count");
  expects(config.d_model >= 2, "d_model must be >= 2 (layernorm)");
  expects(config.vocab >= 2 && config.layers >= 1 && config.d_ff >= 1 &&
              config.max_seq >= 1,
          "transformer config dimensions must be positive");

  TransformerModel m;
  m.config_ = config;
  const std::size_t d = config.d_model;
  // Small-normal init keeps pre-layernorm activations and logits in a
  // comfortable eoADC range; the draw order below is part of the seeded
  // contract (tests pin outputs by seed).
  const double s_proj = 1.0 / std::sqrt(static_cast<double>(d));
  const double s_ff = 1.0 / std::sqrt(static_cast<double>(config.d_ff));
  m.token_table_ = random_matrix(config.vocab, d, 0.4, rng);
  m.pos_table_ = random_matrix(config.max_seq, d, 0.1, rng);
  m.layers_.resize(config.layers);
  for (TransformerLayer& layer : m.layers_) {
    layer.ln1_gain.assign(d, 1.0);
    layer.ln1_bias.assign(d, 0.0);
    layer.wq = random_matrix(d, d, s_proj, rng);
    layer.wk = random_matrix(d, d, s_proj, rng);
    layer.wv = random_matrix(d, d, s_proj, rng);
    layer.wo = random_matrix(d, d, s_proj, rng);
    layer.ln2_gain.assign(d, 1.0);
    layer.ln2_bias.assign(d, 0.0);
    layer.w_ff1 = random_matrix(d, config.d_ff, s_proj, rng);
    layer.b_ff1.assign(config.d_ff, 0.0);
    layer.w_ff2 = random_matrix(config.d_ff, d, s_ff, rng);
    layer.b_ff2.assign(d, 0.0);
  }
  m.lnf_gain_.assign(d, 1.0);
  m.lnf_bias_.assign(d, 0.0);
  m.unembed_ = random_matrix(d, config.vocab, s_proj, rng);
  return m;
}

KvCache TransformerModel::make_cache() const {
  KvCache cache;
  cache.k.resize(layers_.size());
  cache.v.resize(layers_.size());
  return cache;
}

std::vector<double> TransformerModel::decode_step(MatmulBackend& backend,
                                                  KvCache& cache,
                                                  std::size_t token) const {
  const std::size_t d = config_.d_model;
  const std::size_t dk = config_.head_dim();
  expects(!layers_.empty(), "model has no layers (default-constructed?)");
  expects(token < config_.vocab, "token id out of vocabulary range");
  expects(cache.k.size() == layers_.size(), "cache layer count mismatch");
  expects(cache.length < config_.max_seq,
          "context exceeds the positional table");
  const std::size_t pos = cache.length;
  const std::size_t ctx = pos + 1;
  const double scale = 1.0 / std::sqrt(static_cast<double>(dk));

  Matrix x(1, d);
  for (std::size_t ch = 0; ch < d; ++ch)
    x(0, ch) = token_table_(token, ch) + pos_table_(pos, ch);

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const TransformerLayer& layer = layers_[l];
    Matrix h = x;
    layernorm_inplace(h, layer.ln1_gain, layer.ln1_bias);
    const Matrix q = signed_matmul(backend, h, layer.wq);
    const Matrix k = signed_matmul(backend, h, layer.wk);
    const Matrix v = signed_matmul(backend, h, layer.wv);
    // Append this position's K/V rows before scoring: position pos attends
    // to every cached position including itself.
    for (std::size_t ch = 0; ch < d; ++ch) {
      cache.k[l].push_back(k(0, ch));
      cache.v[l].push_back(v(0, ch));
    }

    Matrix merged(1, d);
    for (std::size_t head = 0; head < config_.heads; ++head) {
      Matrix qh(1, dk);
      for (std::size_t c = 0; c < dk; ++c) qh(0, c) = q(0, head * dk + c);
      // Scores against K^T: the cached rows are this request's own
      // "weights", loaded fresh every step (never residency-warm).
      Matrix kt(dk, ctx);
      for (std::size_t c = 0; c < dk; ++c)
        for (std::size_t j = 0; j < ctx; ++j)
          kt(c, j) = cache.k[l][j * d + head * dk + c];
      Matrix scores = signed_matmul(backend, qh, kt);
      for (std::size_t j = 0; j < ctx; ++j) scores(0, j) *= scale;
      softmax_inplace(scores);
      Matrix vals(ctx, dk);
      for (std::size_t j = 0; j < ctx; ++j)
        for (std::size_t c = 0; c < dk; ++c)
          vals(j, c) = cache.v[l][j * d + head * dk + c];
      // Softmax probabilities are non-negative: plain intensity streaming.
      const Matrix ctxh = backend.matmul(scores, vals);
      for (std::size_t c = 0; c < dk; ++c) merged(0, head * dk + c) = ctxh(0, c);
    }
    Matrix attn = signed_matmul(backend, merged, layer.wo);
    attn += x;
    x = std::move(attn);

    Matrix h2 = x;
    layernorm_inplace(h2, layer.ln2_gain, layer.ln2_bias);
    Matrix f = signed_matmul(backend, h2, layer.w_ff1);
    for (std::size_t j = 0; j < config_.d_ff; ++j) f(0, j) += layer.b_ff1[j];
    gelu_inplace(f);
    Matrix f2 = signed_matmul(backend, f, layer.w_ff2);
    for (std::size_t ch = 0; ch < d; ++ch) f2(0, ch) += layer.b_ff2[ch];
    f2 += x;
    x = std::move(f2);
  }
  cache.length = ctx;

  layernorm_inplace(x, lnf_gain_, lnf_bias_);
  const Matrix logits = signed_matmul(backend, x, unembed_);
  return logits.data();
}

std::vector<std::size_t> TransformerModel::generate(
    MatmulBackend& backend, const std::vector<std::size_t>& prompt,
    std::size_t max_new) const {
  expects(!prompt.empty(), "prompt must contain at least one token");
  KvCache cache = make_cache();
  std::vector<double> logits;
  for (const std::size_t token : prompt)
    logits = decode_step(backend, cache, token);
  std::vector<std::size_t> out = prompt;
  for (std::size_t n = 0; n < max_new; ++n) {
    // Greedy argmax, ties to the lowest index.
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.size(); ++j)
      if (logits[j] > logits[best]) best = j;
    out.push_back(best);
    if (n + 1 == max_new || cache.length >= config_.max_seq) break;
    logits = decode_step(backend, cache, best);
  }
  return out;
}

std::size_t TransformerModel::weight_passes(std::size_t tile_m,
                                            std::size_t tile_k,
                                            bool differential) const {
  const std::size_t d = config_.d_model;
  std::size_t passes = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    passes += 4 * tile_passes(d, d, tile_m, tile_k, differential);
    passes += tile_passes(d, config_.d_ff, tile_m, tile_k, differential);
    passes += tile_passes(config_.d_ff, d, tile_m, tile_k, differential);
  }
  passes += tile_passes(d, config_.vocab, tile_m, tile_k, differential);
  return passes;
}

std::size_t TransformerModel::attention_passes(std::size_t context_len,
                                               std::size_t tile_m,
                                               std::size_t tile_k,
                                               bool differential) const {
  expects(context_len >= 1, "attention over an empty context");
  const std::size_t dk = config_.head_dim();
  const std::size_t per_head =
      tile_passes(dk, context_len, tile_m, tile_k, differential) +
      tile_passes(context_len, dk, tile_m, tile_k, differential);
  return config_.layers * config_.heads * per_head;
}

}  // namespace ptc::nn
