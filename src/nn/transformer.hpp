#ifndef PTC_NN_TRANSFORMER_HPP
#define PTC_NN_TRANSFORMER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "nn/backend.hpp"

/// Small decoder-only transformer for the serving layer: pre-layernorm
/// blocks with causal multi-head attention and a GELU MLP, greedy decoding.
///
/// `decode_step` is the one execution path: it advances one request by one
/// token against a growing per-request KvCache through any MatmulBackend.
/// Attention's activation x activation products (the query against the
/// cached K^T, the probabilities against the cached V) stream through the
/// backend's tiling machinery like weight matmuls.  On the float backend
/// its logits equal a cache-free full-sequence forward bitwise; that
/// reference lives in tests/test_transformer.cpp.
///
/// Determinism: decode touches exactly one request's state and streams
/// per-request matmuls, so a token stream is a pure function of (weights,
/// prompt) — independent of batch composition and host thread count.  That
/// is the property continuous batching's bit-identity gate leans on.
namespace ptc::nn {

struct TransformerConfig {
  std::size_t vocab = 32;
  std::size_t d_model = 16;
  std::size_t heads = 2;
  std::size_t layers = 2;
  std::size_t d_ff = 32;
  std::size_t max_seq = 32;  ///< positional-table length (context window)

  std::size_t head_dim() const { return d_model / heads; }
};

/// Weights of one pre-layernorm decoder block.
struct TransformerLayer {
  std::vector<double> ln1_gain, ln1_bias;
  Matrix wq, wk, wv, wo;  ///< d_model x d_model projections
  std::vector<double> ln2_gain, ln2_bias;
  Matrix w_ff1;                ///< d_model x d_ff
  std::vector<double> b_ff1;   ///< d_ff
  Matrix w_ff2;                ///< d_ff x d_model
  std::vector<double> b_ff2;   ///< d_model
};

/// Per-request decode state: the cached K/V rows of every generated-so-far
/// position, per layer, flattened with d_model innermost.  This is the
/// state token-level serving bills for residency (rows() below) and drops
/// on preemption — a preempted request re-prefills from its token history.
struct KvCache {
  std::vector<std::vector<double>> k;  ///< per layer: length * d_model
  std::vector<std::vector<double>> v;
  std::size_t length = 0;  ///< cached positions

  /// Cached KV rows across layers — the residency-accounting unit
  /// (one row == one position's K+V state in one layer).
  std::size_t rows() const { return length * k.size(); }

  void clear() {
    for (auto& layer : k) layer.clear();
    for (auto& layer : v) layer.clear();
    length = 0;
  }
};

class TransformerModel {
 public:
  TransformerModel() = default;

  /// Seeded random init: small-normal projections (sigma ~ 1/sqrt(d)),
  /// unit layernorm gains, zero biases.  Pure function of (config, rng
  /// state).
  static TransformerModel random(const TransformerConfig& config, Rng& rng);

  const TransformerConfig& config() const { return config_; }
  const std::vector<TransformerLayer>& layers() const { return layers_; }
  const Matrix& token_table() const { return token_table_; }
  const Matrix& pos_table() const { return pos_table_; }
  const std::vector<double>& lnf_gain() const { return lnf_gain_; }
  const std::vector<double>& lnf_bias() const { return lnf_bias_; }
  const Matrix& unembed() const { return unembed_; }

  /// Fresh per-request cache sized for this model's layer count.
  KvCache make_cache() const;

  /// Advances one request by one token: appends `token`'s K/V rows to the
  /// cache at position cache.length and returns the next-token logit row
  /// (length vocab).  All matmuls stream through `backend` with
  /// differential input splitting (nn::signed_matmul) wherever the
  /// activation can be negative; only the softmax-weighted context product
  /// streams unsigned.
  std::vector<double> decode_step(MatmulBackend& backend, KvCache& cache,
                                  std::size_t token) const;

  /// Greedy continuation: feeds `prompt` (and any previously generated
  /// tokens the cache already holds), then samples argmax tokens until
  /// `max_new` have been generated.  Returns prompt + generated.  The
  /// sequential-decoding reference the serving layer's bit-identity gate
  /// compares against.
  std::vector<std::size_t> generate(MatmulBackend& backend,
                                    const std::vector<std::size_t>& prompt,
                                    std::size_t max_new) const;

  /// Weight-tile passes of the static (per-token) weight matmuls — the
  /// q/k/v/o, MLP, and unembedding projections, doubled under differential
  /// weight encoding.  These are the residency-eligible passes: they are
  /// identical every decode step, so back-to-back steps of a resident
  /// model reuse them warm.
  std::size_t weight_passes(std::size_t tile_m, std::size_t tile_k,
                            bool differential) const;

  /// Always-cold attention passes of one decode step for one request whose
  /// post-append context is `context_len` positions: per layer and head,
  /// the K^T score product plus the V context product.  The "weights" here
  /// are the request's own KV state, different every step, so nothing can
  /// stay warm — the seq-length-dependent cost continuous batching
  /// amortizes static weights against.
  std::size_t attention_passes(std::size_t context_len, std::size_t tile_m,
                               std::size_t tile_k, bool differential) const;

 private:
  TransformerConfig config_;
  std::vector<TransformerLayer> layers_;
  Matrix token_table_;     ///< vocab x d_model
  Matrix pos_table_;       ///< max_seq x d_model
  std::vector<double> lnf_gain_, lnf_bias_;
  Matrix unembed_;         ///< d_model x vocab
};

}  // namespace ptc::nn

#endif  // PTC_NN_TRANSFORMER_HPP
