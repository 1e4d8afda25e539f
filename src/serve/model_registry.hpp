#ifndef PTC_SERVE_MODEL_REGISTRY_HPP
#define PTC_SERVE_MODEL_REGISTRY_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/linalg.hpp"
#include "graph/compile.hpp"
#include "graph/ir.hpp"
#include "nn/backend.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

/// Named model store over compiled graphs, with weight-tile residency
/// accounting.  Every registered model — an nn::Mlp or any dataflow graph
/// (CNNs, residual nets) — is lowered through the graph compiler at
/// registration; the resulting schedule's pass profile tells the registry
/// how many pSRAM residencies one batch streams per step, and whether the
/// previous dispatch left those tiles on the fleet — the signal the
/// DynamicBatcher uses to favor batches that skip reloads entirely, which
/// is the serving-side payoff of the paper's 20 GHz weight-streaming
/// argument.
namespace ptc::serve {

/// Output + modeled cost of dispatching one batch through the fleet.
struct BatchDispatch {
  Matrix logits;               ///< samples x classes
  double latency = 0.0;        ///< modeled fleet makespan of the batch [s]
  double busy = 0.0;           ///< summed core-busy time [s]
  std::size_t passes = 0;      ///< weight-tile residencies streamed
  std::size_t warm_passes = 0; ///< residencies reused (no reload paid)
  bool warm = false;           ///< the model's tiles were already resident
};

class ModelRegistry {
 public:
  /// All models execute on `accelerator` with the same backend options.
  explicit ModelRegistry(runtime::Accelerator& accelerator,
                         const nn::PhotonicBackendOptions& options = {});

  /// Registers an MLP under `name` (must be unique): lowers the model's
  /// graph and keeps the compiled schedule.
  void add(const std::string& name, const nn::Mlp& model);

  /// Registers an arbitrary dataflow graph under `name` (must be unique) —
  /// how CNN and residual workloads enter the serving layer.
  void add_graph(const std::string& name, const graph::Graph& g);

  /// Registers a decoder-only transformer under `name` (unique across both
  /// stores).  Token-level serving decodes it incrementally through the
  /// fleet backend (Server::run's token overload); the full-sequence graph
  /// path stays available via the model itself.
  void add_transformer(const std::string& name,
                       const nn::TransformerModel& model);

  /// True when `name` names a registered transformer (vs a batch graph).
  bool is_transformer(const std::string& name) const;

  /// A registered transformer's weights.
  const nn::TransformerModel& transformer(const std::string& name) const;

  /// Static weight-tile passes of one decode step of this transformer at
  /// the fleet's core geometry — the residency-eligible passes (identical
  /// every step, so back-to-back steps of the resident model reuse them
  /// warm).  Attention passes come on top, per request, per context length
  /// (nn::TransformerModel::attention_passes) and are never warm.
  std::size_t transformer_weight_passes(const std::string& name) const;

  /// Attention passes of one decode step for one request with the given
  /// post-append context length, at the fleet's core geometry.
  std::size_t transformer_attention_passes(const std::string& name,
                                           std::size_t context_len) const;

  /// The fleet-wide backend decode steps stream through (same one
  /// run_batch uses, so token and batch serving share residency state and
  /// the energy ledger).
  runtime::AcceleratorBackend& decode_backend() { return backend_; }

  /// The fleet every registered model executes on.
  runtime::Accelerator& accelerator() { return accelerator_; }

  bool contains(const std::string& name) const;
  std::size_t size() const { return models_.size(); }

  /// Compiled schedule of a registered model.
  const graph::CompiledGraph& compiled(const std::string& name) const;

  /// Printable per-step pass schedule of a registered model for the
  /// fleet's core geometry (graph::CompiledGraph::schedule_dump) — what
  /// benches print alongside a PTC_TRACE capture.
  std::string schedule_dump(const std::string& name) const;

  /// Input row width the model expects (flattened input shape).
  std::size_t input_width(const std::string& name) const;

  /// Weight-tile passes one batch of this model streams (all accelerator
  /// steps of the schedule, doubled under differential encoding).
  std::size_t passes(const std::string& name) const;

  /// True when the model's tiles all fit on the fleet simultaneously — the
  /// precondition for back-to-back batches to reuse residencies.
  bool fits_resident(const std::string& name) const;

  /// Model whose tiles are currently resident across the fleet ("" when
  /// none is coherently resident).
  const std::string& resident_model() const { return resident_; }

  /// Executes one batch (x: samples x input_width) on the fleet and
  /// returns logits plus the modeled batch cost, summed over the
  /// schedule's accelerator steps (conv steps stream rows_per_sample
  /// im2col rows per request).  Consecutive batches of the same
  /// resident-fitting model reuse every tile (warm_passes == passes); a
  /// model switch, or a model larger than the fleet, pays all reloads
  /// cold.
  BatchDispatch run_batch(const std::string& name, const Matrix& x);

  /// Float-reference logits for the same batch: the compiled schedule run
  /// on an exact digital backend.  The Server compares argmaxes against
  /// run_batch's to measure the accuracy cost of device variation and
  /// thermal drift; costs nothing on the modeled hardware clock.
  Matrix reference_batch(const std::string& name, const Matrix& x);

  /// Forgets residency state (fresh fleet), e.g. at the start of a run.
  void reset_residency() { resident_.clear(); }

 private:
  struct Entry {
    graph::CompiledGraph compiled;
    graph::PassProfile profile;  ///< for the fleet's core geometry
  };

  const Entry& entry(const std::string& name) const;

  runtime::Accelerator& accelerator_;
  runtime::AcceleratorBackend backend_;
  nn::FloatBackend reference_backend_;
  std::map<std::string, Entry> models_;
  std::map<std::string, nn::TransformerModel> transformers_;
  std::string resident_;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_MODEL_REGISTRY_HPP
