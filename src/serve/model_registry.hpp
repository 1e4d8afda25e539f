#ifndef PTC_SERVE_MODEL_REGISTRY_HPP
#define PTC_SERVE_MODEL_REGISTRY_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/linalg.hpp"
#include "graph/graph.hpp"
#include "nn/backend.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

/// Named model store over graphs and decoder-only transformers, with the
/// fleet's one weight-tile residency rule.  Every batch model — an nn::Mlp
/// or any chain graph (e.g. a CNN) — is kept as its graph, whose pass
/// profile tells the registry how many pSRAM residencies one batch streams
/// per step.  A batch or a decode step is warm when the previous dispatch
/// left its model's tiles on the current rotation — the signal the
/// DynamicBatcher uses to favor batches that skip reloads entirely, the
/// serving-side payoff of the paper's 20 GHz weight-streaming argument.
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

  /// Registers an MLP under `name` (must be unique): keeps the model's
  /// graph.
  void add(const std::string& name, const nn::Mlp& model);

  /// Registers a chain graph under `name` (must be unique) — how CNN
  /// workloads enter the serving layer.
  void add_graph(const std::string& name, const graph::Graph& g);

  /// Registers a decoder-only transformer under `name` (unique across both
  /// stores).  Token-level serving decodes it incrementally through
  /// run_decode_step (Server::run's token overload).
  void add_transformer(const std::string& name,
                       const nn::TransformerModel& model);

  /// True when `name` names a registered transformer (vs a batch graph).
  bool is_transformer(const std::string& name) const;

  /// A registered transformer's weights.
  const nn::TransformerModel& transformer(const std::string& name) const;

  /// The fleet backend run_batch and run_decode_step stream through;
  /// decoding through it directly gives run_decode_step's logits bitwise.
  runtime::AcceleratorBackend& decode_backend() { return backend_; }

  /// The fleet every registered model executes on.
  runtime::Accelerator& accelerator() { return accelerator_; }

  bool contains(const std::string& name) const;
  std::size_t size() const { return models_.size(); }

  /// The graph (the step schedule) of a registered model.
  const graph::Graph& compiled(const std::string& name) const;

  /// Printable per-step pass schedule of a registered model for the
  /// fleet's core geometry (graph::Graph::schedule_dump) — what
  /// benches print alongside a PTC_TRACE capture.
  std::string schedule_dump(const std::string& name) const;

  /// Input row width the model expects (flattened input shape).
  std::size_t input_width(const std::string& name) const;

  /// Weight-tile passes one batch of this model streams (all accelerator
  /// steps of the schedule, doubled under differential encoding).  For a
  /// transformer: the static weight passes of one decode step, identical
  /// every step — its per-request attention passes are never warm.
  std::size_t passes(const std::string& name) const;

  /// True when the model's tiles all fit on the fleet simultaneously — the
  /// precondition for back-to-back batches (or decode steps) to reuse
  /// residencies.
  bool fits_resident(const std::string& name) const;

  /// Model whose tiles are currently resident across the fleet: the last
  /// dispatched model, if it fits.  "" when none is, and once the fleet's
  /// rotation changes (evict_core, readmit_core, reset_faults) — residency
  /// was planned against the old rotation.
  std::string resident_model() const {
    return resident_rotation_ == accelerator_.rotation_changes() ? resident_
                                                                 : "";
  }

  /// Executes one batch (x: samples x input_width) on the fleet and
  /// returns logits plus the modeled batch cost, summed over the
  /// schedule's accelerator steps (conv steps stream rows_per_sample
  /// im2col rows per request).  Consecutive batches of the same
  /// resident-fitting model reuse every tile (warm_passes == passes); a
  /// model switch, or a model larger than the fleet, pays all reloads
  /// cold.
  BatchDispatch run_batch(const std::string& name, const Matrix& x);

  /// Float-reference logits for the same batch: the model's graph run
  /// on an exact digital backend.  The Server compares argmaxes against
  /// run_batch's to measure the accuracy cost of device variation and
  /// thermal drift; costs nothing on the modeled hardware clock.
  Matrix reference_batch(const std::string& name, const Matrix& x);

  /// One token step of a registered transformer: cache i decodes tokens[i]
  /// through decode_backend(), in order, into logits row i.  Costed as one
  /// batch of caches.size() samples at the trace cursor: the static weight
  /// passes, warm under run_batch's residency rule, plus each request's
  /// attention passes at its post-append context length, never warm.  No
  /// step span is traced; the token loop traces its decode_step window.
  BatchDispatch run_decode_step(const std::string& name,
                                const std::vector<nn::KvCache*>& caches,
                                const std::vector<std::size_t>& tokens);

  /// Forgets residency state (fresh fleet), e.g. at the start of a run.
  void reset_residency() { resident_.clear(); }

 private:
  struct Entry {
    graph::Graph graph;
    graph::PassProfile profile;  ///< for the fleet's core geometry
  };

  const Entry& entry(const std::string& name) const;

  /// The residency rule both request kinds are costed by: a dispatch of
  /// `name` reuses every tile when `name` is resident and still fits, and
  /// leaves `name` resident on the current rotation if it fits.
  bool warm(const std::string& name) const {
    return resident_model() == name && fits_resident(name);
  }
  void take_residency(const std::string& name);

  runtime::Accelerator& accelerator_;
  runtime::AcceleratorBackend backend_;
  nn::FloatBackend reference_backend_;
  std::map<std::string, Entry> models_;
  std::map<std::string, nn::TransformerModel> transformers_;
  std::string resident_;
  /// accelerator_.rotation_changes() when resident_ was taken.
  std::size_t resident_rotation_ = 0;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_MODEL_REGISTRY_HPP
