#include "serve/model_registry.hpp"

#include <algorithm>
#include <utility>

#include "common/expects.hpp"
#include "graph/executor.hpp"
#include "nn/tiling.hpp"

namespace ptc::serve {
namespace {

/// Runs `work` with the fleet tracer detached: serving's modeled timing
/// comes from the batch_cost pass, not from the real execution, so each
/// hardware span is emitted exactly once, by the costing pass.
template <typename Work>
void run_untraced(runtime::Accelerator& fleet, Work&& work) {
  telemetry::Tracer* tracer = fleet.tracer();
  if (tracer != nullptr) fleet.set_tracer(nullptr);
  work();
  if (tracer != nullptr) fleet.set_tracer(tracer);
}

}  // namespace

ModelRegistry::ModelRegistry(runtime::Accelerator& accelerator,
                             const nn::PhotonicBackendOptions& options)
    : accelerator_(accelerator), backend_(accelerator, options) {}

void ModelRegistry::add(const std::string& name, const nn::Mlp& model) {
  add_graph(name, model.graph());
}

void ModelRegistry::add_graph(const std::string& name, const graph::Graph& g) {
  expects(!name.empty(), "model name must be non-empty");
  expects(!contains(name) && !is_transformer(name),
          "model name already registered");

  // The pass profile counts each step's nn::tile_passes at this geometry.
  const core::TensorCore& probe = accelerator_.core(0);
  Entry entry{g, g.pass_profile(probe.rows(), probe.cols(),
                                 backend_.options().differential_weights)};

  // Pre-warm every accelerator step's weight-plan cache for the fleet's
  // geometry: registration pays the one-time mapping/pass/encode work, so
  // even the first dispatch of this model re-plans and re-encodes nothing.
  for (const graph::Step& step : entry.graph.steps()) {
    if (step.on_accelerator()) {
      step.plan_cache->get(step.weights, probe.rows(), probe.cols(),
                           backend_.options().differential_weights);
    }
  }
  models_.emplace(name, std::move(entry));
}

bool ModelRegistry::contains(const std::string& name) const {
  return models_.count(name) > 0;
}

void ModelRegistry::add_transformer(const std::string& name,
                                    const nn::TransformerModel& model) {
  expects(!name.empty(), "model name must be non-empty");
  expects(!contains(name) && !is_transformer(name),
          "model name already registered");
  expects(!model.layers().empty(), "transformer has no layers");
  transformers_.emplace(name, model);
}

bool ModelRegistry::is_transformer(const std::string& name) const {
  return transformers_.count(name) > 0;
}

const nn::TransformerModel& ModelRegistry::transformer(
    const std::string& name) const {
  const auto it = transformers_.find(name);
  expects(it != transformers_.end(), "unknown transformer name");
  return it->second;
}

const ModelRegistry::Entry& ModelRegistry::entry(
    const std::string& name) const {
  const auto it = models_.find(name);
  expects(it != models_.end(), "unknown model name");
  return it->second;
}

const graph::Graph& ModelRegistry::compiled(const std::string& name) const {
  return entry(name).graph;
}

std::size_t ModelRegistry::input_width(const std::string& name) const {
  return entry(name).graph.input_size();
}

std::size_t ModelRegistry::passes(const std::string& name) const {
  if (is_transformer(name)) {
    const core::TensorCore& probe = accelerator_.core(0);
    return transformer(name).weight_passes(
        probe.rows(), probe.cols(), backend_.options().differential_weights);
  }
  return entry(name).profile.total_passes;
}

bool ModelRegistry::fits_resident(const std::string& name) const {
  // Residency is against the *active* rotation: after an eviction the
  // surviving cores hold fewer tiles, so a model that was warm on the full
  // fleet may stream cold on the degraded one.
  return passes(name) <= accelerator_.active_core_count();
}

void ModelRegistry::take_residency(const std::string& name) {
  resident_ = fits_resident(name) ? name : std::string();
  resident_rotation_ = accelerator_.rotation_changes();
}

BatchDispatch ModelRegistry::run_batch(const std::string& name,
                                       const Matrix& x) {
  const Entry& e = entry(name);
  expects(x.rows() >= 1, "batch must contain at least one request");
  expects(x.cols() == e.graph.input_size(),
          "batch width does not match the model input width");

  BatchDispatch out;
  out.warm = warm(name);
  run_untraced(accelerator_,
               [&] { out.logits = graph::run(e.graph, backend_, x); });

  telemetry::Tracer* tracer = accelerator_.tracer();
  for (const graph::StepPasses& sp : e.profile.steps) {
    const double step_start = accelerator_.trace_time();
    const runtime::BatchCost cost = accelerator_.batch_cost(
        sp.passes, out.warm ? sp.passes : 0, x.rows() * sp.rows_per_sample);
    if (tracer != nullptr) {
      tracer->complete(telemetry::track::kSteps,
                       e.graph.steps()[sp.step].label.c_str(), "step",
                       step_start, accelerator_.trace_time(),
                       {{"passes", sp.passes},
                        {"warm", out.warm},
                        {"rows", x.rows() * sp.rows_per_sample}});
    }
    out.latency += cost.latency;
    out.busy += cost.busy;
    out.passes += sp.passes;
    if (out.warm) out.warm_passes += sp.passes;
  }
  take_residency(name);
  return out;
}

BatchDispatch ModelRegistry::run_decode_step(
    const std::string& name, const std::vector<nn::KvCache*>& caches,
    const std::vector<std::size_t>& tokens) {
  const nn::TransformerModel& model = transformer(name);
  expects(!caches.empty() && tokens.size() == caches.size(),
          "a decode step needs one token per cache");

  BatchDispatch out;
  out.warm = warm(name);
  out.logits = Matrix(caches.size(), model.config().vocab);
  run_untraced(accelerator_, [&] {
    for (std::size_t i = 0; i < caches.size(); ++i) {
      std::ranges::copy(model.decode_step(backend_, *caches[i], tokens[i]),
                        &out.logits(i, 0));
    }
  });

  out.passes = passes(name);
  out.warm_passes = out.warm ? out.passes : 0;
  const core::TensorCore& probe = accelerator_.core(0);
  for (const nn::KvCache* cache : caches) {
    out.passes += model.attention_passes(
        cache->length, probe.rows(), probe.cols(),
        backend_.options().differential_weights);
  }
  const runtime::BatchCost cost =
      accelerator_.batch_cost(out.passes, out.warm_passes, caches.size());
  out.latency = cost.latency;
  out.busy = cost.busy;
  take_residency(name);
  return out;
}

std::string ModelRegistry::schedule_dump(const std::string& name) const {
  const core::TensorCore& probe = accelerator_.core(0);
  return entry(name).graph.schedule_dump(
      probe.rows(), probe.cols(), backend_.options().differential_weights);
}

Matrix ModelRegistry::reference_batch(const std::string& name,
                                      const Matrix& x) {
  const Entry& e = entry(name);
  expects(x.cols() == e.graph.input_size(),
          "batch width does not match the model input width");
  return graph::run(e.graph, reference_backend_, x);
}

}  // namespace ptc::serve
