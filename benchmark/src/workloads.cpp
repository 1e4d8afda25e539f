#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/linalg.hpp"
#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "graph/executor.hpp"
#include "graph/models.hpp"
#include "metrics.hpp"
#include "nn/layers.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/accelerator.hpp"
#include "serve/load_generator.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/token_server.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"

namespace ptc::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool identical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.data() == b.data();
}

std::size_t argmax(const std::vector<double>& xs) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < xs.size(); ++j)
    if (xs[j] > xs[best]) best = j;
  return best;
}

/// How the fleet's served choices (output row argmax, predicted class or
/// generated token) rank among the float reference's, over every item:
/// rank 1 is the reference's own top choice.  A mean rank moves far less
/// between load seeds than top-1 accuracy on workloads where few served
/// choices match, yet still rises when matches are lost.
struct ServedRank {
  std::size_t items = 0;
  std::size_t rank_sum = 0;

  void add(const std::vector<double>& reference, std::size_t served) {
    const double chosen = reference.at(served);
    ++items;
    rank_sum += 1 + static_cast<std::size_t>(std::count_if(
                     reference.begin(), reference.end(),
                     [chosen](double z) { return z > chosen; }));
  }

  void add_rows(const Matrix& reference,
                const std::vector<std::size_t>& served) {
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      std::vector<double> row(reference.cols());
      for (std::size_t j = 0; j < row.size(); ++j) row[j] = reference(i, j);
      add(row, served.at(i));
    }
  }

  void record(RoundResult& r) const {
    r.modeled["served_rank"] =
        static_cast<double>(rank_sum) / static_cast<double>(items);
  }
};

/// Host-time split of one traced unit of work (README.md, "Peel").
struct PeelTimes {
  double l0 = 0.0;  ///< top-level calls, as in a timed round
  bool has_l1 = false;
  double l1 = 0.0;  ///< L1 spans, replays excluded
  bool l1_is_decode = false;  ///< L1 is nn decode (else graph::run)
  double matmul = 0.0;  ///< summed runtime.matmul spans
  std::vector<double> matmul_durations;
  /// L2 and L3; null when the workload stops at L0.
  const Replayer* replay = nullptr;
};

/// Self time per layer: serve = L0 - L1, graph / nn decode = L1 - runtime
/// spans, runtime = runtime spans - L2, nn tiling = L2 - L3, core = L3.
/// A workload without L1 has no serve layer above the runtime (matmul
/// kernel) or cannot be split (drift serving: everything stays in serve).
void fill_times(const PeelTimes& t, RoundResult& r) {
  double serve = t.l0;
  double upper = 0.0;
  double runtime = 0.0;
  double tiling = 0.0;
  double core = 0.0;
  if (t.replay != nullptr) {
    serve = t.has_l1 ? t.l0 - t.l1 : 0.0;
    upper = t.has_l1 ? t.l1 - t.matmul : 0.0;
    runtime = t.matmul - t.replay->l2_seconds();
    tiling = t.replay->l2_seconds() - t.replay->core_seconds();
    core = t.replay->core_seconds();
  }
  const double graph = t.l1_is_decode ? 0.0 : upper;
  const double decode = t.l1_is_decode ? upper : 0.0;
  const double wall = t.l0;
  const auto share = [wall](double self) {
    return wall > 0.0 ? self / wall : 0.0;
  };

  r.layers["serve.self_s"] = serve;
  r.layers["serve.share"] = share(serve);
  r.layers["graph.self_s"] = graph;
  r.layers["graph.share"] = share(graph);
  r.layers["nn.decode_self_s"] = decode;
  r.layers["nn.tiling_self_s"] = tiling;
  r.layers["nn.share"] = share(tiling + decode);
  r.layers["runtime.self_s"] = runtime;
  r.layers["runtime.share"] = share(runtime);
  r.layers["core.self_s"] = core;
  r.layers["core.share"] = share(core);
  if (t.replay != nullptr) {
    const Replayer& replay = *t.replay;
    r.layers["runtime.parallel_speedup"] =
        t.matmul > 0.0 ? replay.l2_seconds() / t.matmul : 0.0;
    r.layers["runtime.matmul_p50_s"] = percentile(t.matmul_durations, 50.0);
    r.layers["runtime.matmul_p90_s"] = percentile(t.matmul_durations, 90.0);
    r.layers["core.ns_per_sample"] =
        replay.samples() > 0 ? 1e9 * replay.core_seconds() /
                                   static_cast<double>(replay.samples())
                             : 0.0;
    r.layers["core.load_us"] =
        replay.loads() > 0 ? 1e6 * replay.load_seconds() /
                                 static_cast<double>(replay.loads())
                           : 0.0;
    if (replay.l2_mismatches() > 0) {
      r.failures.push_back(
          std::to_string(replay.l2_mismatches()) + " of " +
          std::to_string(replay.calls()) +
          (replay.bitwise() ? " L2 replays differ from the fleet"
                            : " L2 replays miss the float product"));
    }
    if (replay.l3_mismatches() > 0) {
      r.failures.push_back(std::to_string(replay.l3_mismatches()) +
                           " L3 replays differ from L2");
    }
  }

  const double sum = serve + upper + runtime + tiling + core;
  if (std::abs(sum - wall) > 1e-9 * std::max(wall, 1.0)) {
    r.failures.push_back("per-layer self times do not add up to L0 wall");
  }
  // runtime may go negative — the pool paid off; any other layer that far
  // below zero means the replays ran at a different speed than L0 did.
  const std::pair<const char*, double> others[] = {{"serve", serve},
                                                   {"graph", graph},
                                                   {"nn.decode", decode},
                                                   {"nn.tiling", tiling},
                                                   {"core", core}};
  for (const auto& [layer, self] : others) {
    if (self < -0.05 * wall) {
      r.warnings.push_back(std::string(layer) + " self time " +
                           json::format_number(self) +
                           " s is below -5% of L0 wall (replay noise)");
    }
  }
}

/// Fixed work on one fleet.  Subclasses build the fleet and inputs, warm
/// up, run the unit of work, derive modeled metrics and checks in finish(),
/// and split a traced unit by layer in peel().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Fleet, models and inputs.
  virtual void build(const RoundConfig& config) = 0;
  /// One small call before timing, so lazy set-up is paid in set-up time.
  virtual void warm_up() = 0;
  /// The unit of work; its top-level calls get spans when `log` is set.
  /// Returns the items served (samples, requests or tokens).
  virtual double run_unit(SpanLog* log) = 0;
  virtual void finish(RoundResult& r) = 0;
  virtual void peel(RoundResult& r, SpanLog& log) = 0;

  runtime::Accelerator& accelerator() { return *accelerator_; }

 protected:
  /// Modeled seconds in eoADC sample cycles (the simulator's clock).
  double cycles(double seconds) const {
    return seconds * accelerator_->core(0).adc(0).sample_rate();
  }

  /// The end-to-end modeled metrics: exact nearest-rank p50 and tail of
  /// the per-item latencies [s], taken at the highest percentile the
  /// workload leaves >= 10 samples beyond.  Also the ledger energy per item
  /// as a per-layer value: analog readout charges no ledger energy, so it
  /// can read 0 and cannot be an end-to-end metric.
  void record_modeled(RoundResult& r, const std::vector<double>& latencies,
                      double tail_percentile, double items_per_s,
                      double j_per_item) {
    const runtime::AcceleratorStats stats = accelerator_->stats();
    r.modeled["modeled_p50_cycles"] = cycles(percentile(latencies, 50.0));
    r.modeled["modeled_tail_cycles"] =
        cycles(percentile(latencies, tail_percentile));
    r.modeled["modeled_items_per_s"] = items_per_s;
    r.modeled["modeled_tops"] = stats.throughput_ops();
    r.modeled["modeled_tops_per_w"] = stats.tops_per_watt();
    r.tail_percentile = tail_percentile;
    r.tail_samples = latencies.size();
    r.layers["serve.j_per_item"] = j_per_item;
  }

  std::unique_ptr<runtime::Accelerator> accelerator_;
};

// --- matmul_kernel -----------------------------------------------------------

/// 48 fleet matmuls of (256 x 128) * (128 x 64) with eoADC readout on 8
/// cores — bench_perf_matmul's acceptance shape.  The weight plan is cached
/// after warm-up, so host time is the fast-path replay, ADC conversion and
/// the pool fan-out: no serving, no graph, no calibration walks.
class MatmulKernel final : public Workload {
 public:
  static constexpr std::uint64_t kDefaultSeed = 263;

  void build(const RoundConfig& config) override {
    Rng w_rng(2026);
    w_ = random_signed(kInner, kOutputs, w_rng);
    Rng x_rng(config.seed.value_or(kDefaultSeed));
    for (std::size_t i = 0; i < kCalls; ++i)
      xs_.push_back(random_activations(kBatch, kInner, x_rng));
    accelerator_ = std::make_unique<runtime::Accelerator>(
        runtime::AcceleratorConfig{.cores = kCores, .threads = config.threads});
  }

  /// One batch-1 matmul.
  void warm_up() override {
    Matrix warm(1, kInner);
    for (std::size_t c = 0; c < kInner; ++c) warm(0, c) = xs_[0](0, c);
    accelerator_->matmul(warm, w_, options_);
  }

  double run_unit(SpanLog* log) override {
    energy_before_ = accelerator_->fleet_ledger().total_energy();
    ys_.clear();
    makespans_.clear();
    for (const Matrix& x : xs_) {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, "runtime.matmul");
      const double before = accelerator_->stats().makespan;
      ys_.push_back(accelerator_->matmul(x, w_, options_));
      makespans_.push_back(accelerator_->stats().makespan - before);
    }
    return static_cast<double>(kCalls * kBatch);
  }

  void finish(RoundResult& r) override {
    const double samples = static_cast<double>(kCalls * kBatch);
    const runtime::AcceleratorStats stats = accelerator_->stats();
    const double energy =
        accelerator_->fleet_ledger().total_energy() - energy_before_;
    // Every call has one shape and so one schedule: p50 and p99 of the
    // per-call makespans coincide.
    record_modeled(r, makespans_, 99.0, samples / stats.makespan,
                   energy / samples);

    // Served choice: each output row's argmax, against the float product.
    ServedRank rank;
    for (std::size_t i = 0; i < kCalls; ++i)
      rank.add_rows(matmul(xs_[i], w_), nn::argmax_rows(ys_[i]));
    rank.record(r);

    // The fleet equals one core running nn::PhotonicBackend, bit for bit.
    core::TensorCore single(accelerator_->config().core);
    nn::PhotonicBackend single_backend(single, options_);
    if (!identical(single_backend.matmul(xs_[0], w_), ys_[0])) {
      r.failures.push_back(
          "fleet output differs from the single-core PhotonicBackend");
    }
    // The calibrated fast path equals the physics walk on a 16-row slice.
    Matrix slice(kSliceRows, kInner);
    for (std::size_t s = 0; s < kSliceRows; ++s)
      for (std::size_t c = 0; c < kInner; ++c) slice(s, c) = xs_[0](s, c);
    core::TensorCoreConfig physics_config = accelerator_->config().core;
    physics_config.fast_path = false;
    core::TensorCore fast(accelerator_->config().core);
    core::TensorCore physics(physics_config);
    nn::PhotonicBackend fast_backend(fast, options_);
    nn::PhotonicBackend physics_backend(physics, options_);
    if (!identical(fast_backend.matmul(slice, w_),
                   physics_backend.matmul(slice, w_))) {
      r.failures.push_back("fast path differs from the physics walk");
    }
  }

  void peel(RoundResult& r, SpanLog& log) override {
    // No layer above the runtime: the L0 calls are the runtime.matmul
    // spans, replayed after the unit so L0 stays as in a timed round.
    Replayer replayer(accelerator_->config().core, options_,
                      /*bitwise=*/true);
    for (std::size_t i = 0; i < kCalls; ++i) {
      ScopedSpan span(log, "bench.replay");
      replayer.replay(xs_[i], w_, ys_[i], /*cached=*/false);
    }
    PeelTimes t;
    t.l0 = log.total("runtime.matmul");
    t.matmul = t.l0;
    t.matmul_durations = log.durations("runtime.matmul");
    t.replay = &replayer;
    fill_times(t, r);
  }

 private:
  static constexpr std::size_t kCores = 8;
  static constexpr std::size_t kCalls = 48;
  static constexpr std::size_t kBatch = 256;
  static constexpr std::size_t kInner = 128;
  static constexpr std::size_t kOutputs = 64;
  static constexpr std::size_t kSliceRows = 16;

  nn::PhotonicBackendOptions options_{};
  Matrix w_;
  std::vector<Matrix> xs_;
  std::vector<Matrix> ys_;
  std::vector<double> makespans_;
  double energy_before_ = 0.0;
};

// --- one-shot serving (mlp_serving, drift_serving) --------------------------

/// Server::run over `traces` open-loop traces, one run each, at load seeds
/// seed, seed + 1, ...  The modeled metrics pool every run, so they move
/// less between seeds than those of one trace would.
class BatchServing : public Workload {
 public:
  double run_unit(SpanLog* log) override {
    reports_.clear();
    double served = 0.0;
    for (const std::vector<serve::Request>& trace : traces_) {
      std::optional<ScopedSpan> span;
      if (log != nullptr) span.emplace(*log, "serve.run");
      reports_.push_back(server_->run(trace, policy_));
      served += static_cast<double>(reports_.back().completed);
    }
    return served;
  }

 protected:
  explicit BatchServing(std::size_t traces) : trace_count_(traces) {}

  void make_traces(const std::vector<serve::TenantConfig>& tenants,
                   std::uint64_t seed) {
    for (std::size_t k = 0; k < trace_count_; ++k) {
      traces_.push_back(
          serve::LoadGenerator(tenants, seed + k).generate(*registry_));
    }
  }

  /// The first 64 requests of the first trace.
  void warm_up() override {
    const std::vector<serve::Request>& trace = traces_.front();
    const std::size_t n = std::min<std::size_t>(64, trace.size());
    server_->run(
        std::vector<serve::Request>(trace.begin(), trace.begin() + n),
        policy_);
  }

  /// Checks shared by both one-shot workloads, then the modeled metrics
  /// and the float reference's rank of every served class.
  void finish_serving(RoundResult& r, double tail_percentile) {
    std::vector<double> latencies;
    double completed = 0.0;
    double makespan = 0.0;
    double energy = 0.0;
    ServedRank rank;
    for (std::size_t k = 0; k < reports_.size(); ++k) {
      const serve::ServeReport& run = reports_[k];
      r.shed += run.shed;
      if (run.completed + run.shed != traces_[k].size())
        r.failures.push_back("a run lost requests");
      for (const serve::RequestRecord& record : run.requests)
        latencies.push_back(record.total());
      completed += static_cast<double>(run.completed);
      makespan += run.makespan;
      energy += run.energy;
      score(run, traces_[k], rank);
    }
    record_modeled(r, latencies, tail_percentile, completed / makespan,
                   energy / completed);
    rank.record(r);
  }

  /// Serving-layer counts of the traced unit, over every run.
  void record_serve_layers(RoundResult& r) {
    double completed = 0.0;
    double batches = 0.0;
    double passes = 0.0;
    double warm = 0.0;
    double shed = 0.0;
    std::vector<double> waits;
    std::vector<double> latencies;
    for (const serve::ServeReport& run : reports_) {
      completed += static_cast<double>(run.completed);
      batches += static_cast<double>(run.dispatched_batches);
      passes += static_cast<double>(run.passes);
      warm += static_cast<double>(run.warm_passes);
      shed += static_cast<double>(run.shed);
      for (const serve::RequestRecord& record : run.requests) {
        waits.push_back(record.queue_wait());
        latencies.push_back(record.total());
      }
    }
    r.layers["serve.batches"] = batches;
    r.layers["serve.mean_batch"] = completed / batches;
    r.layers["serve.warm_fraction"] = passes > 0.0 ? warm / passes : 0.0;
    r.layers["serve.queue_wait_p99_cycles"] = cycles(percentile(waits, 99.0));
    // A one-shot request's first (and only) output is its completion.
    r.layers["serve.ttft_p80_cycles"] = cycles(percentile(latencies, 80.0));
    r.layers["serve.shed"] = shed;
  }

  std::size_t trace_count_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::vector<serve::Request>> traces_;
  serve::BatchPolicy policy_;
  std::vector<serve::ServeReport> reports_;

 private:
  /// Each served class against the float reference of the same model on
  /// the same input.
  void score(const serve::ServeReport& run,
             const std::vector<serve::Request>& trace, ServedRank& rank) {
    std::map<std::string, std::vector<const serve::RequestRecord*>> by_model;
    for (const serve::RequestRecord& record : run.requests)
      by_model[record.model].push_back(&record);
    for (const auto& [model, records] : by_model) {
      Matrix x(records.size(), registry_->input_width(model));
      std::vector<std::size_t> served;
      for (std::size_t k = 0; k < records.size(); ++k) {
        const std::vector<double>& input = trace.at(records[k]->id).input;
        for (std::size_t c = 0; c < x.cols(); ++c) x(k, c) = input[c];
        served.push_back(records[k]->predicted);
      }
      rank.add_rows(registry_->reference_batch(model, x), served);
    }
  }
};

/// Three tenants — two MLPs and a compiled CNN — on 8 cores, three traces
/// of 4,800 open-loop Poisson requests.  Hundreds of small
/// batches alternate between models (few warm passes), so host time goes
/// to the event loop, batcher, graph executor and per-batch reloads rather
/// than per-sample MACs.
class MlpServing final : public BatchServing {
 public:
  static constexpr std::uint64_t kDefaultSeed = 777;

  MlpServing() : BatchServing(3) {
    policy_ = {.max_batch = 16, .max_wait = 50e-9};
  }

  void build(const RoundConfig& config) override {
    accelerator_ = std::make_unique<runtime::Accelerator>(
        runtime::AcceleratorConfig{.cores = 8, .threads = config.threads});
    registry_ = std::make_unique<serve::ModelRegistry>(*accelerator_);
    Rng rng(99);
    registry_->add("stream", nn::Mlp(64, 32, 10, rng));    // 10 tiles
    registry_->add("resident", nn::Mlp(32, 16, 10, rng));  // 3 tiles
    const Matrix w1 = random_signed(36, 16, rng);
    const Matrix w2 = random_signed(16, 10, rng);
    registry_->add_graph(
        "cnn", graph::cnn_graph(8, 8, graph::edge_kernel_bank(4), 3, 2, w1,
                                std::vector<double>(16, 0.0), w2,
                                std::vector<double>(10, 0.0)));
    server_ = std::make_unique<serve::Server>(*registry_);
    make_traces(
        {{.name = "alpha", .model = "stream", .rate = 120e6, .requests = 2000},
         {.name = "beta", .model = "resident", .rate = 300e6, .requests = 1600},
         {.name = "gamma", .model = "cnn", .rate = 80e6, .requests = 1200}},
        config.seed.value_or(kDefaultSeed));
  }

  void finish(RoundResult& r) override {
    finish_serving(r, 99.0);
  }

  void peel(RoundResult& r, SpanLog& log) override {
    // L1: one graph::run per dispatched batch, rebuilt from the records in
    // dispatch order, through the peeling decorator.
    Replayer replayer(accelerator_->config().core,
                      registry_->decode_backend().options(),
                      /*bitwise=*/true);
    PeelingBackend backend(registry_->decode_backend(), log, replayer);
    std::size_t mismatched = 0;
    std::size_t calls = 0;
    for (std::size_t run = 0; run < reports_.size(); ++run) {
      const serve::ServeReport& report = reports_[run];
      const std::vector<serve::Request>& trace = traces_[run];
      const std::vector<serve::RequestRecord>& records = report.requests;
      std::size_t batch = 0;
      for (std::size_t i = 0; i < records.size(); ++batch) {
        std::size_t j = i;
        while (j < records.size() && records[j].batch == records[i].batch) ++j;
        const serve::BatchRecord& expected = report.batches.at(batch);
        if (expected.id != records[i].batch || expected.size != j - i ||
            expected.model != records[i].model) {
          r.failures.push_back("request records do not rebuild the batches");
          return;
        }
        const std::string& model = records[i].model;
        Matrix x(j - i, registry_->input_width(model));
        for (std::size_t k = i; k < j; ++k) {
          const std::vector<double>& input = trace.at(records[k].id).input;
          for (std::size_t c = 0; c < x.cols(); ++c) x(k - i, c) = input[c];
        }
        Matrix logits;
        {
          ScopedSpan span(log, "graph.run");
          logits = graph::run(registry_->compiled(model), backend, x);
        }
        ++calls;
        const std::vector<std::size_t> predicted = nn::argmax_rows(logits);
        for (std::size_t k = i; k < j; ++k)
          mismatched += predicted[k - i] == records[k].predicted ? 0 : 1;
        i = j;
      }
    }
    if (mismatched > 0) {
      r.failures.push_back(std::to_string(mismatched) +
                           " L1 predictions differ from the served ones");
    }

    PeelTimes t;
    t.l0 = log.total("serve.run");
    t.has_l1 = true;
    t.l1 = log.total("graph.run") - log.total("bench.replay");
    t.matmul = log.total("runtime.matmul");
    t.matmul_durations = log.durations("runtime.matmul");
    t.replay = &replayer;
    fill_times(t, r);
    r.layers["graph.calls"] = static_cast<double>(calls);
    record_serve_layers(r);
  }
};

/// bench_serving_health's estimated-trigger row at sigma = 1.0 K: 8 cores
/// with device variation and thermal drift, 6-bit differential weights,
/// analog readout, pilot-tone probes every 30 ns and drift-estimate
/// recalibration, four traces of 256 requests.  The only workload where the
/// fleet health monitor and recalibration walks run, and where the served
/// classes agree with the float reference most of the time.
class DriftServing final : public BatchServing {
 public:
  static constexpr std::uint64_t kDefaultSeed = 1234;

  DriftServing() : BatchServing(4) {
    policy_ = {.max_batch = 8,
               .max_wait = 20e-9,
               .probe_period = 30e-9,
               .estimated_drift_threshold = 0.10};
  }

  void build(const RoundConfig& config) override {
    runtime::AcceleratorConfig fleet;
    fleet.cores = 8;
    fleet.threads = config.threads;
    fleet.core.weight_bits = 6;
    fleet.variation.seed = 42;
    fleet.drift.sigma = 1.0;
    fleet.drift.tau = 4e-6;
    accelerator_ = std::make_unique<runtime::Accelerator>(fleet);
    nn::PhotonicBackendOptions options;
    options.quantize_output = false;
    options.differential_weights = true;
    registry_ = std::make_unique<serve::ModelRegistry>(*accelerator_, options);
    Rng rng(7);
    registry_->add("mlp", nn::Mlp(32, 16, 10, rng));
    server_ = std::make_unique<serve::Server>(*registry_);
    make_traces({{.name = "t", .model = "mlp", .rate = 100e6, .requests = 256}},
                config.seed.value_or(kDefaultSeed));
  }

  void finish(RoundResult& r) override {
    finish_serving(r, 95.0);
  }

  /// Server::run advances the OU drift at probe instants from inside the
  /// event loop, so drift state cannot be replayed from outside: this
  /// workload stops at L0 and reports counts.
  void peel(RoundResult& r, SpanLog& log) override {
    PeelTimes t;
    t.l0 = log.total("serve.run");
    fill_times(t, r);
    record_serve_layers(r);
    double probes = 0.0;
    double probe_time = 0.0;
    double makespan = 0.0;
    double recalibrations = 0.0;
    for (const serve::ServeReport& run : reports_) {
      probes += static_cast<double>(run.probes);
      probe_time += run.probe_time;
      makespan += run.makespan;
      recalibrations += static_cast<double>(run.recalibrations);
    }
    r.layers["fleet.probes"] = probes;
    r.layers["fleet.probe_overhead"] = probe_time / makespan;
    r.layers["fleet.recalibrations"] = recalibrations;
  }

  /// The run over the first trace (the default seed's, by default).
  const serve::ServeReport& report() const { return reports_.front(); }
};

// --- token_decode ------------------------------------------------------------

/// bench_serving_transformer's model: 2 layers, 2 heads, d_model 8.
nn::TransformerConfig transformer_config() {
  nn::TransformerConfig config;
  config.vocab = 16;
  config.d_model = 8;
  config.heads = 2;
  config.layers = 2;
  config.d_ff = 12;
  config.max_seq = 24;
  return config;
}

/// Continuous-batching token serving of that transformer on 32 cores with
/// device variation.  Every request's attention "weights" change on every
/// call, so each batch-1 matmul builds a weight plan, rewrites pSRAM and
/// re-walks ring calibration; the MAC loop is nearly idle.
class TokenDecode final : public Workload {
 public:
  /// 72 + 24: bench_serving_transformer's seed for its seq-24 rows.
  static constexpr std::uint64_t kDefaultSeed = 96;

  explicit TokenDecode(std::size_t requests) : request_count_(requests) {
    policy_.schedule = serve::TokenPolicy::Schedule::kContinuous;
    policy_.max_batch = 8;
  }

  void build(const RoundConfig& config) override {
    runtime::AcceleratorConfig fleet;
    fleet.cores = 32;
    fleet.threads = config.threads;
    fleet.variation.seed = 7;
    accelerator_ = std::make_unique<runtime::Accelerator>(fleet);
    registry_ = std::make_unique<serve::ModelRegistry>(*accelerator_);
    Rng rng(71);
    registry_->add_transformer(
        "tf", nn::TransformerModel::random(transformer_config(), rng));
    server_ = std::make_unique<serve::TokenServer>(*registry_);
    make_requests(config.seed.value_or(kDefaultSeed));
  }

  /// The first 4 token requests.
  void warm_up() override {
    server_->run(std::vector<serve::TokenRequest>(requests_.begin(),
                                                  requests_.begin() + 4),
                 policy_);
  }

  double run_unit(SpanLog* log) override {
    std::optional<ScopedSpan> span;
    if (log != nullptr) span.emplace(*log, "serve.token_run");
    report_ = server_->run(requests_, policy_);
    return static_cast<double>(report_.tokens);
  }

  void finish(RoundResult& r) override {
    if (report_.completed != requests_.size())
      r.failures.push_back("token requests left incomplete");
    // Latency per item is the time per output token after the first: with
    // every request arriving in one burst, whole-request latency mostly
    // measures queue position, which swings with the seed's lengths.
    std::vector<double> per_token;
    for (const serve::TokenRequestRecord& record : report_.requests) {
      if (record.generated < 2) continue;
      per_token.push_back((record.completion - record.first_token) /
                          static_cast<double>(record.generated - 1));
    }
    record_modeled(r, per_token, 80.0, report_.tokens_per_second(),
                   report_.energy_per_token());
    score().record(r);
  }

  void peel(RoundResult& r, SpanLog& log) override {
    // L1: every request's recorded stream decoded again, one decode_step
    // per fed token, through the peeling decorator around the fleet
    // backend the server decodes with.  The replay core is a pristine die
    // while the fleet's dies vary, so L2 is held to the float product
    // rather than to the fleet's bits.
    Replayer replayer(accelerator_->config().core,
                      registry_->decode_backend().options(),
                      /*bitwise=*/false);
    PeelingBackend backend(registry_->decode_backend(), log, replayer);
    const nn::TransformerModel& model = registry_->transformer("tf");
    std::size_t mismatched = 0;
    std::size_t steps = 0;
    for (const serve::TokenRequestRecord& record : report_.requests) {
      std::vector<std::size_t> next;
      {
        ScopedSpan span(log, "nn.decode");
        nn::KvCache cache = model.make_cache();
        for (std::size_t p = 0; p + 1 < record.tokens.size(); ++p) {
          next.push_back(
              argmax(model.decode_step(backend, cache, record.tokens[p])));
        }
      }
      steps += next.size();
      for (std::size_t p = record.prompt_tokens - 1; p < next.size(); ++p)
        mismatched += next[p] == record.tokens[p + 1] ? 0 : 1;
    }
    if (mismatched > 0) {
      r.failures.push_back(std::to_string(mismatched) +
                           " L1 tokens differ from the served streams");
    }

    PeelTimes t;
    t.l0 = log.total("serve.token_run");
    t.has_l1 = true;
    t.l1_is_decode = true;
    t.l1 = log.total("nn.decode") - log.total("bench.replay");
    t.matmul = log.total("runtime.matmul");
    t.matmul_durations = log.durations("runtime.matmul");
    t.replay = &replayer;
    fill_times(t, r);
    r.layers["nn.decode_steps"] = static_cast<double>(steps);
    r.layers["serve.batches"] = static_cast<double>(report_.steps);
    r.layers["serve.mean_batch"] =
        static_cast<double>(report_.tokens) /
        static_cast<double>(report_.steps);
    r.layers["serve.warm_fraction"] = report_.warm_fraction();
    std::vector<double> first;
    for (const serve::TokenRequestRecord& record : report_.requests)
      first.push_back(record.time_to_first_token());
    r.layers["serve.ttft_p80_cycles"] = cycles(percentile(first, 80.0));
  }

  const serve::TokenServeReport& report() const { return report_; }

 private:
  /// Each generated token against the float model's logits after the same
  /// prefix (teacher-forced).
  ServedRank score() const {
    nn::FloatBackend reference;
    const nn::TransformerModel& model = registry_->transformer("tf");
    ServedRank rank;
    for (const serve::TokenRequestRecord& record : report_.requests) {
      nn::KvCache cache = model.make_cache();
      for (std::size_t p = 0; p + 1 < record.tokens.size(); ++p) {
        const std::vector<double> logits =
            model.decode_step(reference, cache, record.tokens[p]);
        if (p + 1 >= record.prompt_tokens)
          rank.add(logits, record.tokens[p + 1]);
      }
    }
    return rank;
  }

  /// bench_serving_transformer's seq-24 generator: arrivals 1 ns apart,
  /// prompts and generation lengths drawn around seq / 2.
  void make_requests(std::uint64_t seed) {
    constexpr std::size_t kSeq = 24;
    const nn::TransformerConfig config = transformer_config();
    Rng load(seed);
    for (std::size_t i = 0; i < request_count_; ++i) {
      serve::TokenRequest request;
      request.id = i;
      request.tenant =
          i % 3 == 0 ? "acme" : (i % 3 == 1 ? "globex" : "initech");
      request.model = "tf";
      request.arrival = static_cast<double>(i) * 1e-9;
      const std::size_t prompt_len = 1 + load.below(kSeq / 2);
      for (std::size_t t = 0; t < prompt_len; ++t)
        request.prompt.push_back(load.below(config.vocab));
      const std::size_t room = config.max_seq - prompt_len;
      request.max_new = 1 + load.below(std::min(kSeq, room));
      requests_.push_back(std::move(request));
    }
  }

  std::size_t request_count_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::TokenServer> server_;
  std::vector<serve::TokenRequest> requests_;
  serve::TokenPolicy policy_;
  serve::TokenServeReport report_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "matmul_kernel") return std::make_unique<MatmulKernel>();
  if (name == "mlp_serving") return std::make_unique<MlpServing>();
  if (name == "token_decode") return std::make_unique<TokenDecode>(64);
  if (name == "drift_serving") return std::make_unique<DriftServing>();
  throw std::invalid_argument("unknown workload: " + name);
}

/// Fleet counters of the traced unit: AcceleratorStats, the fleet_*
/// counters of the metrics registry attached for it, and per-core ADC
/// counters.
void record_fleet_layers(runtime::Accelerator& accelerator,
                         telemetry::MetricsRegistry& metrics,
                         std::uint64_t conversions_before,
                         std::uint64_t saturations_before, RoundResult& r) {
  const auto counter = [&metrics](const char* name) {
    return metrics.contains(name) ? metrics.counter(name).value() : 0.0;
  };
  const runtime::AcceleratorStats stats = accelerator.stats();
  std::uint64_t conversions = 0;
  std::uint64_t saturations = 0;
  for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
    conversions += accelerator.core(i).adc_conversions();
    saturations += accelerator.core(i).adc_saturations();
  }
  conversions -= conversions_before;
  saturations -= saturations_before;
  const double hits = counter("fleet_plan_cache_hits_total");
  const double misses = counter("fleet_plan_cache_misses_total");
  const double peak = static_cast<double>(accelerator.active_core_count()) *
                      accelerator.core(0).throughput_ops();

  r.layers["core.samples"] = static_cast<double>(stats.samples);
  r.layers["core.adc_saturation_rate"] =
      conversions > 0 ? static_cast<double>(saturations) /
                            static_cast<double>(conversions)
                      : 0.0;
  r.layers["core.peak_fraction"] = stats.throughput_ops() / peak;
  r.layers["core.reload_fraction"] = stats.reload_fraction();
  r.layers["runtime.matmuls"] = counter("fleet_matmuls_total");
  r.layers["runtime.tile_passes"] = counter("fleet_tile_passes_total");
  r.layers["nn.plan_builds"] = misses;
  r.layers["nn.plan_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

void write_map(std::ostream& out, const std::map<std::string, double>& values) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << json::quote(name) << ": "
        << json::format_number(value);
    first = false;
  }
  out << "}";
}

std::map<std::string, double> read_map(const json::Value& value) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : value.as_object()) out[name] = v.as_number();
  return out;
}

std::vector<std::string> read_strings(const json::Value& value) {
  std::vector<std::string> out;
  for (const json::Value& v : value.as_array()) out.push_back(v.as_string());
  return out;
}

double baseline_metric(const json::Value& doc, const std::string& name) {
  for (const json::Value& metric : doc.at("metrics").as_array())
    if (metric.at("name").as_string() == name)
      return metric.at("value").as_number();
  throw std::invalid_argument("baseline has no metric " + name);
}

constexpr std::size_t kSetups = 3;
/// Reference-loop timings taken right before the unit, and again after it.
constexpr std::size_t kReferences = 3;

/// Host seconds of a fixed reference loop (about kReferenceSeconds on the
/// machine the bounds were measured on):
/// arithmetic over a 128 KiB array, then node-based map updates — the two
/// kinds of work the simulator's hot paths mix.  The loop is the
/// benchmark's own code, so no change to the simulator moves it; a time
/// divided by it cancels much of the machine's slow speed drift.
double reference_seconds() {
  static std::vector<double> values(std::size_t{1} << 14, 1.0);
  static std::map<std::uint64_t, double> nodes;
  static volatile double sink = 0.0;
  const Clock::time_point start = Clock::now();
  double sum = 0.0;
  for (std::size_t k = 0; k < 100; ++k) {
    for (std::size_t i = 0; i < values.size(); ++i)
      sum += std::sqrt(values[i] * static_cast<double>(k) +
                       static_cast<double>(i));
  }
  for (std::uint64_t k = 0; k < 100; ++k) {
    for (std::uint64_t i = 0; i < 400; ++i) {
      nodes[(i * 2654435761u + k) % 8192] += 1.0;
      if (i % 3 == 0) nodes.erase((i * 40503u + k) % 8192);
    }
  }
  sink = sink + sum + static_cast<double>(nodes.size());
  return since(start);
}

void expect_equal(std::vector<std::string>& failures, const std::string& what,
                  double actual, double baseline) {
  if (actual != baseline) {
    failures.push_back(what + ": " + json::format_number(actual) +
                       " != baseline " + json::format_number(baseline));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "matmul_kernel", "mlp_serving", "token_decode", "drift_serving"};
  return names;
}

RoundResult run_round(const RoundConfig& config) {
  RoundResult r;
  // One set-up is too short to time steadily on a shared machine: set up
  // kSetups times, each right after a run of the reference loop, keep the
  // last workload, and report the median at reference speed.
  std::unique_ptr<Workload> workload;
  std::vector<double> setups;
  for (std::size_t k = 0; k < kSetups; ++k) {
    workload.reset();
    const double reference = reference_seconds();
    const Clock::time_point start = Clock::now();
    workload = make_workload(config.workload);
    workload->build(config);
    workload->warm_up();
    setups.push_back(since(start) * kReferenceSeconds / reference);
  }
  r.setup_s = quartiles(setups).median;
  runtime::Accelerator& accelerator = workload->accelerator();
  accelerator.reset_stats();

  std::optional<SpanLog> log;
  telemetry::MetricsRegistry metrics;
  std::uint64_t conversions = 0;
  std::uint64_t saturations = 0;
  if (config.traced) {
    log.emplace(config.workload);
    accelerator.set_metrics(&metrics);
    for (std::size_t i = 0; i < accelerator.core_count(); ++i) {
      conversions += accelerator.core(i).adc_conversions();
      saturations += accelerator.core(i).adc_saturations();
    }
  }

  std::vector<double> references;
  for (std::size_t k = 0; k < kReferences; ++k)
    references.push_back(reference_seconds());
  const Clock::time_point unit_start = Clock::now();
  r.items = workload->run_unit(log ? &*log : nullptr);
  r.unit_s = since(unit_start);
  for (std::size_t k = 0; k < kReferences; ++k)
    references.push_back(reference_seconds());
  r.reference_s = quartiles(references).median;

  if (config.traced) {
    accelerator.set_metrics(nullptr);
    record_fleet_layers(accelerator, metrics, conversions, saturations, r);
  }
  workload->finish(r);
  if (config.traced) {
    workload->peel(r, *log);
    for (const MetricSpec& spec : per_layer_metrics())
      r.layers.try_emplace(spec.name, 0.0);
    const std::string path =
        config.trace_dir + "/trace_" + config.workload + ".json";
    if (!log->write_json(path)) r.warnings.push_back("cannot write " + path);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

std::string round_to_json(const RoundResult& r) {
  std::ostringstream out;
  out << "{\"setup_s\": " << json::format_number(r.setup_s)
      << ", \"unit_s\": " << json::format_number(r.unit_s)
      << ", \"reference_s\": " << json::format_number(r.reference_s)
      << ", \"items\": " << json::format_number(r.items)
      << ", \"peak_rss_mb\": " << json::format_number(r.peak_rss_mb)
      << ", \"shed\": " << r.shed
      << ", \"tail_percentile\": " << json::format_number(r.tail_percentile)
      << ", \"tail_samples\": " << r.tail_samples << ", \"modeled\": ";
  write_map(out, r.modeled);
  out << ", \"layers\": ";
  write_map(out, r.layers);
  out << ", \"failures\": ";
  write_json_strings(out, r.failures);
  out << ", \"warnings\": ";
  write_json_strings(out, r.warnings);
  out << "}";
  return out.str();
}

RoundResult round_from_json(const json::Value& v) {
  RoundResult r;
  r.setup_s = v.at("setup_s").as_number();
  r.unit_s = v.at("unit_s").as_number();
  r.reference_s = v.at("reference_s").as_number();
  r.items = v.at("items").as_number();
  r.peak_rss_mb = v.at("peak_rss_mb").as_number();
  r.shed = static_cast<std::size_t>(v.at("shed").as_number());
  r.tail_percentile = v.at("tail_percentile").as_number();
  r.tail_samples = static_cast<std::size_t>(v.at("tail_samples").as_number());
  r.modeled = read_map(v.at("modeled"));
  r.layers = read_map(v.at("layers"));
  r.failures = read_strings(v.at("failures"));
  r.warnings = read_strings(v.at("warnings"));
  return r;
}

std::vector<std::string> cross_check_baseline(const std::string& workload,
                                              std::size_t threads) {
  std::vector<std::string> failures;
  RoundConfig config;
  config.threads = threads;
  // The rows run as their benches ran them: a fresh fleet and no warm-up,
  // since ledger energy is a difference of a ledger that keeps growing.
  try {
    if (workload == "token_decode") {
      // The 24-request seq-24 continuous row.
      const json::Value baseline = read_json_file("BENCH_transformer.json");
      TokenDecode row(24);
      row.build(config);
      row.run_unit(nullptr);
      const serve::TokenServeReport& t = row.report();
      expect_equal(failures, "continuous_p99", t.total.p99,
                   baseline_metric(baseline, "continuous_p99"));
      expect_equal(failures, "tokens_per_s_continuous_seq24",
                   t.tokens_per_second(),
                   baseline_metric(baseline, "tokens_per_s_continuous_seq24"));
      expect_equal(
          failures, "energy_per_token_continuous_seq24", t.energy_per_token(),
          baseline_metric(baseline, "energy_per_token_continuous_seq24"));
    } else if (workload == "drift_serving") {
      // The estimated-trigger sigma = 1.0 K row: the first trace.
      const json::Value baseline = read_json_file("BENCH_health.json");
      DriftServing row;
      row.build(config);
      row.run_unit(nullptr);
      const serve::ServeReport& h = row.report();
      expect_equal(failures, "accuracy_estimated_sigma1", h.accuracy(),
                   baseline_metric(baseline, "accuracy_estimated_sigma1"));
      expect_equal(failures, "recals_estimated_sigma1",
                   static_cast<double>(h.recalibrations),
                   baseline_metric(baseline, "recals_estimated_sigma1"));
      expect_equal(failures, "p99_estimated_sigma1", h.total.p99,
                   baseline_metric(baseline, "p99_estimated_sigma1"));
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("cross-check: ") + e.what());
  }
  return failures;
}

}  // namespace ptc::benchmark
