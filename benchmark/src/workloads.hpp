#ifndef PTC_BENCHMARK_WORKLOADS_HPP
#define PTC_BENCHMARK_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

/// The four benchmark workloads and the round that measures one of them.
/// A round is one process: set up, run the workload's fixed unit of work
/// once (timed, or traced and peeled layer by layer), check its outputs,
/// and report.  README.md says why each workload was chosen.
namespace ptc::benchmark {

/// Host times are reported at reference speed: a time t measured next to a
/// run of the reference loop that took r seconds is reported as
/// t * kReferenceSeconds / r.  kReferenceSeconds is about what the loop
/// takes on the 4-vCPU 2.1 GHz Xeon VM the bounds were measured on, so the
/// reported times read close to wall time there (README.md, "Host noise").
constexpr double kReferenceSeconds = 0.01;

/// Names in the order rounds interleave.
const std::vector<std::string>& workload_names();

struct RoundConfig {
  std::string workload;
  /// Load seed (activations, arrivals, prompts); empty keeps the
  /// workload's default.  Model weights never depend on it.
  std::optional<std::uint64_t> seed;
  /// Runtime thread-pool workers; the calling thread helps as well.
  std::size_t threads = 1;
  bool traced = false;
  /// Where a traced round writes trace_<workload>.json.
  std::string trace_dir;
};

/// Everything one round measured.
struct RoundResult {
  /// Median set-up (construction through warm-up) at reference speed.
  double setup_s = 0.0;
  double unit_s = 0.0;  ///< host wall of the unit of work (L0 when traced)
  /// Median host time of the reference loop around the unit: the speed of
  /// the machine while the unit ran.
  double reference_s = 0.0;
  /// The unit's time at reference speed.
  double unit_at_reference_s() const {
    return unit_s * kReferenceSeconds / reference_s;
  }
  double items = 0.0;    ///< samples / requests / tokens in the unit
  double peak_rss_mb = 0.0;
  std::size_t shed = 0;  ///< requests refused by the serving layer
  double tail_percentile = 0.0;  ///< percentile behind modeled_tail_cycles
  std::size_t tail_samples = 0;  ///< latency samples it was taken over
  /// Deterministic metrics (modeled_* and served_rank): pure functions of
  /// (workload, seed).
  std::map<std::string, double> modeled;
  /// Per-layer metrics (traced rounds only).
  std::map<std::string, double> layers;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::vector<std::string> warnings;  ///< measurement caveats
};

/// Runs one round in this process.
RoundResult run_round(const RoundConfig& config);

/// One JSON line per round, the protocol between a round process and the
/// process that launched it.
std::string round_to_json(const RoundResult& result);
RoundResult round_from_json(const json::Value& value);

/// Reruns the committed baseline row `workload` reproduces at its own
/// seeds and compares the modeled values bit for bit: token_decode with
/// BENCH_transformer.json, drift_serving with BENCH_health.json (read from
/// the working directory).  The other workloads have no row.  Returns the
/// mismatches.
std::vector<std::string> cross_check_baseline(const std::string& workload,
                                              std::size_t threads);

}  // namespace ptc::benchmark

#endif  // PTC_BENCHMARK_WORKLOADS_HPP
