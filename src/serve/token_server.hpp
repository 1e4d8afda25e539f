#ifndef PTC_SERVE_TOKEN_SERVER_HPP
#define PTC_SERVE_TOKEN_SERVER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "serve/latency_stats.hpp"

/// Token-level serving of registered transformers (Server::run's
/// TokenRequest overload, implemented in token_server.cpp): requests carry
/// a growing sequence and a per-request KV cache, and the decode batch
/// re-forms every step.  Two schedulers over the same deterministic
/// event loop:
///
///  - static: a batch of up to max_batch requests is admitted together and
///    runs to completion; slots freed by short requests stay idle until
///    the whole batch drains (the classic padded-batch regime).
///  - continuous: freed slots refill from the queue at every token step,
///    so the fleet's static weight passes amortize over whichever requests
///    are live right now.
///
/// ModelRegistry::run_decode_step executes and costs each step: the static
/// weight tiles (warm under the registry's residency rule) plus per-request
/// attention passes that grow with each request's context — the KV rows
/// are that request's own "weights", reloaded every step.  The loop only
/// schedules.  KV state is accounted like weight residency: budgeted
/// (kv_budget_rows), billed per tenant as a row-seconds integral, and
/// evictable — over budget, the youngest active request is preempted (its
/// cache drops, it re-prefills on readmission), never the oldest, so the
/// loop always makes progress.
///
/// Determinism: decode arithmetic is per-request (nn::TransformerModel::
/// decode_step), so every generated token stream is bit-identical to
/// sequential one-request-at-a-time decoding and independent of host
/// thread count — scheduling changes only *when* tokens happen, never
/// *which* tokens.
namespace ptc::serve {

/// One generation request: a prompt destined for a registered transformer.
struct TokenRequest {
  std::size_t id = 0;
  std::string tenant;
  std::string model;                ///< ModelRegistry transformer entry
  double arrival = 0.0;             ///< open-loop arrival time [s]
  std::vector<std::size_t> prompt;  ///< token ids (non-empty)
  std::size_t max_new = 1;          ///< tokens to generate
};

struct TokenPolicy {
  enum class Schedule {
    kStatic,      ///< admit together, run to completion
    kContinuous,  ///< refill freed slots every token step
  };
  Schedule schedule = Schedule::kContinuous;
  std::size_t max_batch = 8;  ///< decode slots
  /// Fleet-wide KV residency budget in cache rows (one row = one
  /// position's K+V state in one layer); 0 = unbounded.  Admission never
  /// exceeds it: over budget, youngest-first preemption frees rows.
  std::size_t kv_budget_rows = 0;
};

/// Per-request outcome of one token-serving run.
struct TokenRequestRecord {
  std::size_t id = 0;
  std::string tenant;
  std::string model;
  std::size_t prompt_tokens = 0;
  std::size_t generated = 0;
  std::vector<std::size_t> tokens;  ///< prompt + generated stream
  std::size_t preemptions = 0;      ///< times this request lost its cache
  double arrival = 0.0;
  double first_token = 0.0;  ///< completion of the step decoding token #1
  double completion = 0.0;

  double total() const { return completion - arrival; }
  double time_to_first_token() const { return first_token - arrival; }
};

/// Everything one token run (Server::run's TokenRequest overload)
/// produced; `total` is the p99 the bench frontier gates.
struct TokenServeReport : RunReport<TokenRequestRecord> {
  std::size_t steps = 0;  ///< decode steps dispatched
  /// Tokens fed through the fleet (prefill + generation), derived from the
  /// tenant rows — the conservation contract token billing is under.
  std::size_t tokens = 0;

  LatencyStats first_token;  ///< arrival -> first generated token

  // --- KV residency ---------------------------------------------------------
  std::size_t kv_peak_rows = 0;     ///< max simultaneous cached rows
  std::size_t kv_evicted_rows = 0;  ///< rows dropped by preemption
  std::size_t preemptions = 0;      ///< preemption events
  /// KV row-seconds integral over the run, from the tenant rows.
  double kv_row_seconds = 0.0;

  /// Decoded tokens per modeled second — the serving throughput number.
  double tokens_per_second() const {
    return makespan > 0.0 ? static_cast<double>(tokens) / makespan : 0.0;
  }
  /// Fleet energy per decoded token [J].
  double energy_per_token() const {
    return tokens > 0 ? energy / static_cast<double>(tokens) : 0.0;
  }
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_TOKEN_SERVER_HPP
