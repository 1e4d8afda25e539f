#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/expects.hpp"
#include "nn/layers.hpp"
#include "serve/attribution.hpp"

namespace ptc::serve {
namespace {

/// One live decode slot: the request it serves, its KV cache, and how far
/// into its token stream the prefill/generation cursor is.
struct Slot {
  std::size_t req = 0;        ///< index into the run's request list
  std::size_t admit_seq = 0;  ///< admission order (youngest-first preempt)
  nn::KvCache cache;
  std::size_t fed = 0;  ///< tokens of the stream already decoded into cache
};

/// Per-request progress that survives preemption (the cache does not).
struct Progress {
  std::vector<std::size_t> stream;  ///< prompt + generated so far
  std::size_t generated = 0;
  std::size_t preemptions = 0;
  double first_token = 0.0;
};

}  // namespace

TokenServeReport Server::run(const std::vector<TokenRequest>& requests,
                             const TokenPolicy& policy) {
  expects(policy.max_batch >= 1, "token policy needs at least one slot");
  expects(!requests.empty(), "token run needs at least one request");
  expect_request_stream(requests);
  const std::string& model_name = requests.front().model;
  const nn::TransformerModel& model = registry_.transformer(model_name);
  const std::size_t layers = model.config().layers;
  for (const TokenRequest& request : requests) {
    expects(request.model == model_name,
            "a token run decodes one transformer model");
    expects(!request.prompt.empty(), "prompt must contain at least one token");
    expects(request.max_new >= 1, "max_new must be >= 1");
    expects(request.prompt.size() <= model.config().max_seq,
            "prompt exceeds the model context window");
    for (const std::size_t token : request.prompt) {
      expects(token < model.config().vocab,
              "prompt token out of vocabulary range");
    }
  }
  expects(policy.kv_budget_rows == 0 || policy.kv_budget_rows >= layers,
          "kv budget must admit at least one position");

  registry_.reset_residency();
  accelerator_.reset_drift();
  accelerator_.set_trace_time(0.0);
  TenantBilling billing(accelerator_);

  TokenServeReport report;
  std::vector<Progress> progress(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r)
    progress[r].stream = requests[r].prompt;

  std::deque<std::size_t> waiting;  ///< readmissions at the front
  std::vector<Slot> active;         ///< admission order
  std::size_t next_arrival = 0;
  std::size_t admit_counter = 0;
  double now = 0.0;

  const auto admit_arrivals = [&] {
    while (next_arrival < requests.size() &&
           requests[next_arrival].arrival <= now) {
      if (tracer_ != nullptr) {
        tracer_->async_begin("token_request", "request",
                             requests[next_arrival].id,
                             requests[next_arrival].arrival,
                             {{"tenant", requests[next_arrival].tenant.c_str()},
                              {"model", model_name.c_str()}});
      }
      waiting.push_back(next_arrival++);
    }
  };
  const auto kv_rows_active = [&] {
    std::size_t rows = 0;
    for (const Slot& slot : active) rows += slot.cache.rows();
    return rows;
  };
  // Fill free slots from the queue.  The KV gate leaves headroom for every
  // admitted slot to append one position this step, so admission never
  // plans an immediate preemption.
  const auto refill = [&] {
    while (active.size() < policy.max_batch && !waiting.empty()) {
      if (policy.kv_budget_rows > 0 &&
          kv_rows_active() + (active.size() + 1) * layers >
              policy.kv_budget_rows) {
        break;
      }
      Slot slot;
      slot.req = waiting.front();
      slot.admit_seq = admit_counter++;
      slot.cache = model.make_cache();
      waiting.pop_front();
      active.push_back(std::move(slot));
    }
  };

  while (next_arrival < requests.size() || !waiting.empty() ||
         !active.empty()) {
    admit_arrivals();
    if (policy.schedule == TokenPolicy::Schedule::kContinuous ||
        active.empty()) {
      refill();
    }
    if (active.empty()) {
      // Nothing live and nothing admissible yet: jump to the next arrival.
      expects(next_arrival < requests.size(),
              "idle token loop with no future arrivals");
      now = std::max(now, requests[next_arrival].arrival);
      continue;
    }

    // KV budget enforcement before the step commits: growth (one position
    // per live request) may overflow the budget even though admission left
    // headroom.  Preempt youngest-first — never the oldest, so the run
    // always makes progress; a lone over-budget request keeps running.
    if (policy.kv_budget_rows > 0) {
      while (active.size() > 1 &&
             kv_rows_active() + active.size() * layers >
                 policy.kv_budget_rows) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < active.size(); ++i)
          if (active[i].admit_seq > active[victim].admit_seq) victim = i;
        Slot slot = std::move(active[victim]);
        active.erase(active.begin() + victim);
        const std::size_t dropped = slot.cache.rows();
        const TokenRequest& request = requests[slot.req];
        ++progress[slot.req].preemptions;
        TenantCost& row = billing.row(request.tenant);
        row.kv_evicted_rows += dropped;
        ++row.preemptions;
        waiting.push_front(slot.req);  // readmit first when room frees
        if (tracer_ != nullptr) {
          tracer_->instant(telemetry::track::kServe, "request_preempted",
                           "serve", now,
                           {{"request", request.id},
                            {"tenant", request.tenant.c_str()}});
          tracer_->instant(telemetry::track::kServe, "kv_evicted", "serve",
                           now,
                           {{"tenant", request.tenant.c_str()},
                            {"rows", dropped}});
        }
      }
    }

    // --- one token step: every live request decodes exactly one token ---
    // The registry executes and costs it, from the step's start.
    const double step_start = now;
    std::vector<nn::KvCache*> caches;
    std::vector<std::size_t> step_inputs;
    for (Slot& slot : active) {
      caches.push_back(&slot.cache);
      step_inputs.push_back(progress[slot.req].stream[slot.fed++]);
    }
    accelerator_.set_trace_time(step_start);
    const BatchDispatch step =
        registry_.run_decode_step(model_name, caches, step_inputs);
    const std::vector<std::size_t> sampled = nn::argmax_rows(step.logits);
    const std::size_t step_tokens = active.size();
    const double step_end = step_start + step.latency;
    ++report.steps;
    report.passes += step.passes;
    report.warm_passes += step.warm_passes;

    // Bill the step to its tenants, weighted by tokens decoded (one per
    // live request); KV row-seconds by each request's own cache occupancy.
    {
      TenantShares shares;
      for (const Slot& slot : active) ++shares[requests[slot.req].tenant];
      billing.charge(shares, &TenantCost::tokens, step, nullptr, model_name);
      for (const Slot& slot : active) {
        billing.row(requests[slot.req].tenant).kv_row_seconds +=
            static_cast<double>(slot.cache.rows()) * step.latency;
      }
    }

    const std::size_t kv_rows_now = kv_rows_active();
    report.kv_peak_rows = std::max(report.kv_peak_rows, kv_rows_now);
    if (tracer_ != nullptr) {
      tracer_->instant(telemetry::track::kServe, "token_step", "serve",
                       step_start,
                       {{"batch", step_tokens},
                        {"passes", step.passes},
                        {"warm_passes", step.warm_passes},
                        {"kv_rows", kv_rows_now}});
      tracer_->complete(telemetry::track::kServe, "decode_step", "serve",
                        step_start, step_end,
                        {{"batch", step_tokens},
                         {"passes", step.passes},
                         {"warm_passes", step.warm_passes}});
      tracer_->counter(telemetry::track::kQueue, "kv_rows", step_end,
                       static_cast<double>(kv_rows_now));
      tracer_->counter(telemetry::track::kQueue, "token_queue_depth",
                       step_end, static_cast<double>(waiting.size()));
    }

    // Token bookkeeping, in admission order: requests whose prefill just
    // finished sample their next token; finished requests free their slot.
    std::vector<Slot> still_active;
    still_active.reserve(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      Slot& slot = active[i];
      const TokenRequest& request = requests[slot.req];
      Progress& p = progress[slot.req];
      bool done = false;
      if (slot.fed == p.stream.size()) {
        p.stream.push_back(sampled[i]);
        ++p.generated;
        if (p.generated == 1) p.first_token = step_end;
        // Same stopping rule as TransformerModel::generate: done at
        // max_new, or when the context window has no room to decode the
        // sampled token.
        done = p.generated == request.max_new ||
               slot.cache.length >= model.config().max_seq;
      }
      if (done) {
        TokenRequestRecord record;
        record.id = request.id;
        record.tenant = request.tenant;
        record.model = request.model;
        record.prompt_tokens = request.prompt.size();
        record.generated = p.generated;
        record.tokens = p.stream;
        record.preemptions = p.preemptions;
        record.arrival = request.arrival;
        record.first_token = p.first_token;
        record.completion = step_end;
        ++billing.row(request.tenant).requests;
        if (tracer_ != nullptr) {
          tracer_->async_end("token_request", "request", request.id,
                             step_end);
        }
        report.requests.push_back(std::move(record));
      } else {
        still_active.push_back(std::move(slot));
      }
    }
    active = std::move(still_active);
    now = step_end;
  }

  report.makespan = now;

  // Fleet totals are *derived* from the attribution rows.
  const TenantCost total = billing.close(report);
  expects(report.completed == requests.size(),
          "every token request must complete");
  report.tokens = total.tokens;
  report.kv_row_seconds = total.kv_row_seconds;
  report.kv_evicted_rows = total.kv_evicted_rows;
  report.preemptions = total.preemptions;
  report.first_token =
      report.summarize(&TokenRequestRecord::time_to_first_token);
  return report;
}

}  // namespace ptc::serve
