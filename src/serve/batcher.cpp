#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>

#include "common/expects.hpp"

namespace ptc::serve {

void RequestQueue::push(Request request) {
  expects(!request.model.empty(), "queued request needs a model name");
  std::deque<Request>& queue = queues_[request.model];
  expects(queue.empty() || queue.back().arrival <= request.arrival,
          "requests must be pushed in arrival order");
  queue.push_back(std::move(request));
  ++size_;
}

std::size_t RequestQueue::size(const std::string& model) const {
  const auto it = queues_.find(model);
  return it == queues_.end() ? 0 : it->second.size();
}

std::vector<std::string> RequestQueue::models() const {
  std::vector<std::string> names;
  for (const auto& [name, queue] : queues_) {
    if (!queue.empty()) names.push_back(name);
  }
  return names;  // std::map iteration: already name-sorted
}

double RequestQueue::oldest_arrival(const std::string& model) const {
  const auto it = queues_.find(model);
  expects(it != queues_.end() && !it->second.empty(),
          "oldest_arrival of an empty queue");
  return it->second.front().arrival;
}

double RequestQueue::fill_arrival(const std::string& model,
                                  std::size_t size) const {
  expects(size >= 1, "fill_arrival needs a positive batch size");
  const auto it = queues_.find(model);
  expects(it != queues_.end() && it->second.size() >= size,
          "fill_arrival needs at least `size` queued requests");
  return it->second[size - 1].arrival;
}

std::vector<Request> RequestQueue::pop(const std::string& model,
                                       std::size_t limit) {
  const auto it = queues_.find(model);
  expects(it != queues_.end(), "pop from a model with no queue");
  std::deque<Request>& queue = it->second;
  std::vector<Request> batch;
  while (!queue.empty() && batch.size() < limit) {
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
    --size_;
  }
  return batch;
}

DynamicBatcher::DynamicBatcher(const BatchPolicy& policy) : policy_(policy) {
  expects(policy.max_batch >= 1, "max_batch must be at least 1");
  expects(policy.max_wait >= 0.0, "max_wait must be non-negative");
  expects(policy.recalibration_period >= 0.0,
          "recalibration_period must be non-negative");
  expects(policy.drift_threshold >= 0.0,
          "drift_threshold must be non-negative");
  expects(policy.probe_period >= 0.0, "probe_period must be non-negative");
  expects(policy.estimated_drift_threshold >= 0.0,
          "estimated_drift_threshold must be non-negative");
}

void DynamicBatcher::enqueue(Request request) { queue_.push(std::move(request)); }

double DynamicBatcher::close_time(const std::string& model) const {
  // The max_wait expiry, or — once max_batch is queued — the instant the
  // closing request arrived; a batch can never launch before its last
  // member exists.
  double when = queue_.oldest_arrival(model) + policy_.max_wait;
  if (queue_.size(model) >= policy_.max_batch) {
    when = std::min(when, queue_.fill_arrival(model, policy_.max_batch));
  }
  return when;
}

bool DynamicBatcher::ready(const std::string& model, double now,
                           bool drain) const {
  // now >= inf is false, so kNoTimeout queues only close when full.
  return drain || now >= close_time(model);
}

double DynamicBatcher::next_ready_time(double now) const {
  double best = std::numeric_limits<double>::infinity();
  for (const std::string& model : queue_.models()) {
    best = std::min(best, std::max(now, close_time(model)));
  }
  return best;
}

std::vector<Request> DynamicBatcher::pop_ready(
    double now, const std::string& resident_model, bool drain) {
  std::string best;
  for (const std::string& model : queue_.models()) {
    if (!ready(model, now, drain)) continue;
    if (best.empty()) {
      best = model;
      continue;
    }
    // Resident model first (a batch with zero reloads beats any other);
    // then FIFO fairness across models; name order breaks exact ties via
    // the sorted iteration.
    if (model == resident_model && best != resident_model) {
      best = model;
      continue;
    }
    if (best == resident_model) continue;
    if (queue_.oldest_arrival(model) < queue_.oldest_arrival(best)) {
      best = model;
    }
  }
  if (best.empty()) return {};
  return queue_.pop(best, policy_.max_batch);
}

}  // namespace ptc::serve
