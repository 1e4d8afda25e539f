#include "serve/load_generator.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/expects.hpp"
#include "serve/latency_stats.hpp"

namespace ptc::serve {

LoadGenerator::LoadGenerator(std::vector<TenantConfig> tenants,
                             std::uint64_t seed)
    : tenants_(std::move(tenants)), base_(seed) {
  expects(!tenants_.empty(), "load generator needs at least one tenant");
  for (const TenantConfig& tenant : tenants_) {
    expects(!tenant.name.empty(), "tenant name must be non-empty");
    expects(tenant.name != TenantCost::kFleetTenant,
            "the (fleet) tenant is reserved for fleet overhead");
    expects(!tenant.model.empty(), "tenant model must be non-empty");
    expects(tenant.rate > 0.0, "tenant rate must be positive");
  }
}

std::vector<Request> LoadGenerator::generate(
    const ModelRegistry& registry) const {
  std::vector<Request> requests;
  std::vector<std::size_t> tenant_of;  // tenant index per request, for ties
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantConfig& tenant = tenants_[t];
    const std::size_t width = registry.input_width(tenant.model);
    // Separate child streams for arrivals and inputs: the arrival sequence
    // stays pinned even if the input model (or width) changes.
    Rng arrivals = base_.split(2 * t);
    Rng inputs = base_.split(2 * t + 1);
    double clock = 0.0;
    for (std::size_t i = 0; i < tenant.requests; ++i) {
      clock += arrivals.exponential(tenant.rate);
      Request request;
      request.tenant = tenant.name;
      request.model = tenant.model;
      request.arrival = clock;
      request.input.resize(width);
      for (double& x : request.input) x = inputs.uniform();
      requests.push_back(std::move(request));
      tenant_of.push_back(t);
    }
  }

  // Merge streams into one arrival-ordered trace.  Per-tenant sequences
  // are already time-sorted, so (arrival, tenant, insertion order) is a
  // strict total order and the result is platform-independent.
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].arrival != requests[b].arrival) {
      return requests[a].arrival < requests[b].arrival;
    }
    if (tenant_of[a] != tenant_of[b]) return tenant_of[a] < tenant_of[b];
    return a < b;
  });

  std::vector<Request> merged;
  merged.reserve(requests.size());
  for (std::size_t index : order) {
    merged.push_back(std::move(requests[index]));
    merged.back().id = merged.size() - 1;
  }
  return merged;
}

}  // namespace ptc::serve
