#ifndef PTC_SERVE_LOAD_GENERATOR_HPP
#define PTC_SERVE_LOAD_GENERATOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"

/// Deterministic open-loop load: each tenant is an independent Poisson
/// stream of requests for one model.  Arrival times and input rows derive
/// from decorrelated child streams of a single seed (Rng::split), so the
/// merged trace is a pure function of (tenants, seed) — independent of
/// host threading, of tenant order in the merge, and of every other
/// tenant's draw count.
namespace ptc::serve {

/// One open-loop request stream.
struct TenantConfig {
  std::string name;          ///< request tenant id; "(fleet)" is reserved
  std::string model;         ///< registry model the requests run
  double rate = 1.0;         ///< mean arrival rate [req per modeled second]
  std::size_t requests = 0;  ///< requests to generate
};

class LoadGenerator {
 public:
  LoadGenerator(std::vector<TenantConfig> tenants, std::uint64_t seed);

  /// Generates the merged, arrival-sorted request trace.  Input rows are
  /// uniform in [0, 1) with each tenant's model width taken from the
  /// registry.  Arrival ties break by tenant order then sequence number,
  /// and global ids are assigned in final order.
  std::vector<Request> generate(const ModelRegistry& registry) const;

  const std::vector<TenantConfig>& tenants() const { return tenants_; }

 private:
  std::vector<TenantConfig> tenants_;
  Rng base_;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_LOAD_GENERATOR_HPP
