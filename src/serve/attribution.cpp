#include "serve/attribution.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/expects.hpp"

namespace ptc::serve {

std::map<std::string, std::size_t> split_exact(std::size_t total,
                                               const TenantShares& shares,
                                               std::size_t weight_sum) {
  expects(weight_sum >= 1, "split_exact needs a positive weight sum");
  std::map<std::string, std::size_t> out;
  std::size_t assigned = 0;
  std::vector<std::pair<std::size_t, const std::string*>> remainders;
  remainders.reserve(shares.size());
  for (const auto& [tenant, count] : shares) {
    const std::size_t base = total * count / weight_sum;
    out[tenant] = base;
    assigned += base;
    remainders.emplace_back(total * count % weight_sum, &tenant);
  }
  // Hand the leftover units to the largest remainders; stable_sort keeps
  // the sorted-tenant order among ties.
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  expects(total - assigned <= remainders.size(),
          "largest-remainder leftover exceeds the tenant count");
  for (std::size_t i = 0; i < total - assigned; ++i) {
    ++out[*remainders[i].second];
  }
  return out;
}

const TenantCost* tenant_cost(const std::vector<TenantCost>& rows,
                              const std::string& tenant) {
  for (const TenantCost& row : rows) {
    if (row.tenant == tenant) return &row;
  }
  return nullptr;
}

TenantBilling::TenantBilling(const runtime::Accelerator& accelerator)
    : accelerator_(accelerator),
      cursor_(accelerator.fleet_ledger().total_energy()) {}

TenantCost& TenantBilling::row(const std::string& tenant) {
  TenantCost& row = rows_[tenant];
  if (row.tenant.empty()) row.tenant = tenant;
  return row;
}

double TenantBilling::take_energy() {
  const double delta = accelerator_.fleet_ledger().total_energy() - cursor_;
  cursor_ += delta;
  return delta;
}

void TenantBilling::charge(const TenantShares& shares,
                           std::size_t TenantCost::*units,
                           const BatchDispatch& cost,
                           telemetry::MetricsRegistry* metrics,
                           const std::string& model) {
  const double energy = take_energy();
  std::size_t weight_sum = 0;
  for (const auto& [tenant, count] : shares) weight_sum += count;
  const auto pass_split = split_exact(cost.passes, shares, weight_sum);
  const auto warm_split = split_exact(cost.warm_passes, shares, weight_sum);
  for (const auto& [tenant, count] : shares) {
    const double fraction =
        static_cast<double>(count) / static_cast<double>(weight_sum);
    const double service_share = static_cast<double>(count) * cost.latency;
    const double busy_share = cost.busy * fraction;
    const double energy_share = energy * fraction;
    TenantCost& billed = row(tenant);
    billed.*units += count;
    ++billed.batches;
    billed.passes += pass_split.at(tenant);
    billed.warm_passes += warm_split.at(tenant);
    billed.service_seconds += service_share;
    billed.busy_seconds += busy_share;
    billed.energy_joules += energy_share;
    if (metrics == nullptr) continue;
    const telemetry::LabelSet labels = {{"tenant", tenant}, {"model", model}};
    metrics
        ->counter("serve_tenant_requests_total", labels,
                  "completed requests per tenant x model")
        .inc(static_cast<double>(count));
    metrics
        ->counter("serve_tenant_passes_total", labels,
                  "attributed weight-tile residencies")
        .inc(static_cast<double>(pass_split.at(tenant)));
    metrics
        ->counter("serve_tenant_warm_passes_total", labels,
                  "attributed reload-free residencies")
        .inc(static_cast<double>(warm_split.at(tenant)));
    metrics
        ->counter("serve_tenant_service_seconds_total", labels,
                  "attributed service latency [s]")
        .inc(service_share);
    metrics
        ->counter("serve_tenant_busy_seconds_total", labels,
                  "attributed core-busy time [s]")
        .inc(busy_share);
    metrics
        ->counter("serve_tenant_energy_joules_total", labels,
                  "attributed fleet ledger energy [J]")
        .inc(energy_share);
  }
}

TenantCost TenantBilling::close_rows(std::vector<TenantCost>& rows) {
  // Ledger energy charged outside every billed event (there is normally
  // none) is fleet overhead: billing it keeps attribution exhaustive.
  const double unattributed = take_energy();
  if (unattributed != 0.0) {
    row(TenantCost::kFleetTenant).energy_joules += unattributed;
  }
  TenantCost total;
  rows.reserve(rows.size() + rows_.size());
  for (auto& [tenant, billed] : rows_) {
    total.requests += billed.requests;
    total.batches += billed.batches;
    total.passes += billed.passes;
    total.warm_passes += billed.warm_passes;
    total.service_seconds += billed.service_seconds;
    total.busy_seconds += billed.busy_seconds;
    total.energy_joules += billed.energy_joules;
    total.recalibrations += billed.recalibrations;
    total.recalibration_seconds += billed.recalibration_seconds;
    total.probes += billed.probes;
    total.probe_seconds += billed.probe_seconds;
    total.faults += billed.faults;
    total.fault_seconds += billed.fault_seconds;
    total.shed_requests += billed.shed_requests;
    total.tokens += billed.tokens;
    total.kv_row_seconds += billed.kv_row_seconds;
    total.kv_evicted_rows += billed.kv_evicted_rows;
    total.preemptions += billed.preemptions;
    rows.push_back(std::move(billed));
  }
  return total;
}

}  // namespace ptc::serve
