#ifndef PTC_SERVE_ATTRIBUTION_HPP
#define PTC_SERVE_ATTRIBUTION_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "runtime/accelerator.hpp"
#include "serve/latency_stats.hpp"
#include "serve/model_registry.hpp"
#include "telemetry/metrics.hpp"

/// Exact cost attribution shared by both serving loops (Server::run's
/// one-shot batches and its token overload's decode steps).  Both bill
/// through one TenantBilling, which is what makes their conservation
/// contracts (tenant rows sum to the fleet totals bit-exactly) the same
/// contract.
namespace ptc::serve {

/// Work units one tenant contributed to the current batch/step — the
/// attribution weights.  std::map iteration gives sorted-tenant order,
/// which fixes the split's tie-breaks and the summation order
/// deterministically.
using TenantShares = std::map<std::string, std::size_t>;

/// Splits the integer quantity `total` across tenants proportionally to
/// their share counts, exactly: largest-remainder apportionment, remainder
/// ties broken by tenant order.  `weight_sum` is the sum of all share
/// counts.  The shares sum to `total` — no quantity is created or dropped —
/// which is what keeps integer cost conservation bit-exact by construction.
std::map<std::string, std::size_t> split_exact(std::size_t total,
                                               const TenantShares& shares,
                                               std::size_t weight_sum);

/// The row billed to `tenant` among a report's tenant_costs (nullptr when
/// the run billed it nothing).
const TenantCost* tenant_cost(const std::vector<TenantCost>& rows,
                              const std::string& tenant);

/// One run's tenant ledger: the billing rows, a cursor over the fleet
/// energy ledger that hands every charge exactly the energy delta it
/// caused, and the sorted close the report's fleet totals derive from.
class TenantBilling {
 public:
  /// Starts the ledger cursor at the fleet's current total energy.
  explicit TenantBilling(const runtime::Accelerator& accelerator);

  /// The tenant's row, created on first use.
  TenantCost& row(const std::string& tenant);

  /// Fleet ledger energy charged since the previous take [J]; advances the
  /// cursor by exactly that delta.
  double take_energy();

  /// Bills one dispatched batch or decode step, plus the ledger energy it
  /// charged, to the tenants in `shares` (work units per tenant: requests
  /// or tokens, credited to the `units` field).  Integer passes split
  /// exactly; busy time and energy split by the unit fraction, which a
  /// single-tenant step takes whole, bitwise; service latency is per unit,
  /// so a tenant's share is exactly units * latency.  With `metrics`
  /// attached, every share also lands in the serve_tenant_*_total
  /// families labeled {tenant, model}.
  void charge(const TenantShares& shares, std::size_t TenantCost::*units,
              const BatchDispatch& cost, telemetry::MetricsRegistry* metrics,
              const std::string& model);

  /// Closes the run into `report`, which holds the loop's records and the
  /// passes it dispatched: bills any ledger energy no charge claimed to the
  /// fleet row, appends the rows to tenant_costs in sorted-tenant order,
  /// sets completed, busy, energy and `total` (over the records), and
  /// returns the rows' field-wise sum for each report's own totals.  The
  /// checks catch a cost path that forgot to attribute.
  template <typename Record>
  TenantCost close(RunReport<Record>& report) {
    const TenantCost total = close_rows(report.tenant_costs);
    expects(total.requests == report.requests.size(),
            "attributed requests must equal completions");
    expects(total.passes == report.passes,
            "attributed passes must conserve the fleet total");
    expects(total.warm_passes == report.warm_passes,
            "attributed warm passes must conserve the fleet total");
    report.completed = total.requests;
    report.busy = total.busy_seconds;
    report.energy = total.energy_joules;
    report.total = report.summarize(&Record::total);
    return total;
  }

 private:
  TenantCost close_rows(std::vector<TenantCost>& rows);

  const runtime::Accelerator& accelerator_;
  double cursor_;
  std::map<std::string, TenantCost> rows_;
};

}  // namespace ptc::serve

#endif  // PTC_SERVE_ATTRIBUTION_HPP
