#include "circuit/energy.hpp"

#include "common/expects.hpp"

namespace ptc::circuit {

void EnergyLedger::add_energy(const std::string& category, double joules) {
  expects(joules >= 0.0, "energy must be >= 0");
  energies_[category] += joules;
}

void EnergyLedger::add_static_power(const std::string& category, double watts) {
  expects(watts >= 0.0, "power must be >= 0");
  static_powers_[category] += watts;
  static_slots_.clear();
}

void EnergyLedger::accrue_static(double dt) {
  expects(dt >= 0.0, "dt must be >= 0");
  if (!static_slots_.valid) {
    for (const auto& [category, watts] : static_powers_) {
      static_slots_.slots.emplace_back(&energies_[category], watts);
    }
    static_slots_.valid = true;
  }
  for (const auto& [slot, watts] : static_slots_.slots) *slot += watts * dt;
}

double EnergyLedger::energy(const std::string& category) const {
  const auto it = energies_.find(category);
  return it == energies_.end() ? 0.0 : it->second;
}

double EnergyLedger::total_energy() const {
  double sum = 0.0;
  for (const auto& [category, joules] : energies_) sum += joules;
  return sum;
}

double EnergyLedger::static_power(const std::string& category) const {
  const auto it = static_powers_.find(category);
  return it == static_powers_.end() ? 0.0 : it->second;
}

std::vector<EnergyLedger::Entry> EnergyLedger::entries() const {
  std::vector<Entry> out;
  for (const auto& [category, joules] : energies_) {
    out.push_back({category, joules, static_power(category)});
  }
  // Categories that only have static power registered (no energy yet).
  for (const auto& [category, watts] : static_powers_) {
    if (energies_.find(category) == energies_.end()) {
      out.push_back({category, 0.0, watts});
    }
  }
  return out;
}

void EnergyLedger::reset() {
  energies_.clear();
  static_powers_.clear();
  static_slots_.clear();
}

}  // namespace ptc::circuit
