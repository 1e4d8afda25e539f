#ifndef PTC_CIRCUIT_ENERGY_HPP
#define PTC_CIRCUIT_ENERGY_HPP

#include <map>
#include <string>
#include <utility>
#include <vector>

/// Per-category energy/power accounting.  Every block of the tensor core
/// (lasers, pSRAM drivers, TIAs, ADC channels, decoder, clocking) books its
/// consumption here so the Sec. IV-D roll-up (4.10 TOPS @ 3.02 TOPS/W) is a
/// sum of explicit, auditable entries rather than a single magic number.
namespace ptc::circuit {

class EnergyLedger {
 public:
  /// Books a one-off energy amount [J] under a category.
  void add_energy(const std::string& category, double joules);

  /// The running total [J] a category books into, created at 0 if unknown.
  /// Adding amounts to it in order sums exactly as add_energy does, without
  /// a lookup per amount; the caller keeps amounts >= 0.  The reference
  /// stays valid until reset().
  double& energy_slot(const std::string& category) {
    return energies_[category];
  }

  /// Registers a continuously-drawn static power [W]; repeated calls
  /// accumulate.
  void add_static_power(const std::string& category, double watts);

  /// Converts all registered static powers into energy over `dt` seconds.
  void accrue_static(double dt);

  /// Energy booked under a category so far [J] (0 if unknown).
  double energy(const std::string& category) const;

  /// Sum of all booked energies [J].
  double total_energy() const;

  /// Registered static power for a category [W] (0 if unknown).
  double static_power(const std::string& category) const;

  /// Sum of all registered static powers [W].
  double total_static_power() const;

  struct Entry {
    std::string category;
    double energy;
    double static_power;
  };

  /// All categories sorted by name.
  std::vector<Entry> entries() const;

  void reset();

 private:
  /// (energy slot, watts) per static-power category in map order, so
  /// accrue_static adds watts * dt without string-keyed lookups.  Map nodes
  /// never move, so the slots stay valid until the static powers change or
  /// the ledger is reset.  A copied cache would point into the source's
  /// maps (and a moved-from one into the destination's), so a copied,
  /// moved or assigned ledger starts without a cache and a moved-from one
  /// drops its own.
  struct StaticSlots {
    std::vector<std::pair<double*, double>> slots;
    bool valid = false;

    StaticSlots() = default;
    StaticSlots(const StaticSlots&) {}
    StaticSlots(StaticSlots&& other) noexcept { other.clear(); }
    StaticSlots& operator=(const StaticSlots&) {
      clear();
      return *this;
    }
    StaticSlots& operator=(StaticSlots&& other) noexcept {
      clear();
      other.clear();
      return *this;
    }
    void clear() {
      slots.clear();
      valid = false;
    }
  };

  std::map<std::string, double> energies_;
  std::map<std::string, double> static_powers_;
  StaticSlots static_slots_;
};

}  // namespace ptc::circuit

#endif  // PTC_CIRCUIT_ENERGY_HPP
