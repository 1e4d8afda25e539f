#ifndef PTC_RUNTIME_TILE_SCHEDULER_HPP
#define PTC_RUNTIME_TILE_SCHEDULER_HPP

#include <cstddef>
#include <vector>

/// Static dispatch of matmul tile passes across a pool of tensor cores —
/// the simulation-side analogue of a multi-board DAC controller fanning one
/// command stream out to many analog units.
namespace ptc::runtime {

/// Modeled hardware cost of one tile pass on one core.
struct PassCost {
  double reload_s = 0.0;   ///< pSRAM reload latency (cols * bits / 20 GHz)
  double compute_s = 0.0;  ///< batch streaming time (samples / sample rate)
  double total() const { return reload_s + compute_s; }
};

/// Modeled fleet cost of one serving batch (see Accelerator::batch_cost).
struct BatchCost {
  double latency = 0.0;      ///< fleet makespan for the batch [s]
  double busy = 0.0;         ///< summed per-core busy time [s]
  std::size_t reloads = 0;   ///< pSRAM reloads actually paid
  double reload_time = 0.0;  ///< modeled reload latency paid [s]
};

/// The passes assigned to one core, in execution order.
struct CoreShard {
  std::size_t core = 0;
  std::vector<std::size_t> pass_indices;  ///< indices into TilePlan::passes
  double busy_time = 0.0;                 ///< modeled hardware time [s]
};

/// A complete static schedule: every pass appears in exactly one shard.
struct Schedule {
  std::vector<CoreShard> shards;

  /// Modeled fleet wall time: the busiest core bounds the matmul latency.
  double makespan() const;
  /// Sum of per-core busy times (total hardware time consumed).
  double total_busy() const;
};

/// Cuts a matmul's tile passes across `cores` tensor cores.
///
/// Every pass already groups the full input batch with its weight-tile
/// residency (one reload amortized over all samples — see nn/tiling.hpp),
/// so the scheduler's job reduces to balancing pass costs: a deterministic
/// longest-processing-time greedy that assigns each pass, in canonical
/// order, to the least-loaded core (ties break toward the lowest index).
/// The assignment is a pure function of its arguments — host thread timing
/// never influences which core computes which tile.
class TileScheduler {
 public:
  /// Fills `schedule` (one shard per core, its storage reused) with
  /// `passes` passes.  The first passes - warm_passes are cold and cost
  /// cost.total(); the rest are warm — their weight tile is still resident,
  /// as in the serve layer's batch costing — and cost only cost.compute_s.
  /// A fleet matmul's passes are all cold, so all cost the same and the
  /// greedy degenerates to round-robin.
  static void assign(std::size_t passes, std::size_t warm_passes,
                     const PassCost& cost, std::size_t cores,
                     Schedule& schedule);
};

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_TILE_SCHEDULER_HPP
