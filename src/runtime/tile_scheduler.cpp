#include "runtime/tile_scheduler.hpp"

#include <algorithm>

#include "common/expects.hpp"

namespace ptc::runtime {

double Schedule::makespan() const {
  double worst = 0.0;
  for (const CoreShard& shard : shards) {
    worst = std::max(worst, shard.busy_time);
  }
  return worst;
}

double Schedule::total_busy() const {
  double sum = 0.0;
  for (const CoreShard& shard : shards) sum += shard.busy_time;
  return sum;
}

void TileScheduler::assign(std::size_t passes, std::size_t warm_passes,
                           const PassCost& cost, std::size_t cores,
                           Schedule& schedule) {
  expects(cores >= 1, "schedule needs at least one core");
  expects(warm_passes <= passes, "warm passes cannot exceed total passes");
  expects(cost.reload_s >= 0.0 && cost.compute_s >= 0.0,
          "pass cost must be non-negative");

  schedule.shards.resize(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    CoreShard& shard = schedule.shards[c];
    shard.core = c;
    shard.pass_indices.clear();
    shard.busy_time = 0.0;
  }

  const std::size_t cold = passes - warm_passes;
  for (std::size_t i = 0; i < passes; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < cores; ++c) {
      if (schedule.shards[c].busy_time < schedule.shards[best].busy_time) {
        best = c;
      }
    }
    schedule.shards[best].pass_indices.push_back(i);
    schedule.shards[best].busy_time +=
        i < cold ? cost.total() : cost.compute_s;
  }
}

}  // namespace ptc::runtime
