#include "graph/compile.hpp"

#include <sstream>
#include <utility>

#include "common/expects.hpp"
#include "nn/tiling.hpp"

namespace ptc::graph {

std::size_t Step::rows_per_sample() const {
  if (kind != Kind::kConv2d) return 1;
  return (in_shape.height() - kernel + 1) * (in_shape.width() - kernel + 1);
}

CompiledGraph compile(const Graph& g) {
  const std::vector<Node>& nodes = g.nodes();
  expects(!nodes.empty() && nodes.front().op == Op::kInput,
          "graph must start with an input node");

  // Dead-code elimination: only the chain the output reads back along
  // inputs to the graph input lowers.
  std::vector<std::size_t> chain;
  for (std::size_t id = g.output_id(); id != 0; id = nodes[id].input) {
    chain.push_back(id);
  }

  CompiledGraph cg;
  cg.input_shape = g.input_shape();
  cg.output_shape = g.output_shape();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Node& n = nodes[*it];
    // bias, relu and flatten fuse into the step before them.
    const bool fuses =
        n.op == Op::kBias || n.op == Op::kRelu || n.op == Op::kFlatten;
    if (!fuses || cg.steps.empty()) {
      // A flatten of the graph input only rewrites the input's shape.
      if (n.op == Op::kFlatten) continue;
      Step step;
      step.in_shape = nodes[n.input].shape;
      cg.steps.push_back(std::move(step));
    }
    Step& step = cg.steps.back();
    step.out_shape = n.shape;
    switch (n.op) {
      case Op::kMatmul:
      case Op::kConv2d:
        step.kind = n.op == Op::kMatmul ? Step::Kind::kMatmul
                                        : Step::Kind::kConv2d;
        step.weights = n.weights;
        step.kernel = n.kernel;
        step.label = n.op == Op::kMatmul
                         ? "matmul " + std::to_string(n.weights.rows()) +
                               "x" + std::to_string(n.weights.cols())
                         : "conv2d " + std::to_string(n.kernel) + "x" +
                               std::to_string(n.kernel) + " -> " +
                               std::to_string(n.weights.cols()) + "ch";
        // One plan cache per weight tensor; filled lazily on first
        // execution (per backend geometry) and shared by every copy of
        // this schedule.
        step.plan_cache = std::make_shared<nn::WeightPlanCache>();
        break;
      case Op::kMaxPool:
        step.kind = Step::Kind::kMaxPool;
        step.pool = n.pool;
        step.label = "maxpool " + std::to_string(n.pool) + "x" +
                     std::to_string(n.pool);
        break;
      case Op::kBias:
      case Op::kRelu:
        step.epilogue.push_back(
            {n.op == Op::kBias ? EpilogueOp::Kind::kBias
                               : EpilogueOp::Kind::kRelu,
             n.bias});
        step.label += (step.label.empty() ? "" : " +") +
                      std::string(op_name(n.op));
        break;
      case Op::kFlatten:  // metadata only: out_shape absorbed it
        break;
      case Op::kInput:
        ensures(false, "unreachable op in lowering");
    }
  }
  return cg;
}

PassProfile CompiledGraph::pass_profile(std::size_t tile_m, std::size_t tile_k,
                                        bool differential) const {
  expects(tile_m >= 1 && tile_k >= 1, "tile geometry must be positive");
  PassProfile profile;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    if (!step.on_accelerator()) continue;
    const std::size_t tiles =
        nn::tile_passes(step.weights.rows(), step.weights.cols(), tile_m,
                        tile_k, differential);
    profile.steps.push_back({i, tiles, step.rows_per_sample()});
    profile.total_passes += tiles;
  }
  return profile;
}

std::string CompiledGraph::schedule_dump(std::size_t tile_m,
                                         std::size_t tile_k,
                                         bool differential) const {
  const PassProfile profile = pass_profile(tile_m, tile_k, differential);
  std::ostringstream out;
  std::size_t next_accel = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    out << "step " << i << ": " << step.label;
    if (step.on_accelerator()) {
      const StepPasses& sp = profile.steps[next_accel++];
      out << " | weights " << step.weights.rows() << "x"
          << step.weights.cols() << " | " << sp.passes << " tile pass"
          << (sp.passes == 1 ? "" : "es") << " | " << sp.rows_per_sample
          << " row" << (sp.rows_per_sample == 1 ? "" : "s") << "/sample";
    } else {
      out << " | host";
    }
    out << " | " << step.in_shape.str() << " -> " << step.out_shape.str()
        << "\n";
  }
  out << "total: " << profile.total_passes
      << " weight-tile passes per dispatch\n";
  return out.str();
}

}  // namespace ptc::graph
