#include "graph/compile.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "common/expects.hpp"
#include "nn/tiling.hpp"

namespace ptc::graph {
namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

}  // namespace

std::size_t Step::rows_per_sample() const {
  std::size_t rows = 1;
  if (kind == Kind::kConv2d) {
    rows = (in_shape.height() - kernel + 1) * (in_shape.width() - kernel + 1);
  }
  if (on_accelerator() && signed_input) rows *= 2;
  return rows;
}

CompiledGraph compile(const Graph& g) {
  const std::vector<Node>& nodes = g.nodes();
  expects(!nodes.empty() && nodes.front().op == Op::kInput,
          "graph must start with an input node");
  const std::size_t output = g.output_id();

  // Dead-code elimination: only nodes reachable from the output lower.
  std::vector<bool> live(nodes.size(), false);
  std::vector<std::size_t> stack{output};
  while (!stack.empty()) {
    const std::size_t id = stack.back();
    stack.pop_back();
    if (live[id]) continue;
    live[id] = true;
    for (std::size_t in : nodes[id].inputs) stack.push_back(in);
  }

  // Consumer lists over live nodes (duplicated per edge, so a node feeding
  // both sides of an `add` counts twice and stays materialized).
  std::vector<std::vector<std::size_t>> consumers(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!live[id]) continue;
    for (std::size_t in : nodes[id].inputs) consumers[in].push_back(id);
  }

  // Non-negativity lattice: which values are provably >= 0 everywhere, and
  // can therefore stream straight onto the intensity-encoded photonic
  // input.  Everything else (projection and bias results) marks its
  // consuming accelerator step signed_input, which the executor serves with
  // a differential x+ / x- double-stream.  The lattice keeps relu-separated
  // graphs (inputs, relu chains, pooling) on the single-stream path.
  std::vector<bool> nonneg(nodes.size(), false);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const Node& n = nodes[id];
    switch (n.op) {
      case Op::kInput:  // intensity-encoded by the Request contract
      case Op::kRelu:
      case Op::kSoftmax:
        nonneg[id] = true;
        break;
      case Op::kMaxPool:
      case Op::kFlatten:
        nonneg[id] = nonneg[n.inputs[0]];
        break;
      case Op::kAdd:
        nonneg[id] = nonneg[n.inputs[0]] && nonneg[n.inputs[1]];
        break;
      default:  // matmul, conv, bias
        nonneg[id] = false;
        break;
    }
  }

  CompiledGraph cg;
  cg.input_shape = nodes.front().shape;
  cg.output_shape = nodes[output].shape;

  std::vector<std::size_t> slot_of(nodes.size(), kNoSlot);
  std::vector<bool> emitted(nodes.size(), false);
  slot_of[0] = 0;
  emitted[0] = true;
  cg.num_slots = 1;

  // The sole consumer of `tail` if it can join the current step's epilogue.
  const auto fusable_consumer = [&](std::size_t tail) -> std::size_t {
    if (tail == output || consumers[tail].size() != 1) return kNoNode;
    const std::size_t c = consumers[tail].front();
    switch (nodes[c].op) {
      case Op::kRelu:
      case Op::kBias:
      case Op::kSoftmax:
      case Op::kFlatten:
        return c;
      case Op::kAdd: {
        // Residuals fuse when the other branch is already materialized.
        const std::size_t other = nodes[c].inputs[0] == tail
                                      ? nodes[c].inputs[1]
                                      : nodes[c].inputs[0];
        return slot_of[other] != kNoSlot ? c : kNoNode;
      }
      default:
        return kNoNode;
    }
  };

  for (std::size_t id = 1; id < nodes.size(); ++id) {
    if (!live[id] || emitted[id]) continue;
    const Node& n = nodes[id];

    if (n.op == Op::kFlatten) {
      // Pure metadata: the value is already stored flat.
      slot_of[id] = slot_of[n.inputs[0]];
      emitted[id] = true;
      continue;
    }

    Step step;
    step.input_slot = slot_of[n.inputs[0]];
    step.in_shape = nodes[n.inputs[0]].shape;
    std::ostringstream label;
    // Appends elementwise node `e` to the epilogue, labeled `prefix` + its
    // op name; `residual_slot` is an add's other operand.
    const auto lower_elementwise = [&step, &label](const Node& e,
                                                   const char* prefix,
                                                   std::size_t residual_slot) {
      EpilogueOp op;
      switch (e.op) {
        case Op::kRelu: op.kind = EpilogueOp::Kind::kRelu; break;
        case Op::kBias:
          op.kind = EpilogueOp::Kind::kBias;
          op.bias = e.bias;
          break;
        case Op::kSoftmax: op.kind = EpilogueOp::Kind::kSoftmax; break;
        case Op::kAdd:
          op.kind = EpilogueOp::Kind::kResidual;
          op.residual_slot = residual_slot;
          break;
        default:
          ensures(false, "unreachable elementwise op");
      }
      step.epilogue.push_back(std::move(op));
      label << prefix << op_name(e.op);
    };
    switch (n.op) {
      case Op::kMatmul:
        step.kind = Step::Kind::kMatmul;
        step.weights = n.weights;
        step.signed_input = !nonneg[n.inputs[0]];
        label << "matmul " << n.weights.rows() << "x" << n.weights.cols();
        break;
      case Op::kConv2d:
        step.kind = Step::Kind::kConv2d;
        step.weights = n.weights;
        step.kernel = n.kernel;
        step.signed_input = !nonneg[n.inputs[0]];
        label << "conv2d " << n.kernel << "x" << n.kernel << " -> "
              << n.weights.cols() << "ch";
        break;
      case Op::kMaxPool:
        step.kind = Step::Kind::kMaxPool;
        step.pool = n.pool;
        label << "maxpool " << n.pool << "x" << n.pool;
        break;
      case Op::kRelu:
      case Op::kBias:
      case Op::kSoftmax:
        lower_elementwise(n, "", kNoSlot);
        break;
      case Op::kAdd:
        lower_elementwise(n, "", slot_of[n.inputs[1]]);
        break;
      case Op::kInput:
      case Op::kFlatten:
        ensures(false, "unreachable op in lowering");
    }
    emitted[id] = true;

    // Fuse the sole-consumer elementwise chain into this step's epilogue.
    std::size_t tail = id;
    for (std::size_t c = fusable_consumer(tail); c != kNoNode;
         c = fusable_consumer(tail)) {
      // A fused flatten is metadata only: the tail's shape absorbs it.
      const Node& cn = nodes[c];
      if (cn.op == Op::kAdd) {
        const std::size_t other =
            cn.inputs[0] == tail ? cn.inputs[1] : cn.inputs[0];
        lower_elementwise(cn, " +", slot_of[other]);
      } else if (cn.op != Op::kFlatten) {
        lower_elementwise(cn, " +", kNoSlot);
      }
      emitted[c] = true;
      tail = c;
    }

    step.out_shape = nodes[tail].shape;
    step.output_slot = cg.num_slots++;
    slot_of[tail] = step.output_slot;
    step.label = label.str();
    if (step.on_accelerator()) {
      // One plan cache per weight tensor; filled lazily on first execution
      // (per backend geometry) and shared by every copy of this schedule.
      step.plan_cache = std::make_shared<nn::WeightPlanCache>();
    }
    cg.steps.push_back(std::move(step));
  }

  ensures(slot_of[output] != kNoSlot, "graph output was never materialized");
  cg.output_slot = slot_of[output];
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
