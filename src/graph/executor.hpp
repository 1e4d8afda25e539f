#ifndef PTC_GRAPH_EXECUTOR_HPP
#define PTC_GRAPH_EXECUTOR_HPP

#include "common/linalg.hpp"
#include "graph/graph.hpp"
#include "nn/backend.hpp"

/// Interprets a graph's schedule against any nn::MatmulBackend: the float
/// reference, a single photonic core, or the multi-core accelerator fleet
/// (runtime::AcceleratorBackend).  One value passes from step to step:
/// matmul and conv steps execute on the backend; maxpool and unfused
/// elementwise steps run on the host.  The step order is the schedule
/// order, the epilogue order is the fusion order, and every arithmetic loop
/// matches the nn/ layer implementations — which is why an Mlp run
/// through its graph reproduces its direct backend path bit for bit.
namespace ptc::graph {

/// Runs a batch of flattened input rows (batch x input_size) through the
/// schedule and returns the output values (batch x output_size).  Image
/// inputs are row-major with channel innermost, matching Shape's layout.
Matrix run(const Graph& graph, nn::MatmulBackend& backend, const Matrix& x);

}  // namespace ptc::graph

#endif  // PTC_GRAPH_EXECUTOR_HPP
