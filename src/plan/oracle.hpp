// The "optimal programmer-directed" baseline (§V).
//
// The paper's comparison point is a C programmer who exhaustively tries all
// reasonable combinations of single-entry-single-exit code regions on the
// CSD (with the CSD fully dedicated) and keeps the combination with the
// shortest measured end-to-end latency.  The oracle reproduces that: one
// functional reference run measures every line's compute and the true size
// of every line output, then every one of the 2^L placements is replayed
// timing-only from those sizes and the fastest wins.
#pragma once

#include <cstdint>

#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "runtime/engine.hpp"
#include "system/model.hpp"

namespace isp::plan {

struct OracleResult {
  ir::Plan best;              // carries true (measured) per-line estimates
  Seconds best_latency;       // measured end-to-end of the winner
  Seconds host_only_latency;  // the no-ISP C baseline latency
  std::uint64_t combinations_evaluated = 0;
};

struct OracleOptions {
  /// Engine options used for every evaluation (availability etc.).  The
  /// paper's programmer optimises for a fully dedicated CSD.
  runtime::EngineOptions engine;
  /// Cap on the exhaustive space (defensive; 2^L for L lines).
  std::uint32_t max_lines = 20;
};

/// True per-line estimates from one functional host-only reference run:
/// measured compute, measured volumes — what a careful programmer's profiler
/// would report.
[[nodiscard]] std::vector<ir::LineEstimate> measure_true_estimates(
    system::SystemModel& system, const ir::Program& program);

[[nodiscard]] OracleResult exhaustive_oracle(system::SystemModel& system,
                                             const ir::Program& program,
                                             OracleOptions options = {});

}  // namespace isp::plan
