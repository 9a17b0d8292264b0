// ActiveRuntime: the full ActivePy pipeline (Figure 3).
//
//   sample → fit/extrapolate → Algorithm-1 assignment → code generation →
//   execution with monitoring and dynamic migration.
//
// The programmer hands over an unannotated Program; everything else —
// including whether the CSD is used at all — is the runtime's decision.
#pragma once

#include "codegen/exec_mode.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "plan/assignment.hpp"
#include "plan/device_factor.hpp"
#include "plan/estimates.hpp"
#include "profile/sampler.hpp"
#include "runtime/engine.hpp"
#include "system/model.hpp"

namespace isp::runtime {

enum class DeviceFactorSource {
  PerformanceCounters,  // query the CSD's counters (§III-A option 1)
  CalibrationKernel,    // run a sample program on both units (option 2)
};

struct RunConfig {
  profile::SamplerConfig sampler;
  codegen::ExecMode mode = codegen::ExecMode::CompiledNoCopy;
  DeviceFactorSource factor_source = DeviceFactorSource::PerformanceCounters;
  EngineOptions engine;  // availability, contention, monitoring, migration
  /// Reuse the plan (and estimates) of a previous run of the same program:
  /// later dynamic instances skip the sampling phase entirely and go
  /// straight to execution — the runtime monitor still guards the stale
  /// decisions at run time.  Must carry estimates (plan.estimate non-empty)
  /// for monitoring to work.
  const ir::Plan* reuse_plan = nullptr;
};

struct RunResult {
  /// The raw-input execution.  A functional run's report.output_volumes is
  /// the measured table timing-only replays of the program size from.
  ExecutionReport report;
  ir::Plan plan;                 // what Algorithm 1 decided
  profile::SampleSet samples;    // sampling-phase statistics
  plan::EstimateDiagnostics diagnostics;
  Seconds sampling_overhead;     // virtual time spent on sample runs
  Seconds projected_host;        // planner's T_host
  Seconds projected_csd;         // planner's T_csd
  double device_factor = 1.0;

  /// Complete end-to-end latency as the paper reports it: sampling +
  /// code generation + execution.
  [[nodiscard]] Seconds end_to_end() const {
    return sampling_overhead + report.total;
  }
};

class ActiveRuntime {
 public:
  explicit ActiveRuntime(system::SystemModel& system) : system_(&system) {}

  [[nodiscard]] RunResult run(const ir::Program& program,
                              const RunConfig& config = {});

 private:
  system::SystemModel* system_;
};

}  // namespace isp::runtime
