// The execution engine: runs a lowered program on a SystemModel under
// virtual time, producing an ExecutionReport.
//
// This is the one timing path in the repository — the sampling-phase
// profiler, the exhaustive programmer-directed oracle, the static C
// baselines and full ActiveCpp runs all execute here, differing only in
// options.  The walk is sequential (lines are data-dependent, as in the
// paper's single-entry-single-exit regions); concurrency with device-side
// contention is expressed through availability schedules.
//
// Per line the engine charges, in order:
//   1. input residency: stored data at the placement-side bandwidth, then
//      inter-side intermediates over the host link (BAR penalty for objects
//      a migration left behind);
//   2. control: call-queue invocation when entering a CSD group, interpreter
//      dispatch, code-image distribution before the first CSD call;
//   3. language-runtime marshalling copies (mode-dependent);
//   4. compute, in chunks, through the CSE availability schedule; each CSD
//      chunk posts a status update and feeds the monitor;
//   5. outputs: a functional run executes the real kernel and sizes each
//      output from the payload it produced; a timing-only replay runs no
//      kernel and takes each output's size from a measured OutputVolumes
//      table (exact), or from the plan's estimates when the caller has no
//      functional run.  Then output bookkeeping.
// Migration takes effect at the end of the current line, exactly as §III-D
// prescribes.
#pragma once

#include <optional>

#include "codegen/lowering.hpp"
#include "fault/fault.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"
#include "runtime/monitor.hpp"
#include "runtime/report.hpp"
#include "sim/availability.hpp"
#include "system/model.hpp"

namespace isp::obs {
class MetricsRegistry;
}

namespace isp::runtime {

/// Stress the CSE after the ISP task reaches a progress fraction — the
/// methodology of Figure 5 ("right after each application's ISP tasks make
/// 50% of their progress").
struct ContentionTrigger {
  bool enabled = false;
  double at_csd_progress = 0.5;  // fraction of planned CSD work completed
  double availability = 1.0;     // CSE fraction left afterwards
};

struct EngineOptions {
  codegen::RuntimeOverheadModel overhead;
  /// Execute the real kernels (functional results).  Off for timing-only
  /// replays: the run starts from a payload-free store
  /// (Program::make_virtual_store) and sizes every line output from
  /// `output_volumes`, or, when that is null, from the plan's estimated
  /// d_out — so a timing-only run needs one or the other.
  bool run_kernels = true;
  /// Measured output volumes (ExecutionReport::output_volumes of a
  /// functional run of the same program).  A timing-only replay sized from
  /// this table reports exactly what the functional run would have.
  const OutputVolumes* output_volumes = nullptr;
  /// Post status updates and run the monitor on CSD lines.
  bool monitoring = true;
  /// Act on the monitor's advice (off = "ActivePy w/o migration").
  bool migration = true;
  /// Initial CSE availability (Figure 2's x-axis).
  sim::AvailabilitySchedule cse_availability;
  /// Host CPU availability: contention from other applications on the host
  /// side (§II-B(3) names both directions of resource contention).
  sim::AvailabilitySchedule host_availability;
  ContentionTrigger contention;
  MonitorConfig monitor;
  /// Live-variable block saved on migration (locals; shared-memory objects
  /// are accounted separately by residency).
  Bytes migration_state_bytes = Bytes{256 * 1024};
  /// Deterministic fault injection across the device stack.  With every
  /// site at rate zero (the default) no injector is created and the engine
  /// takes exactly the fault-free code paths — timing is bit-for-bit
  /// identical to a build without the fault layer.
  fault::FaultConfig fault;
  /// Drive the device's storage backend even without PowerLoss armed:
  /// datasets mount as live mappings, persisted outputs go through
  /// write()/zone-append bookkeeping, and the backend-internal traffic the
  /// run triggers (FTL GC relocations / ZNS copy-forward, metadata
  /// programs, erases) is charged to virtual time as a device-side reclaim
  /// stall — the §II-B(3) contention made explicit per run.  Off by
  /// default: the fault-free timing path is bit-for-bit unchanged.
  bool drive_storage = false;
  /// Observability sink (optional).  When set, the engine folds per-line
  /// placements, migrations, monitor/status-update traffic, fault-site
  /// counters, and the device FTL's GC/journal/write-amplification stats
  /// into the registry at the end of the run under "engine.*", "monitor.*",
  /// "fault.*" and "ftl.*".  Recording charges no virtual time: the
  /// ExecutionReport is bit-for-bit identical with or without a sink.
  obs::MetricsRegistry* metrics = nullptr;
};

class Engine {
 public:
  explicit Engine(system::SystemModel& system) : system_(&system) {}

  /// Run `program` under `plan`/`lowered`.  A fresh ObjectStore is created
  /// from the program datasets unless `store` is provided (the sampler
  /// passes sampled stores).
  ExecutionReport run(const ir::Program& program, const ir::Plan& plan,
                      const codegen::LoweredProgram& lowered,
                      const EngineOptions& options,
                      ir::ObjectStore* store = nullptr);

 private:
  system::SystemModel* system_;
};

/// Convenience wrapper: lower with `mode` and run.
ExecutionReport run_program(system::SystemModel& system,
                            const ir::Program& program, const ir::Plan& plan,
                            codegen::ExecMode mode,
                            const EngineOptions& options,
                            ir::ObjectStore* store = nullptr);

}  // namespace isp::runtime
