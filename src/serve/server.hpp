// The multi-tenant serving loop: a stream of ActiveCpp jobs over a fleet.
//
// serve() multiplexes `total_jobs` arrivals from `tenants` weighted-fair
// tenants over a Fleet of CSDs plus host fallback lanes, in *fleet virtual
// time*:
//
//   1. Per job class (app × size), one up-front ActiveCpp pipeline run fixes
//      the class profile: the Algorithm-1 plan with its estimates, projected
//      host/CSD latencies, and the Equation-1 data volumes.  Profiles are
//      computed through exec::run_batch.
//   2. Arrivals are a seed-deterministic Poisson process at `offered_load`
//      jobs per virtual second; each arrival is admitted into its tenant's
//      bounded queue or rejected with StatusCode::Overloaded (backpressure —
//      rejections are typed and counted, never silent).
//   3. Dispatch runs in *waves* (the PR 3 pattern): a serial decision phase
//      claims at most one job per lane — weighted-fair pick, then placement
//      by Equation 1 under contention (queue wait + CSE availability + the
//      device's contended link share) across the unclaimed lanes — and only
//      then do worker threads execute the wave's already-scheduled engine
//      simulations through exec::run_batch.  Measured service times advance
//      the lane clocks before the next wave's decisions, so scheduling
//      decisions never depend on thread timing: the report is byte-identical
//      across `jobs` values.
//
// Every dispatched job is a full engine simulation on its own SystemModel
// (device CSE availability rebased to the dispatch instant, link bandwidth
// scaled to the contended share, per-job deterministic fault seed), so
// monitoring, migration, fault handling and power-loss recovery all behave
// exactly as they do in a single-job run.  The simulation is timing-only:
// no kernel runs and no payload is copied.  Each line output is sized from
// the output volumes the class's profiling run measured, which is exact
// because kernel outputs do not depend on placement, faults or backend.
//
// Hot path.  Each decision prices every candidate device lane with one fresh
// Equation-1 evaluation; the Fleet's incremental lane index answers the
// per-job "earliest start", "next free lane" and "devices busy after t"
// queries in O(log lanes).  The execution phase runs each distinct
// simulation once through the digest-verified engine-run memo cache
// (`sim_cache`), which is exact: reports are byte-identical with it off.
//
// Fleet failure domains (PR 6).  A CSD lane can die *permanently* at a
// seed-deterministic virtual-time instant (fault::Site::DeviceFailure rate,
// or an explicit kill schedule).  In-flight jobs on the dying lane are lost
// and re-enqueued at the head of their tenant queue with a bounded
// serve-layer retry budget; queued work re-prices over the surviving lanes;
// nothing is dropped silently — the conservation identity
//   admitted == completed + deadline_missed + retry_exhausted
//             + in_flight + queued
// is ISP_CHECKed at every snapshot row.  Placement is health-aware: each
// CSD lane carries a circuit breaker over an exponentially-decayed fault /
// migration score (see serve/breaker.hpp), and tenants may carry a per-job
// start-deadline SLO whose violations are typed (DeadlineExceeded at
// admission, deadline_missed in the dispatch wave).  All of it is virtual
// time bookkeeping in the serial decision/fold phases, so reports stay
// byte-identical across `jobs` values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/exec_mode.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "serve/admission.hpp"
#include "serve/breaker.hpp"
#include "serve/fleet.hpp"

namespace isp::serve {

/// A job class: one (application, size) pair sharing a cached profile.
struct JobClass {
  std::string app = "tpch-q6";
  double size_factor = 0.05;
  /// Persist the app's final outputs to flash: the last producing line is
  /// marked writes_storage and every dispatch drives the lane's storage
  /// backend for real (dataset mount, mapping updates, reclaim stalls) —
  /// the knob that makes FTL and ZNS lanes serve differently.  Off keeps
  /// the class byte-identical to its pre-backend behaviour.
  bool persist = false;
};

/// Observability knobs.  Everything here is bookkeeping in virtual time:
/// enabling or disabling instrumentation never changes a single scheduling
/// decision or service time (the outcome digest is identical either way —
/// asserted by serve_test and gated by bench/obs_overhead).
struct ObsOptions {
  /// Collect the metrics registry, snapshot series and per-job trace data.
  bool enabled = true;
  /// Virtual-time spacing of the snapshot rows.  Widened deterministically
  /// when makespan / interval would exceed max_snapshots.
  Seconds snapshot_interval{0.25};
  std::size_t max_snapshots = 256;
  /// Fault episodes kept per job for the fleet timeline (counters keep
  /// counting past the cap).
  std::size_t max_trace_faults_per_job = 8;
};

/// One scheduled permanent device failure: CSD lane `device` dies at fleet
/// virtual time `at` and never comes back.
struct KillDevice {
  std::size_t device = 0;
  SimTime at;
};

struct ServeConfig {
  FleetConfig fleet = FleetConfig::make(2);
  std::vector<TenantConfig> tenants = {TenantConfig{}, TenantConfig{}};
  std::vector<JobClass> job_classes = {JobClass{}};
  std::uint64_t total_jobs = 32;
  /// Mean arrivals per virtual second (Poisson, seed-deterministic).
  double offered_load = 1.0;
  std::uint64_t seed = 42;
  /// Worker threads for the simulation batches (never affects the report).
  unsigned jobs = 1;
  codegen::ExecMode mode = codegen::ExecMode::CompiledNoCopy;
  /// Fault rates applied to every dispatched job, each with its own derived
  /// deterministic seed.  A DeviceFailure rate here additionally arms a
  /// seed-deterministic first-arrival kill time per device (exponential,
  /// independent hash stream per device) — the chaos-sweep knob.
  fault::FaultConfig fault;
  /// Arm a single whole-device PowerLoss inside this job id's run (the
  /// "mid-sweep crash" regression knob); < 0 disables.
  std::int64_t power_loss_job = -1;
  /// Event boundaries the armed job survives before the power cut.
  std::uint64_t power_loss_after = 8;
  /// Explicit kill schedule (`--kill-device k@t`), min-folded per device
  /// with the DeviceFailure-rate schedule: the earliest kill wins.
  std::vector<KillDevice> kill_devices;
  /// Serve-layer re-dispatches a job lost to a device death may consume
  /// before it is abandoned as retry_exhausted (0 = no retries).
  std::uint32_t retry_budget = 2;
  /// Per-CSD-lane health circuit breaker (health-aware placement).
  BreakerConfig breaker;
  /// Digest-verified engine-run memo cache: a dispatch whose simulation
  /// inputs (class, lane kind, rebased availability, contended link share,
  /// derived fault seed) exactly match an already-run simulation reuses its
  /// result instead of re-running the engine.  Exact: reports, metrics and
  /// trace artifacts are byte-identical with it on or off (asserted in
  /// serve_test, gated in bench/serve_hotpath).
  bool sim_cache = true;
  /// Bound on distinct memoized engine runs (FIFO eviction, deterministic).
  std::size_t sim_cache_capacity = 512;
  ObsOptions obs;
};

/// One fault-handling episode, lifted to fleet virtual time for the
/// timeline (bounded per job by ObsOptions::max_trace_faults_per_job).
struct FaultEvent {
  fault::Site site = fault::Site::NvmeCommand;
  SimTime time;      // fleet virtual time (job-local time + dispatch start)
  Seconds penalty;
  bool exhausted = false;
};

/// One dispatch attempt lost to a device death: the lane served the job
/// over [start, end) and then died under it (`end` is the death instant).
struct LostAttempt {
  std::uint32_t lane = 0;
  SimTime start;
  SimTime end;
};

/// What happened to one offered job.
struct JobOutcome {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::uint32_t job_class = 0;
  SimTime arrival;
  bool rejected = false;  // Overloaded at admission; nothing below is set
  /// Typed DeadlineExceeded at admission: no lane could start the job
  /// before arrival + SLO.  Distinct from `rejected` (Overloaded).
  bool deadline_rejected = false;
  /// Admitted, but the deadline expired while the job waited in queue.
  bool deadline_missed = false;
  /// Admitted, then abandoned after the serve-layer retry budget ran out.
  bool retry_exhausted = false;
  /// Times the job was re-enqueued after losing its lane to a death.
  std::uint32_t retries = 0;
  /// Instant the outcome resolved: completion, deadline expiry, final
  /// loss, or (for rejections) the arrival itself.
  SimTime resolved;
  /// Every dispatch attempt that was killed mid-service, in order.  The
  /// surviving attempt (if any) lives in lane/start/service below.
  std::vector<LostAttempt> lost_attempts;
  std::int32_t lane = -1;
  bool on_host = false;      // host fallback lane
  SimTime start;             // dispatch instant on the lane
  Seconds service;           // measured engine end-to-end time
  Seconds latency;           // completion − arrival (queue wait + service)
  Seconds eq1_profit;        // Equation-1 profit of the chosen device lane
  std::uint32_t migrations = 0;
  std::uint32_t power_losses = 0;
  std::uint64_t faults = 0;

  // Observability detail (filled when ObsOptions::enabled; zero otherwise).
  Seconds queue_wait;            // start − arrival
  Seconds migration_overhead;    // regeneration + live-state movement
  Seconds recovery_overhead;     // power-cycle + FTL remount + re-staging
  Seconds reclaim_time;          // device-side reclaim stall inside service
  std::uint64_t storage_internal_pages = 0;  // reclaim copies + metadata
  std::uint32_t lines_csd = 0;   // per-line placements the job actually ran
  std::uint32_t lines_host = 0;
  std::vector<FaultEvent> fault_events;  // bounded; feeds the fleet timeline

  /// The job ran to completion (admitted, never expired or abandoned).
  [[nodiscard]] bool completed() const {
    return !rejected && !deadline_rejected && !deadline_missed &&
           !retry_exhausted;
  }
};

struct ServeReport {
  // Config echo (what the numbers below were measured under).
  std::size_t fleet_size = 0;
  std::size_t host_lanes = 0;
  std::size_t tenant_count = 0;
  std::uint64_t total_jobs = 0;
  double offered_load = 0.0;
  std::uint64_t seed = 0;

  std::vector<JobOutcome> outcomes;   // indexed by job id
  std::vector<TenantStats> tenants;   // per-tenant accounting
  std::vector<LaneStats> lanes;       // per-lane serving stats

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t csd_jobs = 0;
  std::uint64_t host_jobs = 0;

  // Failure-domain accounting (all zero in a kill-free, SLO-free run).
  std::uint64_t deadline_rejected = 0;  // DeadlineExceeded at admission
  std::uint64_t deadline_missed = 0;    // expired while queued
  std::uint64_t retry_exhausted = 0;    // abandoned after the retry budget
  std::uint64_t retried = 0;            // total re-enqueues after lane deaths
  std::uint64_t lost_in_flight = 0;     // dispatch attempts killed mid-service
  std::uint64_t devices_failed = 0;     // CSD lanes dead by the makespan

  SimTime makespan;            // last completion (fleet virtual time)
  double throughput = 0.0;     // completed jobs per virtual second
  double rejection_rate = 0.0; // rejected / offered
  Seconds p50_latency;
  Seconds p99_latency;

  /// Per-CSD-lane breaker transition history (indexed by device lane;
  /// empty vectors for lanes whose breaker never moved).
  std::vector<std::vector<BreakerTransition>> breaker_transitions;

  /// FNV-1a digest over every outcome (including retries, lost attempts
  /// and deadline flags), lane counter and breaker transition: the one
  /// word two runs must agree on byte-for-byte (the determinism gate).
  std::uint64_t digest = 0;

  // Memo-cache statistics — diagnostics only.  Deliberately excluded from
  // to_json(), the digest and the metrics registry so every exported
  // artifact stays byte-identical with the cache on or off.
  std::uint64_t sim_cache_hits = 0;
  std::uint64_t sim_cache_misses = 0;
  std::uint64_t sim_cache_evictions = 0;
  // Always 0: placement has no bid cache; kept because perfbench reads them.
  std::uint64_t bid_cache_hits = 0;
  std::uint64_t bid_cache_misses = 0;

  /// Fleet-wide metrics: serve.* (admission, WFQ, lanes, latency
  /// histograms) plus the per-job engine.*, monitor.*, fault.* and ftl.*
  /// counters merged in submission order.  Empty when obs is disabled.
  obs::MetricsRegistry metrics;
  /// Periodic virtual-time snapshots (offered / admitted / rejected /
  /// completed / in_flight / queued per row).  Empty when obs is disabled.
  obs::SnapshotSeries snapshots;

  [[nodiscard]] double utilization(std::size_t lane) const {
    if (makespan.seconds() <= 0.0) return 0.0;
    return lanes[lane].busy.value() / makespan.seconds();
  }

  /// Machine-readable export; byte-identical across `jobs` values.
  [[nodiscard]] std::string to_json() const;
};

/// Run the serving loop to completion (every arrival admitted-and-served or
/// rejected) and aggregate the report.
[[nodiscard]] ServeReport serve(const ServeConfig& config);

}  // namespace isp::serve
