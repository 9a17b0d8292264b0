#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "apps/registry.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "plan/equation1.hpp"
#include "runtime/active_runtime.hpp"
#include "serve/memo.hpp"
#include "serve/observe.hpp"

namespace isp::serve {

namespace {

/// Cached per-class pipeline products: everything placement and dispatch
/// need without re-running the sampling phase per job.
struct Profile {
  explicit Profile(ir::Program p) : program(std::move(p)) {}

  ir::Program program;
  ir::Plan plan;           // Algorithm-1 plan, estimates attached
  ir::Plan host_plan;      // all-host fallback plan (no estimates)
  /// Output volumes the profiling run measured: dispatches replay the class
  /// timing-only, every output sized from this table.
  runtime::OutputVolumes output_volumes;
  Seconds host_work;       // planner's T_host
  Seconds csd_work;        // planner's T_csd
  Bytes ds_raw;            // stored input the host path pulls over the link
  Bytes ds_processed;      // intermediates the device ships back
  bool persist = false;    // class drives the lane's storage backend
  /// Flash pages the persisted outputs program per run (before write
  /// amplification) — the Equation-1 persist-cost input.
  std::uint64_t persist_pages = 0;
};

std::vector<std::shared_ptr<const Profile>> build_profiles(
    const ServeConfig& config) {
  return exec::run_batch(
      config.job_classes.size(),
      [&](std::size_t c) -> std::shared_ptr<const Profile> {
        const auto& jc = config.job_classes[c];
        apps::AppConfig ac;
        ac.size_factor = jc.size_factor;
        auto profile = std::make_shared<Profile>(apps::make_app(jc.app, ac));
        if (jc.persist) {
          // Persist the class's final product: the last line that produces
          // anything writes its outputs to flash.  Marked before the
          // profiling run so the cached plan, estimates and projected
          // latencies all price the write-back the dispatches will pay.
          profile->persist = true;
          for (std::size_t i = profile->program.line_count(); i-- > 0;) {
            if (!profile->program.lines()[i].outputs.empty()) {
              profile->program.line_mut(i).writes_storage = true;
              break;
            }
          }
        }

        system::SystemModel system(config.fleet.system);
        runtime::ActiveRuntime active(system);
        runtime::RunConfig rc;
        rc.mode = config.mode;
        const auto result = active.run(profile->program, rc);

        profile->plan = result.plan;
        profile->host_plan =
            ir::Plan::host_only(profile->program.line_count());
        profile->output_volumes = result.report.output_volumes;
        profile->host_work = result.projected_host;
        profile->csd_work = result.projected_csd;
        const auto page_bytes =
            config.fleet.system.csd.nand_geometry.page_bytes.count();
        for (std::size_t i = 0; i < result.plan.estimate.size(); ++i) {
          const auto& est = result.plan.estimate[i];
          profile->ds_raw += est.storage_in;
          if (result.plan.placement[i] == ir::Placement::Csd) {
            const bool boundary =
                i + 1 == result.plan.placement.size() ||
                result.plan.placement[i + 1] == ir::Placement::Host;
            if (boundary) profile->ds_processed += est.d_out;
          }
          if (profile->program.lines()[i].writes_storage) {
            profile->persist_pages +=
                (est.d_out.count() + page_bytes - 1) / page_bytes;
          }
        }
        return profile;
      },
      config.jobs);
}

struct Arrival {
  QueuedJob job;
};

std::vector<Arrival> generate_arrivals(const ServeConfig& config) {
  Rng rng(config.seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(config.total_jobs);
  SimTime t = SimTime::zero();
  for (std::uint64_t j = 0; j < config.total_jobs; ++j) {
    const double u = rng.next_double();
    t += Seconds{-std::log(1.0 - u) / config.offered_load};
    Arrival a;
    a.job.id = j;
    a.job.tenant = static_cast<std::uint32_t>(
        rng.uniform_u64(0, config.tenants.size() - 1));
    a.job.job_class = static_cast<std::uint32_t>(
        rng.uniform_u64(0, config.job_classes.size() - 1));
    a.job.arrival = t;
    arrivals.push_back(a);
  }
  return arrivals;
}

/// One already-scheduled dispatch: everything the simulation needs is fixed
/// before any worker thread runs.
struct Dispatch {
  QueuedJob job;
  std::size_t lane = 0;
  bool on_host = false;
  /// This dispatch is the lane breaker's HalfOpen probe.
  bool is_probe = false;
  SimTime start;
  double link_share = 1.0;
  /// Storage backend of the dispatch lane (ignored for host lanes).
  flash::BackendKind backend = flash::BackendKind::Ftl;
  Seconds eq1_profit;
  /// The device's availability as seen from `start` — precomputed in the
  /// serial decision phase because rebased()/fraction_at() move the
  /// schedule's query cursor (not safe on the shared fleet copy once worker
  /// threads run).
  sim::AvailabilitySchedule device_schedule;
};

// SimResult lives in serve/memo.hpp (PR 7): a memo hit replays one.

SimResult simulate_dispatch(const ServeConfig& config, const Profile& profile,
                            const Dispatch& d) {
  system::SystemConfig sc = config.fleet.system;
  if (!d.on_host) {
    sc.link.bandwidth = sc.link.bandwidth * d.link_share;
    sc.csd.backend = d.backend;
  }
  system::SystemModel system(sc);

  runtime::RunConfig rc;
  rc.mode = config.mode;
  // Timing-only: kernel outputs do not depend on placement, faults or the
  // backend, so the class profile's measured volumes replay them exactly
  // without copying payloads or running kernels.
  rc.engine.run_kernels = false;
  rc.engine.output_volumes = &profile.output_volumes;
  // Persisting classes drive the storage backend for real: datasets mount
  // as live mappings, outputs go through write()/zone_append, and the
  // backend-internal reclaim traffic stalls the device inside the measured
  // service time.
  rc.engine.drive_storage = profile.persist;
  rc.engine.fault = config.fault;
  rc.engine.fault.seed = splitmix64(config.seed ^ (0xf1ee7000ULL + d.job.id));
  if (config.power_loss_job >= 0 &&
      d.job.id == static_cast<std::uint64_t>(config.power_loss_job)) {
    auto& site = rc.engine.fault
                     .sites[static_cast<std::size_t>(fault::Site::PowerLoss)];
    site.rate = 1.0;
    site.skip_first = config.power_loss_after;
    site.max_faults = 1;
  }
  if (d.on_host) {
    rc.reuse_plan = &profile.host_plan;
    rc.engine.monitoring = false;
    rc.engine.migration = false;
  } else {
    rc.reuse_plan = &profile.plan;
    rc.engine.cse_availability = d.device_schedule;
  }

  SimResult r;
  if (config.obs.enabled) rc.engine.metrics = &r.metrics;

  runtime::ActiveRuntime active(system);
  const auto result = active.run(profile.program, rc);

  r.service = result.report.total;
  r.migrations = result.report.migrations;
  r.power_losses = result.report.power_losses;
  r.faults = result.report.faults.total_injected();
  r.faults_exhausted = result.report.faults.total_exhausted();
  r.storage = result.report.storage;
  if (config.obs.enabled) {
    r.migration_overhead = result.report.migration_overhead;
    r.recovery_overhead = result.report.recovery_overhead;
    for (const auto& line : result.report.lines) {
      if (line.placement == ir::Placement::Csd) {
        ++r.lines_csd;
      } else {
        ++r.lines_host;
      }
    }
    const std::size_t cap = config.obs.max_trace_faults_per_job;
    for (const auto& f : result.report.fault_records) {
      if (r.fault_events.size() >= cap) break;
      r.fault_events.push_back(FaultEvent{.site = f.site,
                                          .time = f.time,
                                          .penalty = f.penalty,
                                          .exhausted = f.exhausted});
    }
  }
  return r;
}

/// The memo-cache key for a dispatch: every simulate_dispatch() input that
/// can vary between dispatches.  The derived fault seed enters the key only
/// when a fault site is actually armed — with all rates zero and no armed
/// power loss the injector never fires, so fault-free jobs of a class share
/// one canonical key (that sharing is where the hit rate comes from).
SimKey make_sim_key(const ServeConfig& config, const Dispatch& d) {
  SimKey key;
  key.job_class = d.job.job_class;
  key.on_host = d.on_host;
  key.backend =
      d.on_host ? 0 : 1 + static_cast<std::uint32_t>(d.backend);
  key.link_share_bits = double_bits(d.on_host ? 1.0 : d.link_share);
  const bool armed =
      config.power_loss_job >= 0 &&
      d.job.id == static_cast<std::uint64_t>(config.power_loss_job);
  if (config.fault.enabled() || armed) {
    key.faulted = true;
    key.fault_seed = splitmix64(config.seed ^ (0xf1ee7000ULL + d.job.id));
    key.power_loss_armed = armed;
    if (armed) key.power_loss_after = config.power_loss_after;
  }
  if (!d.on_host) key.schedule = d.device_schedule;
  return key;
}

/// How a placement attempt ended.
enum class Place {
  Ok,               // out is a valid dispatch
  DeadlineExpired,  // some lane is eligible, but none by the deadline
  NoLane,           // no living, unclaimed, undoomed lane exists
};

/// One eligible lane's bid for the job.
struct LaneBid {
  std::size_t lane = 0;
  bool on_host = false;
  SimTime start;
  SimTime done = SimTime::infinity();
  double share = 1.0;
  Seconds profit;
};

/// Rank the eligible lanes for `job` and decide device vs host fallback by
/// Equation 1 under contention.  Among devices (and among host lanes) the
/// projected completion decides; between the best device and the host path,
/// the sign of S' decides.  Eligibility is health-aware: dead lanes, lanes
/// whose candidate start would land at or past their scheduled death, and
/// lanes holding an unresolved breaker probe are out; an Open breaker
/// delays the candidate start to its cooldown end (making the eventual
/// dispatch the probe) rather than excluding the lane — exclusion could
/// deadlock a fleet whose every device is Open.  If the Equation-1 winner
/// cannot start by the job's deadline, the earliest-starting eligible lane
/// is tried instead; only when even that misses is DeadlineExpired
/// returned.
Place choose_lane(const Fleet& fleet, const std::vector<bool>& claimed,
                  const std::vector<SimTime>& kill_at,
                  const std::vector<CircuitBreaker>& breakers,
                  const std::vector<sim::AvailabilitySchedule>& scheds,
                  const Profile& profile, const QueuedJob& job,
                  Dispatch& out) {
  const BytesPerSecond bw = fleet.config().system.link.bandwidth;
  const std::size_t device_count = fleet.device_count();
  const Seconds page_program =
      fleet.config().system.csd.nand_timing.page_program;

  bool have_device = false, have_host = false, have_earliest = false;
  LaneBid best_device, best_host, earliest;
  const auto consider_earliest = [&](const LaneBid& bid) {
    if (!have_earliest || bid.start < earliest.start ||
        (bid.start == earliest.start && bid.lane < earliest.lane)) {
      have_earliest = true;
      earliest = bid;
    }
  };

  // Host lanes first: the fallback's own queue wait belongs on Equation 1's
  // host side, so the devices are priced against the host path the job
  // would actually take.  The winning lane's busy_until rides along so the
  // host-wait term below doesn't re-read it.
  SimTime best_host_busy = SimTime::zero();
  for (std::size_t lane = fleet.device_count(); lane < fleet.lane_count();
       ++lane) {
    if (claimed[lane]) continue;
    const SimTime busy = fleet.busy_until(lane);
    const SimTime start = std::max(busy, job.ready);
    const LaneBid bid{.lane = lane,
                      .on_host = true,
                      .start = start,
                      .done = start + profile.host_work,
                      .share = 1.0,
                      .profit = Seconds::zero()};
    consider_earliest(bid);
    if (!have_host || bid.done < best_host.done) {
      have_host = true;
      best_host = bid;
      best_host_busy = busy;
    }
  }
  const Seconds host_wait =
      have_host ? std::max(Seconds::zero(), best_host_busy - job.arrival)
                : Seconds::zero();

  for (std::size_t lane = 0; lane < fleet.device_count(); ++lane) {
    if (claimed[lane] || !fleet.alive(lane)) continue;
    const CircuitBreaker& brk = breakers[lane];
    if (brk.state() == BreakerState::HalfOpen && brk.probe_in_flight()) {
      continue;  // one probe at a time
    }
    const SimTime start =
        std::max({fleet.busy_until(lane), job.ready, brk.ready_at()});
    if (start >= kill_at[lane]) continue;  // lane is dead by then

    // The lane's *derated* schedule: base CSE availability scaled down by
    // the lane's observed reclaim pressure.
    const SimTime compute_done =
        scheds[lane].finish_time(start, profile.csd_work);
    if (compute_done == SimTime::infinity()) continue;  // starved device
    const std::size_t busy =
        std::min(fleet.busy_devices_after(start) + 1, device_count);
    const double share = fleet.contended_link_share(lane, busy);
    const SimTime done = compute_done + profile.ds_processed / (bw * share);
    // Effective CSE fraction over exactly the window the job would occupy.
    const double avail_eff =
        profile.csd_work.value() > 0.0
            ? profile.csd_work.value() / (compute_done - start).value()
            : 1.0;

    const plan::Eq1Terms terms{.ds_raw = profile.ds_raw,
                               .ct_host = profile.host_work + host_wait,
                               .ct_device = profile.csd_work,
                               .ds_processed = profile.ds_processed,
                               .bw_d2h = bw};
    // Backend-specific device-side terms: the reclaim stall this lane has
    // historically charged per job (FTL GC vs ZNS copy-forward price very
    // differently), and the NAND-program cost of the class's persisted
    // pages inflated by the lane's observed write amplification.  Both
    // fold from completed jobs in the serial phase.
    const auto& ls = fleet.stats(lane);
    const Seconds reclaim_wait =
        ls.jobs > 0 ? Seconds{ls.reclaim_time.value() /
                              static_cast<double>(ls.jobs)}
                    : Seconds::zero();
    const Seconds persist_cost =
        page_program * (static_cast<double>(profile.persist_pages) *
                        ls.storage_write_amplification());
    // The wait this job would actually experience on the device: the time
    // from its arrival until the lane's queued work drains.
    const plan::Eq1Contention contention{
        .queue_wait =
            std::max(Seconds::zero(), fleet.busy_until(lane) - job.arrival),
        .cse_availability = std::clamp(avail_eff, 1e-6, 1.0),
        .link_share = share,
        .reclaim_wait = reclaim_wait,
        .persist_cost = persist_cost};
    const Seconds profit = plan::net_profit_under_contention(terms, contention);
    const LaneBid bid{.lane = lane,
                      .on_host = false,
                      .start = start,
                      .done = done,
                      .share = share,
                      .profit = profit};
    consider_earliest(bid);
    if (!have_device || bid.done < best_device.done) {
      have_device = true;
      best_device = bid;
    }
  }

  if (!have_device && !have_host) return Place::NoLane;
  // A plan with no CSD lines has nothing to offload; don't burn a device.
  const bool host_wins =
      profile.plan.csd_line_count() == 0 ||
      (have_host && (!have_device || best_device.profit.value() <= 0.0));
  LaneBid chosen = (host_wins && have_host) ? best_host : best_device;
  // Deadline-aware fallback: the Equation-1 pick stands unless it would
  // start past the job's deadline and another lane would not.
  if (chosen.start > job.deadline) {
    if (earliest.start > job.deadline) return Place::DeadlineExpired;
    chosen = earliest;
  }
  out.job = job;
  out.lane = chosen.lane;
  out.on_host = chosen.on_host;
  out.start = chosen.start;
  out.link_share = chosen.on_host ? 1.0 : chosen.share;
  out.eq1_profit = have_device ? best_device.profit : Seconds::zero();
  return Place::Ok;
}

}  // namespace

ServeReport serve(const ServeConfig& config) {
  ISP_CHECK(!config.tenants.empty(), "serve needs at least one tenant");
  ISP_CHECK(!config.job_classes.empty(), "serve needs at least one job class");
  ISP_CHECK(config.total_jobs >= 1, "serve needs at least one job");
  ISP_CHECK(config.offered_load > 0.0, "offered load must be positive");

  const auto profiles = build_profiles(config);
  const auto arrivals = generate_arrivals(config);

  Fleet fleet(config.fleet);
  AdmissionController admission(config.tenants);
  ServeReport report;
  report.outcomes.resize(config.total_jobs);

  // Per-device kill schedule, fully known before the loop: the explicit
  // schedule min-folded with a seed-deterministic exponential first arrival
  // per device when a DeviceFailure rate is armed.  Decisions only ever
  // *react* to a death (a lane is skipped once its candidate start reaches
  // its kill instant); they never steer around a future one.
  std::vector<SimTime> kill_at(fleet.device_count(), SimTime::infinity());
  for (const auto& k : config.kill_devices) {
    ISP_CHECK(k.device < fleet.device_count(),
              "kill-device " << k.device << " is not a CSD lane (fleet has "
                             << fleet.device_count() << " devices)");
    ISP_CHECK(k.at.seconds() >= 0.0, "kill-device time must be non-negative");
    kill_at[k.device] = std::min(kill_at[k.device], k.at);
  }
  const double fail_rate = config.fault.rate(fault::Site::DeviceFailure);
  if (fail_rate > 0.0) {
    for (std::size_t k = 0; k < fleet.device_count(); ++k) {
      const double u =
          hash_unit(splitmix64(config.seed ^ (0xDEF1CE00ULL + k)));
      kill_at[k] = std::min(
          kill_at[k], SimTime::zero() + Seconds{-std::log1p(-u) / fail_rate});
    }
  }
  // Mirror the kill schedule into the fleet's incremental index so its
  // ready-order and feasibility queries skip doomed lanes.
  for (std::size_t k = 0; k < fleet.device_count(); ++k) {
    if (kill_at[k] < SimTime::infinity()) fleet.set_kill_at(k, kill_at[k]);
  }

  // The engine-run memo is exact — serve() output is byte-identical with it
  // on or off; the flag exists for the benchmark's off-arm and for
  // bisecting.
  std::optional<SimMemoCache> memo;
  if (config.sim_cache) memo.emplace(config.sim_cache_capacity);

  // Per-device derated CSE schedules: a lane that keeps stalling on backend
  // reclaim (FTL GC / ZNS copy-forward) loses a quantized slice of its CSE
  // capacity for future placements and dispatches.  The derating factor is
  // reclaim-stall time over busy time, quantized to 1/64 and capped at 1/2,
  // updated only in the serial fold phase right after occupy() — so the
  // derated schedule enters both the engine run and the memo-cache key
  // through the schedule itself.
  std::vector<double> lane_derate(fleet.device_count(), 0.0);
  std::vector<sim::AvailabilitySchedule> lane_sched;
  lane_sched.reserve(fleet.device_count());
  for (std::size_t k = 0; k < fleet.device_count(); ++k) {
    lane_sched.push_back(fleet.device(k).cse_availability);
  }
  const auto update_derate = [&](std::size_t lane) {
    const auto& ls = fleet.stats(lane);
    const double busy = ls.busy.value();
    double p = busy > 0.0 ? ls.reclaim_time.value() / busy : 0.0;
    p = std::min(p, 0.5);
    const double q = std::floor(p * 64.0) / 64.0;
    if (q != lane_derate[lane]) {
      lane_derate[lane] = q;
      lane_sched[lane] = fleet.device(lane).cse_availability.scaled(1.0 - q);
    }
  };

  // One health breaker per CSD lane (host lanes never break).
  std::vector<CircuitBreaker> breakers;
  breakers.reserve(fleet.device_count());
  for (std::size_t k = 0; k < fleet.device_count(); ++k) {
    breakers.emplace_back(config.breaker);
  }

  // Deepest each tenant's queue ever got (serial bookkeeping, so the gauge
  // is deterministic by construction).
  std::vector<std::size_t> max_queue(config.tenants.size(), 0);

  std::size_t next_arrival = 0;
  const auto admit_up_to = [&](SimTime t) {
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].job.arrival <= t) {
      const auto& job = arrivals[next_arrival].job;
      auto& outcome = report.outcomes[job.id];
      outcome.id = job.id;
      outcome.tenant = job.tenant;
      outcome.job_class = job.job_class;
      outcome.arrival = job.arrival;
      // The earliest instant any living lane could start the job — the
      // admission-time deadline feasibility bound.  Future dispatches only
      // push busy_until later, so this is a true lower bound.  Breaker
      // gates are mirrored into the fleet index after every breaker
      // mutation below.
      const Status st =
          admission.offer(job, fleet.earliest_feasible_start(job.arrival));
      if (!st.is_ok()) {
        if (st.code() == StatusCode::DeadlineExceeded) {
          outcome.deadline_rejected = true;
        } else {
          outcome.rejected = true;
        }
        outcome.resolved = job.arrival;
      }
      max_queue[job.tenant] =
          std::max(max_queue[job.tenant], admission.queued(job.tenant));
      ++next_arrival;
    }
  };

  // Wave scratch, hoisted so the per-wave cost is an assign(), not an
  // allocation.
  std::vector<Dispatch> wave;
  wave.reserve(fleet.lane_count());
  std::vector<bool> claimed;
  while (true) {
    // Decision phase (serial): claim at most one job per lane.  Every
    // unclaimed lane's busy_until is a *measured* quantity from previous
    // waves, so each decision sees exact state.
    wave.clear();
    claimed.assign(fleet.lane_count(), false);
    while (wave.size() < fleet.lane_count()) {
      // First unclaimed lane in busy_until order.  The index excludes dead
      // lanes and lanes committed past their death: such a lane can never
      // free up again, so letting it pin the instant would stall admission.
      admit_up_to(fleet.next_free(claimed));
      if (!admission.any_queued()) {
        if (wave.empty() && next_arrival < arrivals.size()) {
          // Idle fleet: jump to the next arrival and retry.
          admit_up_to(arrivals[next_arrival].job.arrival);
          continue;
        }
        break;
      }
      const auto job = admission.pick();
      Dispatch d;
      const Place placed =
          choose_lane(fleet, claimed, kill_at, breakers, lane_sched,
                      *profiles[job->job_class], *job, d);
      if (placed == Place::DeadlineExpired) {
        // Skip the expired job loudly: typed per-tenant counter, resolved
        // at the deadline — or at the death that re-enqueued it, when the
        // lane died after the deadline had already passed (the job's last
        // attempt span must not outlive its resolution instant).
        admission.note_deadline_missed(job->tenant);
        auto& outcome = report.outcomes[job->id];
        outcome.deadline_missed = true;
        outcome.resolved = std::max(job->deadline, job->ready);
        continue;
      }
      if (placed == Place::NoLane) {
        if (!wave.empty()) {
          // Every living lane is claimed this wave; try again next wave.
          admission.return_front(*job);
          break;
        }
        // An empty wave saw every lane, so no living lane can ever serve
        // this job (lane starts only move later): abandon it loudly
        // rather than spin.
        admission.note_retry_exhausted(job->tenant, /*was_placed=*/false);
        auto& outcome = report.outcomes[job->id];
        outcome.retry_exhausted = true;
        outcome.resolved = std::max(job->ready, job->arrival);
        continue;
      }
      if (!d.on_host) {
        d.backend = fleet.device(d.lane).backend;
        d.device_schedule = lane_sched[d.lane].rebased(d.start);
        if (breakers[d.lane].state() == BreakerState::Open) {
          // First dispatch at or after the cooldown end is the probe.
          breakers[d.lane].begin_probe(d.start);
          d.is_probe = true;
          fleet.set_gate(d.lane, breakers[d.lane].ready_at());
        }
      }
      claimed[d.lane] = true;
      wave.push_back(std::move(d));
    }
    if (wave.empty()) break;  // queues drained, no arrivals left

    // Execution phase: worker threads run the already-scheduled engine
    // simulations; results come back in submission order.  With the memo
    // cache on, a serial key pass first dedupes the wave against the cache
    // *and against itself* — only distinct missing keys reach the workers,
    // and everything folds back in submission order, so the wave's outputs
    // are byte-identical with the cache off (asserted in serve_test).
    std::vector<SimResult> results(wave.size());
    if (memo) {
      struct Miss {
        SimKey key;
        std::size_t first;  // wave index that owns the fresh engine run
      };
      std::vector<Miss> misses;
      std::vector<std::ptrdiff_t> from_miss(wave.size(), -1);
      for (std::size_t i = 0; i < wave.size(); ++i) {
        SimKey key = make_sim_key(config, wave[i]);
        std::ptrdiff_t pending = -1;
        for (std::size_t m = 0; m < misses.size(); ++m) {
          if (misses[m].key == key) {
            pending = static_cast<std::ptrdiff_t>(m);
            break;
          }
        }
        if (pending >= 0) {  // duplicate within this wave
          from_miss[i] = pending;
          ++report.sim_cache_hits;
          continue;
        }
        if (const SimResult* hit = memo->find(key)) {
          results[i] = *hit;
          ++report.sim_cache_hits;
          continue;
        }
        from_miss[i] = static_cast<std::ptrdiff_t>(misses.size());
        misses.push_back(Miss{std::move(key), i});
        ++report.sim_cache_misses;
      }
      const auto fresh = exec::run_batch(
          misses.size(),
          [&](std::size_t m) {
            const auto& d = wave[misses[m].first];
            return simulate_dispatch(config, *profiles[d.job.job_class], d);
          },
          config.jobs);
      for (std::size_t m = 0; m < misses.size(); ++m) {
        memo->insert(misses[m].key, fresh[m]);
      }
      for (std::size_t i = 0; i < wave.size(); ++i) {
        if (from_miss[i] >= 0) {
          results[i] = fresh[static_cast<std::size_t>(from_miss[i])];
        }
      }
    } else {
      results = exec::run_batch(
          wave.size(),
          [&](std::size_t i) {
            return simulate_dispatch(config, *profiles[wave[i].job.job_class],
                                     wave[i]);
          },
          config.jobs);
    }

    for (std::size_t i = 0; i < wave.size(); ++i) {
      const auto& d = wave[i];
      const auto& r = results[i];
      auto& outcome = report.outcomes[d.job.id];
      const SimTime end = d.start + r.service;
      const SimTime death = d.on_host ? SimTime::infinity() : kill_at[d.lane];
      if (end > death) {
        // The lane died under the job: occupancy truncates at the death,
        // the job's work is lost, and the job either re-enters its tenant
        // queue at the head (ready no earlier than the death it witnessed)
        // or exhausts its serve-layer retry budget.
        fleet.occupy(d.lane, d.start, death - d.start);
        fleet.mark_dead(d.lane, death);
        fleet.note_lost(d.lane);
        if (d.is_probe) {
          breakers[d.lane].abort_probe();
          fleet.set_gate(d.lane, breakers[d.lane].ready_at());
        }
        outcome.lost_attempts.push_back(
            LostAttempt{.lane = static_cast<std::uint32_t>(d.lane),
                        .start = d.start,
                        .end = death});
        report.makespan = std::max(report.makespan, death);
        if (d.job.attempt < config.retry_budget) {
          QueuedJob retry = d.job;
          retry.attempt += 1;
          retry.ready = death;  // a retry cannot start before the failure
          admission.requeue_front(retry);
          outcome.retries += 1;
        } else {
          admission.note_retry_exhausted(d.job.tenant, /*was_placed=*/true);
          outcome.retry_exhausted = true;
          outcome.resolved = death;
        }
        continue;
      }
      fleet.occupy(d.lane, d.start, r.service);
      fleet.note_outcome(d.lane, r.migrations, r.power_losses, r.faults);
      if (r.storage.driven) {
        fleet.note_storage(d.lane, r.storage.host_pages,
                           r.storage.reclaim_pages + r.storage.meta_pages,
                           r.storage.resets, r.storage.reclaim_time);
        // Reclaim pressure derates the lane's CSE for future placements.
        if (!d.on_host) update_derate(d.lane);
      }
      admission.note_completed(d.job.tenant);
      if (!d.on_host) {
        // Health feedback: exhausted fault episodes, migrations and power
        // cycles weigh the lane's breaker score; a probe resolves its
        // HalfOpen state instead.
        const double severity = static_cast<double>(r.faults_exhausted) +
                                2.0 * r.migrations + 4.0 * r.power_losses;
        if (d.is_probe) {
          breakers[d.lane].probe_result(end, severity == 0.0);
        } else {
          breakers[d.lane].record_outcome(end, severity);
        }
        // Keep the fleet index's breaker gate in sync.
        fleet.set_gate(d.lane, breakers[d.lane].ready_at());
      }
      outcome.lane = static_cast<std::int32_t>(d.lane);
      outcome.on_host = d.on_host;
      outcome.start = d.start;
      outcome.service = r.service;
      // Queue wait + service, not (start+service)-arrival: the latter loses
      // a ulp when start == arrival and would report latency < service.
      outcome.latency = (d.start - d.job.arrival) + r.service;
      outcome.resolved = end;
      outcome.eq1_profit = d.eq1_profit;
      outcome.migrations = r.migrations;
      outcome.power_losses = r.power_losses;
      outcome.faults = r.faults;
      if (config.obs.enabled) {
        outcome.queue_wait = d.start - d.job.arrival;
        outcome.migration_overhead = r.migration_overhead;
        outcome.recovery_overhead = r.recovery_overhead;
        outcome.reclaim_time = r.storage.reclaim_time;
        outcome.storage_internal_pages =
            r.storage.reclaim_pages + r.storage.meta_pages;
        outcome.lines_csd = r.lines_csd;
        outcome.lines_host = r.lines_host;
        outcome.fault_events = std::move(results[i].fault_events);
        for (auto& f : outcome.fault_events) {
          f.time = d.start + (f.time - SimTime::zero());  // job → fleet time
        }
        // Submission-order fold of the per-job engine registries: merge is
        // associative, so this equals one registry fed serially no matter
        // how many worker threads ran the wave.  Lost attempts are not
        // merged — the registry reflects service that actually completed.
        report.metrics.merge(r.metrics);
      }
      report.makespan = std::max(report.makespan, end);
    }
  }

  // Deaths that happened inside the observed horizon but caught the lane
  // idle still count as failures.
  for (std::size_t k = 0; k < fleet.device_count(); ++k) {
    if (fleet.alive(k) && kill_at[k] <= report.makespan) {
      fleet.mark_dead(k, kill_at[k]);
    }
  }

  // Aggregate.  Every offered job must be accounted exactly once.
  report.fleet_size = fleet.device_count();
  report.host_lanes = config.fleet.host_lanes;
  report.tenant_count = config.tenants.size();
  report.total_jobs = config.total_jobs;
  report.offered_load = config.offered_load;
  report.seed = config.seed;
  if (memo) report.sim_cache_evictions = memo->evictions();
  std::vector<double> latencies;
  latencies.reserve(report.outcomes.size());
  for (const auto& o : report.outcomes) {
    if (o.rejected) {
      report.rejected += 1;
      continue;
    }
    if (o.deadline_rejected) {
      report.deadline_rejected += 1;
      continue;
    }
    report.admitted += 1;
    report.retried += o.retries;
    report.lost_in_flight += o.lost_attempts.size();
    if (o.deadline_missed) {
      report.deadline_missed += 1;
      continue;
    }
    if (o.retry_exhausted) {
      report.retry_exhausted += 1;
      continue;
    }
    report.completed += 1;
    latencies.push_back(o.latency.value());
    if (o.on_host) {
      report.host_jobs += 1;
    } else {
      report.csd_jobs += 1;
    }
  }
  ISP_CHECK(report.admitted + report.rejected + report.deadline_rejected ==
                config.total_jobs,
            "job accounting leak: " << report.admitted << " + "
                                    << report.rejected << " + "
                                    << report.deadline_rejected << " != "
                                    << config.total_jobs);
  // The failure-domain conservation identity (terminal form: nothing is
  // in flight or queued once the loop drains).
  ISP_CHECK(report.admitted == report.completed + report.deadline_missed +
                                   report.retry_exhausted,
            "admitted jobs leaked: "
                << report.admitted << " != " << report.completed << " + "
                << report.deadline_missed << " + " << report.retry_exhausted);
  report.tenants.reserve(admission.tenant_count());
  for (std::uint32_t t = 0; t < admission.tenant_count(); ++t) {
    report.tenants.push_back(admission.stats(t));
  }
  report.lanes.reserve(fleet.lane_count());
  for (std::size_t lane = 0; lane < fleet.lane_count(); ++lane) {
    report.lanes.push_back(fleet.stats(lane));
    if (lane < fleet.device_count() && !fleet.alive(lane)) {
      report.devices_failed += 1;
    }
  }
  report.breaker_transitions.reserve(fleet.device_count());
  for (std::size_t k = 0; k < fleet.device_count(); ++k) {
    report.breaker_transitions.push_back(breakers[k].transitions());
  }
  if (report.makespan.seconds() > 0.0) {
    report.throughput = static_cast<double>(report.completed) /
                        report.makespan.seconds();
  }
  report.rejection_rate = static_cast<double>(report.rejected) /
                          static_cast<double>(config.total_jobs);
  // Exact nearest-rank percentiles over the sorted sample (const ref — the
  // previous hand-rolled helper took the vector by value, a full copy per
  // call); the obs histogram's bucketed percentile cross-checks these
  // within its error bound in serve_test.
  std::sort(latencies.begin(), latencies.end());
  report.p50_latency = Seconds{obs::percentile_sorted(latencies, 0.50)};
  report.p99_latency = Seconds{obs::percentile_sorted(latencies, 0.99)};

  std::uint64_t h = kFnvOffset;
  for (const auto& o : report.outcomes) {
    h = fnv1a(h, o.id);
    h = fnv1a(h, o.tenant);
    h = fnv1a(h, o.rejected ? 1 : 0);
    h = fnv1a(h, (o.deadline_rejected ? 1 : 0) |
                     (o.deadline_missed ? 2 : 0) |
                     (o.retry_exhausted ? 4 : 0));
    h = fnv1a(h, o.retries);
    h = fnv1a(h, double_bits(o.resolved.seconds()));
    for (const auto& a : o.lost_attempts) {
      h = fnv1a(h, a.lane);
      h = fnv1a(h, double_bits(a.start.seconds()));
      h = fnv1a(h, double_bits(a.end.seconds()));
    }
    h = fnv1a(h, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(o.lane)));
    h = fnv1a(h, double_bits(o.start.seconds()));
    h = fnv1a(h, double_bits(o.service.value()));
    h = fnv1a(h, o.migrations);
    h = fnv1a(h, o.power_losses);
    h = fnv1a(h, o.faults);
  }
  for (const auto& lane : report.lanes) {
    h = fnv1a(h, lane.jobs);
    h = fnv1a(h, double_bits(lane.busy.value()));
    h = fnv1a(h, lane.lost_jobs);
    h = fnv1a(h, double_bits(lane.died_at.seconds()));
    h = fnv1a(h, lane.storage_host_pages);
    h = fnv1a(h, lane.storage_internal_pages);
    h = fnv1a(h, lane.storage_resets);
    h = fnv1a(h, double_bits(lane.reclaim_time.value()));
  }
  for (const auto& lane_transitions : report.breaker_transitions) {
    h = fnv1a(h, lane_transitions.size());
    for (const auto& tr : lane_transitions) {
      h = fnv1a(h, static_cast<std::uint64_t>(tr.from) * 16 +
                       static_cast<std::uint64_t>(tr.to));
      h = fnv1a(h, double_bits(tr.time.seconds()));
      h = fnv1a(h, double_bits(tr.score));
    }
  }
  report.digest = h;

  // Serve-level metrics and snapshots — all derived serially from the
  // finished aggregates, so they inherit the report's determinism.
  if (config.obs.enabled) {
    auto& m = report.metrics;
    m.counter("serve.offered").add(config.total_jobs);
    m.counter("serve.admitted").add(report.admitted);
    m.counter("serve.rejected").add(report.rejected);
    m.counter("serve.completed").add(report.completed);
    m.counter("serve.jobs.csd").add(report.csd_jobs);
    m.counter("serve.jobs.host").add(report.host_jobs);
    m.counter("serve.deadline_rejected").add(report.deadline_rejected);
    m.counter("serve.deadline_missed").add(report.deadline_missed);
    m.counter("serve.retry_exhausted").add(report.retry_exhausted);
    m.counter("serve.retried").add(report.retried);
    m.counter("serve.lost_in_flight").add(report.lost_in_flight);
    m.counter("serve.devices_failed").add(report.devices_failed);
    auto& latency_h = m.histogram("serve.latency_s");
    auto& service_h = m.histogram("serve.service_s");
    auto& wait_h = m.histogram("serve.queue_wait_s");
    for (const auto& o : report.outcomes) {
      if (o.rejected) continue;
      latency_h.record(o.latency.value());
      service_h.record(o.service.value());
      wait_h.record(o.queue_wait.value());
    }
    for (std::uint32_t t = 0; t < report.tenants.size(); ++t) {
      const auto& ts = report.tenants[t];
      const std::string p = "serve.tenant." + std::to_string(t) + ".";
      m.counter(p + "offered").add(ts.offered);
      m.counter(p + "admitted").add(ts.admitted);
      m.counter(p + "rejected").add(ts.rejected);
      m.counter(p + "deadline_rejected").add(ts.deadline_rejected);
      m.counter(p + "dispatched").add(ts.dispatched);
      m.counter(p + "completed").add(ts.completed);
      m.counter(p + "deadline_missed").add(ts.deadline_missed);
      m.counter(p + "retried").add(ts.retried);
      m.counter(p + "retry_exhausted").add(ts.retry_exhausted);
      m.gauge(p + "wfq_weight").set(config.tenants[t].weight);
      m.gauge(p + "max_queue_depth")
          .set(static_cast<double>(max_queue[t]));
    }
    for (std::size_t lane = 0; lane < report.lanes.size(); ++lane) {
      const auto& ls = report.lanes[lane];
      const std::string p = "serve.lane." + std::to_string(lane) + ".";
      m.counter(p + "jobs").add(ls.jobs);
      m.counter(p + "migrations").add(ls.migrations);
      m.counter(p + "power_losses").add(ls.power_losses);
      m.counter(p + "faults").add(ls.faults);
      m.counter(p + "lost_jobs").add(ls.lost_jobs);
      m.gauge(p + "utilization").set(report.utilization(lane));
      if (ls.died_at < SimTime::infinity()) {
        m.gauge(p + "died_at_s").set(ls.died_at.seconds());
      }
      // Storage-backend activity, only for lanes that actually drove a
      // backend — persist-free runs keep the clean metric schema.
      if (ls.storage_host_pages + ls.storage_internal_pages > 0) {
        m.counter(p + "storage.host_pages").add(ls.storage_host_pages);
        m.counter(p + "storage.internal_pages")
            .add(ls.storage_internal_pages);
        m.counter(p + "storage.resets").add(ls.storage_resets);
        m.gauge(p + "storage.reclaim_time_s").set(ls.reclaim_time.value());
        m.gauge(p + "storage.wa").set(ls.storage_write_amplification());
        if (lane < fleet.device_count()) {
          m.gauge(p + "storage.derate").set(lane_derate[lane]);
        }
      }
    }
    // Breaker histories, only for lanes whose breaker actually moved — no
    // serve.breaker.* noise in a healthy run.
    for (std::size_t k = 0; k < report.breaker_transitions.size(); ++k) {
      const auto& trs = report.breaker_transitions[k];
      if (trs.empty()) continue;
      const std::string p = "serve.breaker." + std::to_string(k) + ".";
      std::uint64_t opened = 0, reclosed = 0;
      for (const auto& tr : trs) {
        if (tr.to == BreakerState::Open) ++opened;
        if (tr.to == BreakerState::Closed) ++reclosed;
      }
      m.counter(p + "transitions").add(trs.size());
      m.counter(p + "opened").add(opened);
      m.counter(p + "reclosed").add(reclosed);
    }
    report.snapshots = build_snapshots(report, config.obs);
  }
  return report;
}

std::string ServeReport::to_json() const {
  std::string out;
  out.reserve(2048);
  char buf[512];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  add("{\n");
  add("  \"fleet\": %zu,\n", fleet_size);
  add("  \"host_lanes\": %zu,\n", host_lanes);
  add("  \"tenants\": %zu,\n", tenant_count);
  add("  \"total_jobs\": %llu,\n",
      static_cast<unsigned long long>(total_jobs));
  add("  \"offered_load\": %.6f,\n", offered_load);
  add("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  add("  \"admitted\": %llu,\n", static_cast<unsigned long long>(admitted));
  add("  \"rejected\": %llu,\n", static_cast<unsigned long long>(rejected));
  add("  \"completed\": %llu,\n", static_cast<unsigned long long>(completed));
  add("  \"csd_jobs\": %llu,\n", static_cast<unsigned long long>(csd_jobs));
  add("  \"host_jobs\": %llu,\n", static_cast<unsigned long long>(host_jobs));
  add("  \"deadline_rejected\": %llu,\n",
      static_cast<unsigned long long>(deadline_rejected));
  add("  \"deadline_missed\": %llu,\n",
      static_cast<unsigned long long>(deadline_missed));
  add("  \"retry_exhausted\": %llu,\n",
      static_cast<unsigned long long>(retry_exhausted));
  add("  \"retried\": %llu,\n", static_cast<unsigned long long>(retried));
  add("  \"lost_in_flight\": %llu,\n",
      static_cast<unsigned long long>(lost_in_flight));
  add("  \"devices_failed\": %llu,\n",
      static_cast<unsigned long long>(devices_failed));
  add("  \"makespan_s\": %.6f,\n", makespan.seconds());
  add("  \"throughput_jobs_per_s\": %.6f,\n", throughput);
  add("  \"rejection_rate\": %.6f,\n", rejection_rate);
  add("  \"p50_latency_s\": %.6f,\n", p50_latency.value());
  add("  \"p99_latency_s\": %.6f,\n", p99_latency.value());
  out += "  \"per_tenant\": [\n";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& s = tenants[t];
    add("    {\"offered\": %llu, \"admitted\": %llu, \"rejected\": %llu, "
        "\"deadline_rejected\": %llu, \"dispatched\": %llu, "
        "\"completed\": %llu, \"deadline_missed\": %llu, \"retried\": %llu, "
        "\"retry_exhausted\": %llu}%s\n",
        static_cast<unsigned long long>(s.offered),
        static_cast<unsigned long long>(s.admitted),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.deadline_rejected),
        static_cast<unsigned long long>(s.dispatched),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.deadline_missed),
        static_cast<unsigned long long>(s.retried),
        static_cast<unsigned long long>(s.retry_exhausted),
        t + 1 < tenants.size() ? "," : "");
  }
  out += "  ],\n";
  out += "  \"per_lane\": [\n";
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto& s = lanes[lane];
    // died_at_s is -1 while the lane is alive (JSON has no infinity).
    add("    {\"kind\": \"%s\", \"jobs\": %llu, \"busy_s\": %.6f, "
        "\"utilization\": %.6f, \"migrations\": %u, \"power_losses\": %u, "
        "\"faults\": %llu, \"lost_jobs\": %llu, \"died_at_s\": %.6f}%s\n",
        lane < fleet_size ? "csd" : "host",
        static_cast<unsigned long long>(s.jobs), s.busy.value(),
        utilization(lane), s.migrations, s.power_losses,
        static_cast<unsigned long long>(s.faults),
        static_cast<unsigned long long>(s.lost_jobs),
        s.died_at < SimTime::infinity() ? s.died_at.seconds() : -1.0,
        lane + 1 < lanes.size() ? "," : "");
  }
  out += "  ],\n";
  add("  \"digest\": \"0x%016llx\"\n",
      static_cast<unsigned long long>(digest));
  out += "}\n";
  return out;
}

}  // namespace isp::serve
