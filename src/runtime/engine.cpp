#include "runtime/engine.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace isp::runtime {

namespace {

/// Fold a finished run into the observability registry.  Pure bookkeeping
/// after report assembly: nothing here touches virtual time, so an
/// instrumented run's report is bit-for-bit identical to an uninstrumented
/// one (asserted by serve_test and bench/obs_overhead).
void record_run_metrics(obs::MetricsRegistry& m, const ExecutionReport& report,
                        std::uint64_t monitor_lost_updates,
                        const flash::StorageBackend* backend) {
  m.counter("engine.runs").add();
  for (const auto& line : report.lines) {
    m.counter(line.placement == ir::Placement::Csd ? "engine.lines.csd"
                                                   : "engine.lines.host")
        .add();
    m.histogram("engine.line_compute_s").record(line.compute);
  }
  m.counter("engine.migrations").add(report.migrations);
  m.counter("engine.csd_calls").add(report.csd_calls);
  m.counter("engine.status_updates").add(report.status_updates);
  m.counter("engine.power_losses").add(report.power_losses);
  m.counter("monitor.lost_updates").add(monitor_lost_updates);
  m.histogram("engine.total_s").record(report.total);
  if (report.migrations > 0) {
    m.histogram("engine.migration_overhead_s")
        .record(report.migration_overhead);
  }
  if (report.power_losses > 0) {
    m.histogram("engine.recovery_overhead_s").record(report.recovery_overhead);
  }
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    if (report.faults.injected[s] == 0 && report.faults.recovered[s] == 0 &&
        report.faults.exhausted[s] == 0) {
      continue;
    }
    const auto site = std::string(
        fault::to_string(static_cast<fault::Site>(s)));
    m.counter("fault.injected." + site).add(report.faults.injected[s]);
    m.counter("fault.recovered." + site).add(report.faults.recovered[s]);
    m.counter("fault.exhausted." + site).add(report.faults.exhausted[s]);
  }
  m.counter("fault.degradations").add(report.faults.degradations);
  if (report.faults.penalty.value() > 0.0) {
    m.histogram("fault.penalty_s").record(report.faults.penalty);
  }
  if (report.storage.driven && report.storage.reclaim_time.value() > 0.0) {
    m.histogram("engine.reclaim_stall_s").record(report.storage.reclaim_time);
  }
  // Backend stats only when the run actually drove the backend (`backend`
  // is null otherwise, so an undriven run never reaches it): an idle
  // backend is pristine state, and recording its (kind-specific) zero
  // counters would make a persist-free run's metric schema depend on
  // whether the device happens to be FTL or ZNS.
  if (backend != nullptr) backend->record_metrics(m);
}

using interconnect::TransferKind;

mem::Location side_memory(ir::Placement placement) {
  return placement == ir::Placement::Csd ? mem::Location::DeviceDram
                                         : mem::Location::HostDram;
}

/// Objects produced by some line and never consumed afterwards: the
/// program's results, which must end up in host memory.
std::set<std::string> final_outputs(const ir::Program& program) {
  std::set<std::string> produced;
  for (const auto& line : program.lines()) {
    for (const auto& out : line.outputs) produced.insert(out);
  }
  for (const auto& line : program.lines()) {
    for (const auto& in : line.inputs) produced.erase(in);
  }
  return produced;
}

}  // namespace

ExecutionReport Engine::run(const ir::Program& program, const ir::Plan& plan,
                            const codegen::LoweredProgram& lowered,
                            const EngineOptions& options,
                            ir::ObjectStore* external_store) {
  ISP_CHECK(plan.placement.size() == program.line_count(),
            "plan does not match program");
  ISP_CHECK(lowered.lines.size() == program.line_count(),
            "lowered program does not match program");
  const bool have_estimates =
      plan.estimate.size() == program.line_count();
  const OutputVolumes* volumes = options.output_volumes;
  if (volumes != nullptr) {
    ISP_CHECK(volumes->size() == program.line_count(),
              "output-volume table needs one row per line: "
                  << volumes->size() << " rows, " << program.line_count()
                  << " lines");
    for (std::size_t i = 0; i < program.line_count(); ++i) {
      const auto& line = program.lines()[i];
      ISP_CHECK((*volumes)[i].size() == line.outputs.size(),
                "output-volume row of line '"
                    << line.name << "' has " << (*volumes)[i].size()
                    << " entries for " << line.outputs.size() << " outputs");
    }
  }
  ISP_CHECK(options.run_kernels || have_estimates || volumes != nullptr,
            "timing-only replay requires plan estimates or a measured "
            "output-volume table for output sizes");

  system_->reset_stats();
  auto& host = system_->host_cpu();
  auto& csd = system_->csd_device();
  auto& link = system_->link();
  auto& dma = system_->dma();
  auto& flash = csd.flash_array();

  ir::ObjectStore local_store;
  if (external_store == nullptr) {
    local_store = options.run_kernels ? program.make_store()
                                      : program.make_virtual_store();
    external_store = &local_store;
  }
  ir::ObjectStore& store = *external_store;

  // Names of storage-backed datasets: re-readable from flash on migration.
  std::set<std::string> dataset_names;
  for (const auto& d : program.datasets()) {
    if (d.object.starts_on_storage()) dataset_names.insert(d.object.name);
  }

  ExecutionReport report;
  report.program = program.name();
  report.lines.reserve(program.line_count());

  // Local availability schedules: the engine owns the timeline of this run,
  // and the copies keep the schedules' query cursors private to it (the
  // cursor cache makes a schedule non-thread-safe to share; see
  // sim/availability.hpp and the run_batch contract in exec/pool.hpp).
  sim::AvailabilitySchedule cse_schedule = options.cse_availability;
  const sim::AvailabilitySchedule host_schedule = options.host_availability;
  bool contention_fired = false;

  // Progress for the contention trigger: chunks over all planned CSD lines.
  std::uint64_t csd_chunks_total = 0;
  for (std::size_t i = 0; i < program.line_count(); ++i) {
    if (plan.placement[i] == ir::Placement::Csd) {
      csd_chunks_total += program.lines()[i].chunks;
    }
  }
  std::uint64_t csd_chunks_done = 0;

  // Monitoring needs a predicted instruction rate from the sampling phase.
  std::optional<Monitor> monitor;
  if (options.monitoring && have_estimates && plan.any_on_csd()) {
    double est_instr = 0.0;
    double est_time = 0.0;
    for (std::size_t i = 0; i < program.line_count(); ++i) {
      if (plan.placement[i] == ir::Placement::Csd) {
        est_instr += plan.estimate[i].instructions;
        est_time += plan.estimate[i].ct_device.value();
      }
    }
    if (est_instr > 0.0 && est_time > 0.0) {
      monitor.emplace(options.monitor, est_instr / est_time);
    }
  }
  double csd_instructions_cum = 0.0;

  SimTime t = SimTime::zero();

  // Code generation happens before execution starts (§III-C(d)).
  t += lowered.compile_latency;
  report.compile_overhead = lowered.compile_latency;

  // Distribute the generated CSD binary into device memory.
  bool code_distributed = lowered.csd_code_image.count() == 0;

  bool migrated = false;        // all remaining CSD lines forced to host
  bool migrate_pending = false; // decided; takes effect at end of line

  const auto bar_penalty = system_->config().bar_access_penalty;

  // Fault injection: one deterministic plan per run, wired into the DMA
  // engine and applied inline at the flash/CSE/status sites below.  With
  // every site at rate zero nothing is created or attached, so fault-free
  // runs take exactly the seed code paths (bit-for-bit identical timing).
  std::optional<fault::Injector> injector_storage;
  fault::Injector* injector = nullptr;
  if (options.fault.enabled()) {
    injector_storage.emplace(options.fault);
    injector = &*injector_storage;
  }
  dma.set_injector(injector);
  struct DmaInjectorGuard {
    interconnect::DmaEngine* dma;
    ~DmaInjectorGuard() { dma->set_injector(nullptr); }
  } dma_guard{&dma};
  const fault::FaultConfig& fcfg = options.fault;

  // Flash IO with injection at the FlashReadEcc / FlashProgram sites: each
  // faulted attempt re-reads (re-programs) a page and backs off; exhausted
  // retries escalate to RAID reconstruction / block retirement.  Either way
  // the data survives — faults here cost time, never correctness.
  auto faulted_flash_read = [&](SimTime t0, Bytes bytes, LineRecord* rec) {
    SimTime done = flash.read_finish(t0, bytes);
    if (injector != nullptr) {
      const auto op =
          injector->attempt(fault::Site::FlashReadEcc, t0,
                            flash.timing().page_read, fcfg.ecc_recovery);
      done += op.penalty;
      if (rec != nullptr) {
        rec->faults += op.faults;
        rec->fault_penalty += op.penalty;
      }
    }
    return done;
  };
  auto faulted_flash_write = [&](SimTime t0, Bytes bytes, LineRecord* rec) {
    SimTime done = flash.write_finish(t0, bytes);
    if (injector != nullptr) {
      const auto op =
          injector->attempt(fault::Site::FlashProgram, t0,
                            flash.timing().page_program, fcfg.block_retire);
      done += op.penalty;
      if (rec != nullptr) {
        rec->faults += op.faults;
        rec->fault_penalty += op.penalty;
      }
    }
    return done;
  };

  // ---- Storage backend -------------------------------------------------
  // Armed when the PowerLoss site has a rate (crashes need durable metadata
  // to recover from) or when options.drive_storage asks for it explicitly:
  // the engine then drives the device's storage backend for real (datasets
  // mounted as logical writes, result write-back through the mapping
  // machinery), and every line start / CSD chunk boundary becomes a crash
  // opportunity when armed.  With both off none of this executes and the
  // run is bit-for-bit identical to the fault-free engine, backend stats
  // included.
  const bool power_loss_on =
      injector != nullptr && fcfg.rate(fault::Site::PowerLoss) > 0.0 &&
      csd.storage().journaling();
  const bool storage_on = power_loss_on || options.drive_storage;
  flash::StorageBackend* backend = storage_on ? &csd.storage() : nullptr;
  const flash::StorageCounters storage_base =
      backend != nullptr ? backend->counters() : flash::StorageCounters{};
  std::uint64_t wb_cursor = 0;
  // Write-back traffic walks the logical space with a wrapping cursor, so
  // it is naturally extent-shaped: whole contiguous runs go through the
  // backend's span fast path (bit-for-bit the scalar loop by the
  // StorageBackend contract, pinned by the backends' span-vs-scalar
  // differential tests).
  auto backend_write_pages = [&](std::uint64_t pages) {
    const std::uint64_t logical = backend->logical_pages();
    while (pages > 0) {
      const flash::Lpn first = wb_cursor % logical;
      const std::uint64_t run = std::min<std::uint64_t>(pages, logical - first);
      backend->write_span(first, run);
      wb_cursor += run;
      pages -= run;
    }
  };
  if (backend != nullptr && backend->mounted()) {
    // Mount the program's storage datasets: their pages become live
    // mappings, charged as host writes (journal/checkpoint or zone-append
    // traffic shows up in the backend stats and write amplification exactly
    // like data does).
    const auto page = flash.geometry().page_bytes.count();
    for (const auto& name : dataset_names) {
      const auto& obj = store.at(name);
      const std::uint64_t pages =
          (obj.virtual_bytes.count() + page - 1) / page;
      backend_write_pages(pages);
    }
  }
  // In drive_storage mode the backend-internal traffic a write-back
  // triggers (reclaim copies, metadata programs, erases) stalls the device
  // for real.  Serial NAND conversion, matching the remount-time model.
  auto reclaim_stall = [&](const flash::StorageCounters& before) {
    const auto after = backend->counters();
    const std::uint64_t internal =
        (after.reclaim_pages - before.reclaim_pages) +
        (after.meta_pages - before.meta_pages);
    const std::uint64_t resets = after.resets - before.resets;
    return flash.timing().page_program * static_cast<double>(internal) +
           flash.timing().block_erase * static_cast<double>(resets);
  };
  // One whole-device power cycle: NVMe reset (in-flight commands abort and
  // requeue), CSE/firmware state cleared, FTL crash + remount.  Device DRAM
  // does not survive, so the code image must be redistributed and device-
  // resident objects fall back to their host-side shadows (shared mutable
  // memory keeps the host copy canonical) — consumers re-transfer, they
  // never recompute.
  auto apply_power_loss = [&](SimTime& tt, LineRecord* rec) {
    const auto outcome = csd.power_cycle();
    const Seconds downtime = fcfg.power_cycle + outcome.remount_time;
    injector->note_outcome(fault::Site::PowerLoss, tt, 1, downtime, false);
    ++report.power_losses;
    if (rec != nullptr) {
      rec->faults += 1;
      rec->fault_penalty += downtime;
    }
    tt += downtime;
    code_distributed = lowered.csd_code_image.count() == 0;
    // Device DRAM contents are gone: re-home every device-resident object.
    for (const auto& ln : program.lines()) {
      for (const auto& out : ln.outputs) {
        if (!store.contains(out)) continue;
        auto& obj = store.at(out);
        if (obj.location == mem::Location::DeviceDram) {
          obj.location = mem::Location::HostDram;
          obj.bar_remote = false;
        }
      }
    }
    for (const auto& name : dataset_names) {
      auto& obj = store.at(name);
      if (obj.location == mem::Location::DeviceDram) {
        // Storage-backed data needs no shadow: it re-reads from flash.
        obj.location = mem::Location::Storage;
      }
    }
    return outcome;
  };

  for (std::size_t i = 0; i < program.line_count(); ++i) {
    const auto& line = program.lines()[i];
    const auto& low = lowered.lines[i];
    // Mutable: a mid-line migration re-homes the rest of the line.
    ir::Placement placement = migrated ? ir::Placement::Host : low.placement;
    mem::Location local = side_memory(placement);

    LineRecord rec;
    rec.index = static_cast<std::uint32_t>(i);
    rec.name = line.name;
    rec.placement = placement;
    rec.start = t;

    // Every line start is a crash opportunity (host lines included: the
    // whole device power-cycles and the next storage access waits for it).
    if (power_loss_on && injector->draw(fault::Site::PowerLoss)) {
      const SimTime crash_start = t;
      apply_power_loss(t, &rec);
      report.recovery_overhead += t - crash_start;
    }

    // ---- 1. Input residency -------------------------------------------
    Bytes in_bytes{0};
    for (const auto& name : line.inputs) {
      auto& obj = store.at(name);
      in_bytes += obj.virtual_bytes;
      if (obj.location == mem::Location::Storage) {
        rec.storage_bytes += obj.virtual_bytes;
        if (placement == ir::Placement::Csd) {
          const SimTime done = faulted_flash_read(t, obj.virtual_bytes, &rec);
          flash.note_read(obj.virtual_bytes);
          rec.access += done - t;
          t = done;
        } else {
          // Host read streams through the device: NAND and link pipeline;
          // the slower stage bounds completion.
          const SimTime via_flash =
              faulted_flash_read(t, obj.virtual_bytes, &rec);
          const SimTime via_link =
              dma.transfer(t, obj.virtual_bytes, TransferKind::RawInput);
          flash.note_read(obj.virtual_bytes);
          const SimTime done = std::max(via_flash, via_link);
          rec.access += done - t;
          t = done;
        }
        obj.location = local;  // cached copy near the consumer
      } else if (obj.location != local) {
        const bool to_host = (local == mem::Location::HostDram);
        const auto kind =
            obj.bar_remote ? TransferKind::MigrationState
            : (to_host ? TransferKind::ProcessedOutput
                       : TransferKind::Intermediate);
        Seconds base = link.transfer_seconds(obj.virtual_bytes);
        if (obj.bar_remote) base = base * bar_penalty;
        SimTime done = link.availability().finish_time(t, base);
        // Stats only when fault-free; under injection the DMA path may
        // stall past the analytic bound, and the slower estimate wins.
        const SimTime via_dma = dma.transfer(t, obj.virtual_bytes, kind);
        if (injector != nullptr) done = std::max(done, via_dma);
        rec.transfer_in += done - t;
        t = done;
        obj.location = local;
        obj.bar_remote = false;
      }
    }
    rec.in_bytes = in_bytes;

    // ---- 2. Control ----------------------------------------------------
    if (placement == ir::Placement::Csd) {
      if (!code_distributed) {
        const SimTime done =
            dma.transfer(t, lowered.csd_code_image, TransferKind::CodeImage);
        rec.overhead += done - t;
        t = done;
        code_distributed = true;
      }
      if (low.enters_csd_group && !migrated) {
        // Enqueue on the call queue; the CSE fetches when free.
        ++report.csd_calls;
        csd.call_queue().submit(nvme::CallEntry{
            .function_id = report.csd_calls,
            .first_line = static_cast<std::uint32_t>(i),
            .arg_block = 0});
        (void)csd.call_queue().fetch();  // firmware picks it up immediately
        const Seconds call = csd.call_overhead();
        rec.overhead += call;
        t += call;
      }
    }
    const Seconds dispatch = options.overhead.dispatch_overhead(lowered.mode);
    rec.overhead += dispatch;
    t += dispatch;

    // ---- 3. Marshalling --------------------------------------------------
    if (low.marshalling) {
      const Seconds marshal = in_bytes / options.overhead.marshal_bandwidth;
      rec.marshal += marshal;
      t += marshal;
    }

    // ---- 4. Compute ------------------------------------------------------
    const double n_elems = line.elems_for(in_bytes);
    const Seconds work_single =
        host.work_seconds(line.cost.cycles_for(n_elems)) *
        options.overhead.compute_multiplier(lowered.mode);
    const double instructions = line.cost.instructions_for(n_elems);

    bool aborted_mid_line = false;  // migration broke this line's CSD run
    double line_frac_left = 0.0;    // fraction of the line the host resumes
    if (placement == ir::Placement::Host) {
      const Seconds wall = host.compute_seconds(work_single, line.host_threads);
      const SimTime done = host_schedule.finish_time(t, wall);
      ISP_CHECK(done < SimTime::infinity(),
                "host availability starves line '" << line.name << "'");
      rec.compute += done - t;
      t = done;
    } else {
      if (monitor && have_estimates &&
          plan.estimate[i].ct_device.value() > 0.0) {
        monitor->begin_line(plan.estimate[i].instructions /
                            plan.estimate[i].ct_device.value());
      }
      // In-order CSE cores stall once the working set outgrows the device
      // caches; stalls stretch time without retiring instructions.
      auto& cse = csd.cse();
      const Seconds wall_full =
          cse.compute_seconds(work_single, line.csd_threads) *
          line.cost.csd_stall_factor(n_elems);
      const Seconds chunk_wall = wall_full / static_cast<double>(line.chunks);
      const double chunk_instr =
          instructions / static_cast<double>(line.chunks);
      const double chunk_cycles =
          chunk_wall.value() * cse.config().clock.value();
      const bool post_status = low.status_updates && options.monitoring;
      const SimTime compute_start = t;
      std::uint32_t crashes_this_line = 0;
      std::uint32_t c = 0;
      while (c < line.chunks) {
        // Every chunk boundary is a crash opportunity.  The device power-
        // cycles; the engine restarts the offloaded function from its last
        // completed chunk when the status stream recorded progress, or from
        // the top of the line otherwise — and if crashes keep coming, the
        // degradation ladder's last rung pulls the line back to the host.
        if (power_loss_on && crashes_this_line < fcfg.retry.max_attempts &&
            injector->draw(fault::Site::PowerLoss)) {
          ++crashes_this_line;
          const SimTime crash_start = t;
          apply_power_loss(t, &rec);
          if (crashes_this_line >= fcfg.retry.max_attempts &&
              options.migration) {
            // The device keeps browning out: stop re-offloading this line.
            injector->note_degradation();
            aborted_mid_line = true;
            line_frac_left = static_cast<double>(line.chunks - c) /
                             static_cast<double>(line.chunks);
            report.recovery_overhead += t - crash_start;
            break;
          }
          if (!post_status) c = 0;  // no durable progress record: from the top
          // Re-stage what the restarted function needs: the code image and
          // the unprocessed tail of this line's inputs (datasets re-read
          // from flash, intermediates re-transferred from the host shadow),
          // then re-invoke through the call queue.
          if (!code_distributed) {
            const SimTime done = dma.transfer(t, lowered.csd_code_image,
                                              TransferKind::CodeImage);
            rec.overhead += done - t;
            t = done;
            code_distributed = true;
          }
          const double frac = static_cast<double>(line.chunks - c) /
                              static_cast<double>(line.chunks);
          for (const auto& name : line.inputs) {
            auto& obj = store.at(name);
            if (obj.location == mem::Location::DeviceDram) continue;
            const Bytes tail{static_cast<std::uint64_t>(
                obj.virtual_bytes.as_double() * frac)};
            if (obj.location == mem::Location::Storage ||
                dataset_names.count(name) > 0) {
              const SimTime done = faulted_flash_read(t, tail, &rec);
              flash.note_read(tail);
              rec.access += done - t;
              t = done;
            } else {
              const SimTime done =
                  dma.transfer(t, tail, TransferKind::Intermediate);
              rec.transfer_in += done - t;
              t = done;
            }
            obj.location = mem::Location::DeviceDram;
            obj.bar_remote = false;
          }
          const Seconds call = csd.call_overhead();
          rec.overhead += call;
          t += call;
          report.recovery_overhead += t - crash_start;
        }
        if (injector != nullptr) {
          // CSE core crash mid-chunk: a crashed core restarts (core reset
          // plus the chunk's lost progress, half a chunk on average) under
          // the bounded retry policy.  Exhausted retries mean the core will
          // not hold this line — abandon the CSD run at this chunk boundary
          // and fall through to the migration machinery below, which pulls
          // the unprocessed fraction back to the host (degradation ladder,
          // final rung: a fully-faulted device degrades to no-ISP).
          const auto op = injector->attempt(
              fault::Site::CseCrash, t, fcfg.cse_restart + chunk_wall * 0.5);
          if (op.faults > 0) {
            rec.faults += op.faults;
            rec.fault_penalty += op.penalty;
            t += op.penalty;
          }
          if (op.exhausted && options.migration) {
            injector->note_degradation();
            aborted_mid_line = true;
            line_frac_left = static_cast<double>(line.chunks - c) /
                             static_cast<double>(line.chunks);
            break;
          }
        }
        const SimTime done = cse_schedule.finish_time(t, chunk_wall);
        ISP_CHECK(done < SimTime::infinity(),
                  "CSE availability starves line '" << line.name << "'");
        t = done;
        csd_instructions_cum += chunk_instr;
        cse.retire(chunk_instr, chunk_cycles);
        ++csd_chunks_done;

        // Patched status-update code (§III-C(b)) — ActivePy instrumentation,
        // absent from conventional static frameworks (monitoring off).
        bool update_lost = false;
        if (post_status) {
          update_lost = injector != nullptr &&
                        injector->lost(fault::Site::StatusLoss, t);
          if (update_lost) {
            // Dropped on its way to the host.  The post cost was already
            // paid, and cumulative instruction counts make the stream
            // self-healing: the next update covers the gap.
            rec.faults += 1;
            if (monitor) monitor->note_lost_update();
          } else {
            csd.status_queue().post(nvme::StatusEntry{
                .line = static_cast<std::uint32_t>(i),
                .chunk = c,
                .chunks_total = line.chunks,
                .instructions_retired = csd_instructions_cum,
                .timestamp = t,
                .high_priority_request = false});
            ++report.status_updates;
          }
          constexpr auto kStatusCost = Seconds{2e-7};
          rec.overhead += kStatusCost;
          t += kStatusCost;
        }

        // Contention trigger (Figure 5 methodology).
        if (options.contention.enabled && !contention_fired &&
            csd_chunks_total > 0 &&
            static_cast<double>(csd_chunks_done) /
                    static_cast<double>(csd_chunks_total) >=
                options.contention.at_csd_progress) {
          contention_fired = true;
          cse_schedule.add_step(t, options.contention.availability);
          if (monitor && options.contention.availability <= 0.15) {
            // The device itself raises a high-priority request when it is
            // about to be starved (§III-D case 1).
            monitor->raise_high_priority();
          }
        }

        // Feed the monitor and evaluate migration.  Two options exist at a
        // status update: abort the current line at this chunk boundary and
        // re-run it from scratch on the host (lines are pure single-entry-
        // single-exit regions, so partial work is simply discarded), or —
        // when the line just finished — migrate between lines.
        if (monitor && low.status_updates && !update_lost) {
          const bool anomaly = monitor->observe(t, csd_instructions_cum);
          if (anomaly && options.migration && !migrated && !migrate_pending) {
            // Work strictly after this line, common to both options.
            double instr_rem = 0.0;
            Seconds host_rem;
            Seconds movement;
            for (std::size_t j = i + 1; j < program.line_count(); ++j) {
              if (plan.placement[j] != ir::Placement::Csd) continue;
              instr_rem += plan.estimate[j].instructions;
              host_rem += plan.estimate[j].ct_host;
              movement += plan.estimate[j].storage_in /
                          system_->storage_to_host_bandwidth();
            }
            movement +=
                options.migration_state_bytes / link.effective_bandwidth();

            const std::uint32_t chunks_left = line.chunks - (c + 1);
            if (chunks_left > 0) {
              // Break option: stop this line at the chunk boundary and let
              // the host resume the remaining fraction — per-chunk progress
              // and the line's operands live in shared mutable memory
              // (§III-C(c)), so only the unprocessed tail moves.
              const double f = static_cast<double>(chunks_left) /
                               static_cast<double>(line.chunks);
              instr_rem += plan.estimate[i].instructions * f;
              host_rem += plan.estimate[i].ct_host * f;
              movement += ((plan.estimate[i].storage_in +
                            plan.estimate[i].d_in) /
                           link.effective_bandwidth()) *
                          f;
            } else if (i + 1 < program.line_count() &&
                       plan.placement[i + 1] == ir::Placement::Csd) {
              movement += plan.estimate[i + 1].d_in /
                          link.effective_bandwidth();
            }

            if (instr_rem > 0.0) {
              const auto advice =
                  monitor->advise(instr_rem, host_rem, movement,
                                  options.overhead.compile_latency);
              if (advice.migrate) {
                migrate_pending = true;
                if (chunks_left > 0) {
                  aborted_mid_line = true;
                  line_frac_left = static_cast<double>(chunks_left) /
                                   static_cast<double>(line.chunks);
                }
                ISP_LOG_DEBUG("migration decided during line '"
                              << line.name << "' (csd remaining "
                              << advice.remaining_on_csd.value()
                              << " s vs migration cost "
                              << advice.cost_of_migration.value() << " s)");
              }
            }
          }
        }
        if (aborted_mid_line) break;
        ++c;
      }
      const Seconds elapsed = t - compute_start;
      rec.compute += elapsed;
      if (elapsed.value() > 0.0) {
        rec.observed_rate = instructions / elapsed.value();
      }

      if (aborted_mid_line) {
        // §III-D: break the CSD code at the Python-line breakpoint.  Live
        // state — per-chunk progress and the line's operands — is in shared
        // mutable memory, so the host resumes the unprocessed fraction after
        // the runtime regenerates host machine code and moves the live data.
        migrated = true;
        migrate_pending = false;
        ++report.migrations;
        const SimTime migration_start = t;
        t += options.overhead.compile_latency;  // regenerate host binary
        t = dma.transfer(t, options.migration_state_bytes,
                         TransferKind::MigrationState);
        // Earlier device-resident products are now remote live data.
        for (std::size_t j = 0; j < i; ++j) {
          for (const auto& out : program.lines()[j].outputs) {
            auto& obj = store.at(out);
            if (obj.location == mem::Location::DeviceDram) {
              obj.bar_remote = true;
            }
          }
        }
        // The unprocessed tail of this line's inputs reaches the host:
        // storage-resident data is simply re-read over NVMe, while live
        // intermediates come through the BAR window at a penalty.
        for (const auto& name : line.inputs) {
          auto& obj = store.at(name);
          if (obj.location != mem::Location::DeviceDram) continue;
          const Bytes tail{static_cast<std::uint64_t>(
              obj.virtual_bytes.as_double() * line_frac_left)};
          if (dataset_names.count(name) > 0) {
            const SimTime via_flash = faulted_flash_read(t, tail, &rec);
            const SimTime via_link =
                dma.transfer(t, tail, TransferKind::RawInput);
            flash.note_read(tail);
            const SimTime done = std::max(via_flash, via_link);
            rec.access += done - t;
            t = done;
          } else {
            const Seconds base = link.transfer_seconds(tail) * bar_penalty;
            SimTime done = link.availability().finish_time(t, base);
            const SimTime via_dma =
                dma.transfer(t, tail, TransferKind::MigrationState);
            if (injector != nullptr) done = std::max(done, via_dma);
            rec.transfer_in += done - t;
            t = done;
          }
          obj.location = mem::Location::HostDram;
          obj.bar_remote = false;
        }
        report.migration_overhead += t - migration_start;
        ISP_LOG_INFO("broke '" << line.name
                               << "' on the CSD; host resumes the remaining "
                               << line_frac_left * 100.0 << "%");

        // Resume the remaining fraction of the line on the host.
        placement = ir::Placement::Host;
        local = side_memory(placement);
        rec.placement = placement;
        const Seconds wall =
            host.compute_seconds(work_single * line_frac_left,
                                 line.host_threads);
        const SimTime done = host_schedule.finish_time(t, wall);
        rec.compute += done - t;
        t = done;
      }
    }

    // ---- 5. Kernel + outputs ---------------------------------------------
    if (options.run_kernels && line.kernel) {
      ir::KernelCtx ctx(store, line.inputs, line.outputs,
                        program.virtual_scale());
      line.kernel(ctx);
      for (const auto& name : line.outputs) {
        auto& obj = store.at(name);
        obj.sync_virtual_size(program.virtual_scale());
        obj.location = local;
        rec.out_bytes += obj.virtual_bytes;
      }
    } else {
      for (std::size_t k = 0; k < line.outputs.size(); ++k) {
        mem::DataObject obj;
        obj.name = line.outputs[k];
        obj.location = local;
        // Timing-only replay: the measured volume when the caller has a
        // functional run's table, else the planner's estimate.
        obj.virtual_bytes = volumes != nullptr ? (*volumes)[i][k]
                                               : plan.estimate[i].d_out;
        rec.out_bytes += obj.virtual_bytes;
        store.emplace(std::move(obj));
      }
    }

    // Marshalling of produced outputs back through the language boundary.
    if (low.marshalling && rec.out_bytes.count() > 0) {
      const Seconds marshal =
          rec.out_bytes / options.overhead.marshal_bandwidth;
      rec.marshal += marshal;
      t += marshal;
    }

    // Result write-back: outputs persisted to flash.  A CSD line programs
    // the NAND directly; a host line's results cross the link first (the
    // two stages pipeline, so the slower bounds completion).
    if (line.writes_storage && rec.out_bytes.count() > 0) {
      if (placement == ir::Placement::Csd) {
        const SimTime done = faulted_flash_write(t, rec.out_bytes, &rec);
        flash.note_write(rec.out_bytes);
        rec.access += done - t;
        t = done;
      } else {
        const SimTime via_link =
            dma.transfer(t, rec.out_bytes, TransferKind::Intermediate);
        const SimTime via_flash = faulted_flash_write(t, rec.out_bytes, &rec);
        flash.note_write(rec.out_bytes);
        const SimTime done = std::max(via_link, via_flash);
        rec.access += done - t;
        t = done;
      }
      if (backend != nullptr && backend->mounted()) {
        // Persisted pages go through the backend's mapping machinery: FTL
        // journal updates or ZNS zone appends, either of which can trigger
        // reclaim.  In drive_storage mode that internal traffic stalls the
        // device here, at the write-back that caused it.
        const auto page = flash.geometry().page_bytes.count();
        const std::uint64_t pages = (rec.out_bytes.count() + page - 1) / page;
        const auto before = backend->counters();
        backend_write_pages(pages);
        if (options.drive_storage) {
          const Seconds stall = reclaim_stall(before);
          if (stall.value() > 0.0) {
            rec.access += stall;
            report.storage.reclaim_time += stall;
            t += stall;
          }
        }
      }
    }

    // ---- Migration at the line boundary (§III-D) --------------------------
    if (migrate_pending && !migrated) {
      bool csd_work_remains = false;
      for (std::size_t j = i + 1; j < program.line_count(); ++j) {
        if (plan.placement[j] == ir::Placement::Csd) {
          csd_work_remains = true;
          break;
        }
      }
      if (csd_work_remains) {
        migrated = true;
        ++report.migrations;
        const SimTime migration_start = t;
        // Regenerate host machine code for the remaining lines.
        t += options.overhead.compile_latency;
        // Save live variables through the shared memory abstraction.
        const SimTime done = dma.transfer(t, options.migration_state_bytes,
                                          TransferKind::MigrationState);
        t = done;
        // Objects the CSD produced stay in device DRAM; the host reaches
        // them through the BAR at a penalty when it consumes them.
        for (std::size_t j = 0; j <= i; ++j) {
          for (const auto& out : program.lines()[j].outputs) {
            auto& obj = store.at(out);
            if (obj.location == mem::Location::DeviceDram) {
              obj.bar_remote = true;
            }
          }
        }
        report.migration_overhead += t - migration_start;
        ISP_LOG_INFO("migrated remaining lines to host after '" << line.name
                                                                << "'");
      }
      migrate_pending = false;
    }

    rec.end = t;
    report.lines.push_back(std::move(rec));
  }

  // Program results must reach host memory.
  for (const auto& name : final_outputs(program)) {
    if (!store.contains(name)) continue;
    auto& obj = store.at(name);
    if (obj.location == mem::Location::DeviceDram) {
      Seconds base = link.transfer_seconds(obj.virtual_bytes);
      if (obj.bar_remote) base = base * bar_penalty;
      SimTime done = link.availability().finish_time(t, base);
      const SimTime via_dma =
          dma.transfer(t, obj.virtual_bytes, TransferKind::ProcessedOutput);
      if (injector != nullptr) done = std::max(done, via_dma);
      t = done;
      obj.location = mem::Location::HostDram;
      obj.bar_remote = false;
    }
  }

  report.total = t - SimTime::zero();
  report.dma = dma.stats();
  report.output_volumes.reserve(program.line_count());
  for (const auto& line : program.lines()) {
    auto& row = report.output_volumes.emplace_back();
    row.reserve(line.outputs.size());
    for (const auto& name : line.outputs) {
      row.push_back(store.at(name).virtual_bytes);
    }
  }
  if (injector != nullptr) {
    report.faults = injector->summary();
    report.fault_records = injector->records();
  }
  if (backend != nullptr) {
    // Per-run deltas: what THIS run pushed through the backend, so memoised
    // replays of the same dispatch report identical activity regardless of
    // device history.
    const auto after = backend->counters();
    report.storage.driven = true;
    report.storage.backend = backend->kind();
    report.storage.host_pages = after.host_pages - storage_base.host_pages;
    report.storage.reclaim_pages =
        after.reclaim_pages - storage_base.reclaim_pages;
    report.storage.meta_pages = after.meta_pages - storage_base.meta_pages;
    report.storage.resets = after.resets - storage_base.resets;
    report.storage.reclaim_events =
        after.reclaim_events - storage_base.reclaim_events;
    report.storage.write_amplification =
        report.storage.run_write_amplification();
  }
  if (options.metrics != nullptr) {
    record_run_metrics(*options.metrics, report,
                       monitor ? monitor->lost_updates() : 0, backend);
  }
  return report;
}

ExecutionReport run_program(system::SystemModel& system,
                            const ir::Program& program, const ir::Plan& plan,
                            codegen::ExecMode mode,
                            const EngineOptions& options,
                            ir::ObjectStore* store) {
  const auto lowered = codegen::lower(program, plan, system.address_space(),
                                      mode, {}, options.overhead);
  Engine engine(system);
  return engine.run(program, plan, lowered, options, store);
}

}  // namespace isp::runtime
