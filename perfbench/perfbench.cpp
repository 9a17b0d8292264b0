// perfbench: the repository's end-to-end benchmark program.
//
// One process runs one workload, built from --seed, and measures for
// --seconds of host wall clock:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see perfbench/README.md for why each was chosen):
//   serve_steady   8 FTL devices, no faults: the engine-run memo absorbs
//                  nearly every dispatch, so serve()'s decision phase,
//                  fold and obs emission carry the load.
//   serve_faulted  4 skewed FTL devices with point faults armed: every
//                  dispatch misses the memo and builds a SystemModel and
//                  runs the kernels.
//   serve_persist  mixed FTL/ZNS fleet, every class persisting, faults
//                  armed: the engine layer of serve_faulted plus storage
//                  mount/write/reclaim/journal on every dispatch.
//   paper_suite    the 10 registered apps at size_factor 1, each through
//                  one ActiveRuntime::run on one SystemModel (Figure 4).
//
// --trace 0 measures the end-to-end metrics (host jobs/s, set-up time,
// peak RSS during a measured call, and the deterministic virtual-time
// metrics).  --trace 1 is the
// layer replay: it times the benchmark's own calls into each module's
// public functions for every job class (and backend kind) of the workload,
// reads the serve report's counters, and reports the tracing overhead as
// traced-minus-untraced jobs/s.
//
// Every host time is the fastest of several repetitions: on a shared host,
// contention only ever adds time, so the minimum is the steadiest figure.
//
// Every run checks its outputs: serve's offered == completed + failed
// accounting, identical digests across the repeated measured calls, and a
// reduced-size run whose digest must be identical at one worker thread and
// at the benchmark's thread count.  A failed check prints "correct": false
// and exits 1.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The serving hot-path knobs (plan_cache, sim_cache, span_io,
// sim_cache_capacity) are deliberately never set: they stay at their
// ServeConfig defaults.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "codegen/lowering.hpp"
#include "common/digest.hpp"
#include "exec/cli.hpp"
#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "plan/assignment.hpp"
#include "plan/device_factor.hpp"
#include "plan/estimates.hpp"
#include "profile/sampler.hpp"
#include "runtime/active_runtime.hpp"
#include "runtime/engine.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"
#include "system/model.hpp"

namespace {

using namespace isp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Worker threads: the host's hardware threads, capped at 4 so one
/// workload's load (and its peak RSS) stays comparable across hosts.
unsigned bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1U, 4U);
}

/// Reset the kernel's peak-RSS mark of this process (Linux 4.0+), so that
/// the next peak_rss_mib() covers only what runs in between.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set since the last reset_peak_rss() (or since the process
/// started, where the mark cannot be reset), in MiB.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Milliseconds since `t0`.
double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// ---- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool serving;
  std::size_t devices = 0;
  std::size_t host_lanes = 1;
  double skew = 0.0;
  serve::BackendMix mix = serve::BackendMix::Ftl;
  /// WFQ tenants, weighted 1, 2, 4, ...
  std::size_t tenants = 1;
  std::vector<serve::JobClass> classes;
  /// Open-loop Poisson arrivals per virtual second.
  double offered_load = 0.0;
  /// Jobs per measured serve() call, and per reduced-size self-check.
  std::uint64_t total_jobs = 0;
  std::uint64_t check_jobs = 0;
  std::vector<std::pair<fault::Site, double>> faults;
};

std::vector<Workload> workloads() {
  using serve::JobClass;
  const std::vector<JobClass> mix = {{.app = "tpch-q6", .size_factor = 0.2},
                                     {.app = "kmeans", .size_factor = 0.05}};
  std::vector<JobClass> suite;
  for (const auto& app : apps::all_apps()) {
    suite.push_back({.app = app.name, .size_factor = 1.0});
  }
  return {
      Workload{.name = "serve_steady",
               .serving = true,
               .devices = 8,
               .skew = 0.0,
               .tenants = 3,
               .classes = mix,
               // Just under the fleet's capacity of about 3 jobs/s.
               .offered_load = 2.8,
               .total_jobs = 100000,
               .check_jobs = 2000},
      Workload{.name = "serve_faulted",
               .serving = true,
               .devices = 4,
               .skew = 0.1,
               .classes = mix,
               // About 4x the fleet's capacity of 1.5 jobs/s: the fleet
               // drains a deep backlog in full dispatch waves.
               .offered_load = 6.0,
               .total_jobs = 500,
               .check_jobs = 40,
               .faults = {{fault::Site::FlashReadEcc, 0.01},
                          {fault::Site::CseCrash, 0.01},
                          {fault::Site::StatusLoss, 0.05}}},
      Workload{.name = "serve_persist",
               .serving = true,
               .devices = 4,
               // No host fallback lane: every dispatch drives a device's
               // storage backend.
               .host_lanes = 0,
               .skew = 0.05,
               .mix = serve::BackendMix::Mixed,
               .classes = {{.app = "tpch-q6", .size_factor = 0.1,
                            .persist = true},
                           {.app = "kmeans", .size_factor = 0.08,
                            .persist = true}},
               // About 4x capacity, as for serve_faulted.
               .offered_load = 6.0,
               .total_jobs = 500,
               .check_jobs = 40,
               .faults = {{fault::Site::FlashProgram, 0.01},
                          {fault::Site::FlashReadEcc, 0.01}}},
      Workload{.name = "paper_suite", .serving = false, .classes = suite},
  };
}

serve::ServeConfig serve_config(const Workload& w, std::uint64_t seed,
                                std::uint64_t total_jobs, unsigned jobs) {
  serve::ServeConfig c;
  c.fleet = serve::FleetConfig::make(w.devices, w.host_lanes, w.skew, w.mix);
  c.tenants.clear();
  for (std::size_t t = 0; t < w.tenants; ++t) {
    serve::TenantConfig tc;
    tc.weight = static_cast<double>(1ULL << t);
    // Queues deep enough for every arrival: no job is refused, also where
    // the offered load exceeds the fleet's capacity.
    tc.queue_depth = static_cast<std::size_t>(total_jobs);
    c.tenants.push_back(tc);
  }
  c.job_classes = w.classes;
  c.total_jobs = total_jobs;
  c.offered_load = w.offered_load;
  c.seed = seed;
  c.jobs = jobs;
  for (const auto& [site, rate] : w.faults) c.fault.set_rate(site, rate);
  return c;
}

/// The same fault rates an engine run of the workload's dispatches sees.
fault::FaultConfig fault_config(const Workload& w, std::uint64_t seed) {
  fault::FaultConfig f;
  for (const auto& [site, rate] : w.faults) f.set_rate(site, rate);
  f.seed = splitmix64(seed);
  return f;
}

std::vector<flash::BackendKind> backend_kinds(const Workload& w) {
  if (w.mix == serve::BackendMix::Mixed) {
    return {flash::BackendKind::Ftl, flash::BackendKind::Zns};
  }
  return {flash::BackendKind::Ftl};
}

/// Build one class's program the way serve() does: a persisting class marks
/// its last producing line as writing to storage.
ir::Program make_class_program(const serve::JobClass& jc, std::uint64_t seed) {
  apps::AppConfig ac;
  ac.size_factor = jc.size_factor;
  ac.seed = seed;
  auto program = apps::make_app(jc.app, ac);
  if (jc.persist) {
    for (std::size_t i = program.line_count(); i-- > 0;) {
      if (!program.lines()[i].outputs.empty()) {
        program.line_mut(i).writes_storage = true;
        break;
      }
    }
  }
  program.validate();
  return program;
}

/// Dataset seed of a class program: serve() builds its classes with the
/// AppConfig default; the suite's datasets follow the workload seed.
std::uint64_t app_seed(const Workload& w, std::uint64_t seed) {
  return w.serving ? apps::AppConfig{}.seed : seed;
}

// ---- Metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Output checks; each failure is printed and turns the run incorrect.
struct Checks {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      ok = false;
    }
  }
};

// ---- Serving workloads -------------------------------------------------------

std::uint64_t failed_jobs(const serve::ServeReport& r) {
  return r.rejected + r.deadline_rejected + r.deadline_missed +
         r.retry_exhausted;
}

/// offered == completed + failed, both from the totals and recounted from
/// the per-job outcomes.
void check_accounting(const serve::ServeReport& r, Checks& checks) {
  std::uint64_t completed = 0;
  for (const auto& o : r.outcomes) completed += o.completed() ? 1 : 0;
  checks.expect(r.outcomes.size() == r.total_jobs,
                "one outcome per offered job");
  checks.expect(r.total_jobs == r.completed + failed_jobs(r),
                "offered == completed + failed");
  checks.expect(completed == r.completed, "completed matches the outcomes");
}

/// Host wall clock and memory of the measured calls.
struct Timing {
  std::vector<double> walls;         // untraced calls, seconds
  std::vector<double> rates;         // untraced calls, jobs per second
  std::vector<double> peaks;         // untraced calls, peak RSS in MiB
  std::vector<double> traced_rates;  // traced calls (--trace 1 only)
};

/// Repeat `call` (which returns the jobs it completed) until `seconds` of
/// wall clock have passed.  When `traced`, the calls alternate untraced
/// and traced (timed through the millisecond stopwatch of the layer
/// replay), so warm-up and drift fall on both sides of the
/// tracing-overhead difference alike.
template <typename Call>
Timing measure(double seconds, bool traced, Call&& call) {
  Timing t;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    reset_peak_rss();
    const auto c0 = Clock::now();
    const double jobs = call();
    if (traced && i % 2 == 1) {
      t.traced_rates.push_back(jobs * 1e3 / ms_since(c0));
    } else {
      const double wall = seconds_since(c0);
      t.walls.push_back(wall);
      t.rates.push_back(jobs / wall);
      t.peaks.push_back(peak_rss_mib());
    }
    if (seconds_since(t0) >= seconds && (!traced || !t.traced_rates.empty())) {
      return t;
    }
  }
}

/// Reduced-size run at one worker and at the benchmark's thread count: the
/// virtual-time outputs must not depend on threading.
void serve_self_check(const Workload& w, std::uint64_t seed, unsigned threads,
                      Checks& checks) {
  const auto serial = serve::serve(serve_config(w, seed, w.check_jobs, 1));
  const auto parallel =
      serve::serve(serve_config(w, seed, w.check_jobs, threads));
  check_accounting(serial, checks);
  checks.expect(serial.digest == parallel.digest &&
                    serial.metrics.digest() == parallel.metrics.digest(),
                "reduced-size digest identical at 1 and " +
                    std::to_string(threads) + " threads");
  std::printf("self-check: %llu jobs, digest 0x%016llx at 1 and %u threads\n",
              static_cast<unsigned long long>(w.check_jobs),
              static_cast<unsigned long long>(serial.digest), threads);
}

std::vector<Metric> serving_sim_metrics(const serve::ServeReport& r) {
  double work = 0.0;
  for (const auto& o : r.outcomes) {
    if (o.completed()) work += o.service.value();
  }
  return {{"sim_jobs_per_s", r.throughput, "1/sim_s"},
          {"sim_p50_latency_s", r.p50_latency.value(), "sim_s"},
          {"sim_p99_latency_s", r.p99_latency.value(), "sim_s"},
          {"sim_total_s", work, "sim_s"}};
}

// ---- Paper suite -------------------------------------------------------------

struct SuiteRun {
  std::vector<double> totals;  // virtual end_to_end() per app, seconds
  std::vector<double> walls;   // host wall clock per app run, seconds
  std::uint64_t digest = kFnvOffset;
};

std::uint64_t fold_app(std::uint64_t h, const runtime::RunResult& r) {
  for (const auto p : r.plan.placement) {
    h = fnv1a(h, static_cast<std::uint64_t>(p));
  }
  return fnv1a(h, double_bits(r.end_to_end().value()));
}

/// One full pass: every app through ActiveRuntime::run on one SystemModel.
SuiteRun run_suite(const std::vector<ir::Program>& programs) {
  system::SystemModel system(system::SystemConfig::paper_platform());
  runtime::ActiveRuntime active(system);
  SuiteRun out;
  for (const auto& program : programs) {
    const auto t0 = Clock::now();
    const auto r = active.run(program);
    out.walls.push_back(seconds_since(t0));
    out.totals.push_back(r.end_to_end().value());
    out.digest = fold_app(out.digest, r);
  }
  return out;
}

/// Reduced-size suite, each app on its own SystemModel, folded in app
/// order: serially and through exec::run_batch at `threads`.
void suite_self_check(const Workload& w, std::uint64_t seed, unsigned threads,
                      Checks& checks) {
  std::vector<ir::Program> programs;
  for (auto jc : w.classes) {
    jc.size_factor = 0.05;
    programs.push_back(make_class_program(jc, seed));
  }
  auto digest_at = [&](unsigned jobs) {
    const auto results = exec::run_batch(
        programs.size(),
        [&](std::size_t i) {
          system::SystemModel system(system::SystemConfig::paper_platform());
          runtime::ActiveRuntime active(system);
          return fold_app(kFnvOffset, active.run(programs[i]));
        },
        jobs);
    std::uint64_t h = kFnvOffset;
    for (const auto d : results) h = fnv1a(h, d);
    return h;
  };
  const auto serial = digest_at(1);
  checks.expect(serial == digest_at(threads),
                "reduced-size suite digest identical at 1 and " +
                    std::to_string(threads) + " threads");
  std::printf("self-check: suite at size 0.05, digest 0x%016llx at 1 and %u "
              "threads\n",
              static_cast<unsigned long long>(serial), threads);
}

std::vector<Metric> suite_sim_metrics(const SuiteRun& run) {
  std::vector<double> sorted = run.totals;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (const double t : sorted) total += t;
  return {{"sim_jobs_per_s", static_cast<double>(sorted.size()) / total,
           "1/sim_s"},
          {"sim_p50_latency_s", obs::percentile_sorted(sorted, 0.50), "sim_s"},
          {"sim_p99_latency_s", obs::percentile_sorted(sorted, 0.99), "sim_s"},
          {"sim_total_s", total, "sim_s"}};
}

// ---- Layer replay (--trace 1) ------------------------------------------------

/// Run `fn` up to three times (stopping once a second has been spent);
/// `prepare` runs before each repetition, outside the stopwatch.  Returns
/// the fastest repetition in milliseconds.
template <typename Prepare, typename Fn>
double timed_ms(Prepare&& prepare, Fn&& fn) {
  std::vector<double> ms;
  double spent = 0.0;
  do {
    prepare();
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
    spent += ms.back();
  } while (ms.size() < 3 && spent < 1000.0);
  return min_of(ms);
}

template <typename Fn>
double timed_ms(Fn&& fn) {
  return timed_ms([] {}, fn);
}

struct LayerTimes {
  double make_app = 0, make_store = 0, sample = 0, estimate = 0, assign = 0,
         lower = 0, functional = 0, timing = 0, storage = 0, storage_zns = 0;
  std::uint64_t mismatches = 0;
};

/// A class ready for replayed dispatches: its program and Algorithm-1 plan.
struct PlannedClass {
  ir::Program program;
  ir::Plan plan;
};

/// Time every layer of the pipeline for one class, summing into `t`.
PlannedClass replay_class(const Workload& w, const serve::JobClass& jc,
                          std::uint64_t seed, LayerTimes& t) {
  const auto mode = codegen::ExecMode::CompiledNoCopy;
  const auto sc = system::SystemConfig::paper_platform();

  ir::Program program = make_class_program(jc, app_seed(w, seed));
  t.make_app += timed_ms([&] {
    program = make_class_program(jc, app_seed(w, seed));
  });
  t.make_store += timed_ms([&] {
    const auto store = program.make_store();
    (void)store;
  });

  system::SystemModel system(sc);
  profile::SampleSet samples;
  t.sample += timed_ms([&] {
    samples = profile::Sampler(system).run(program);
  });
  std::vector<ir::LineEstimate> estimates;
  t.estimate += timed_ms([&] {
    const auto factor = plan::device_factor_from_counters(system);
    estimates = plan::build_estimates(program, samples, factor, system);
  });
  plan::AssignmentResult assignment;
  t.assign += timed_ms([&] {
    assignment = plan::assign_csd(program, estimates, system);
  });
  t.lower += timed_ms([&] {
    const auto lowered = codegen::lower(program, assignment.plan,
                                        system.address_space(), mode);
    (void)lowered;
  });

  // Engine runs, each on a fresh SystemModel built outside the stopwatch.
  runtime::EngineOptions options;
  options.fault = fault_config(w, seed);
  std::optional<system::SystemModel> fresh;
  auto engine_ms = [&](const system::SystemConfig& config,
                       const runtime::EngineOptions& opts, double& total_s) {
    return timed_ms([&] { fresh.emplace(config); },
                    [&] {
                      total_s = runtime::run_program(*fresh, program,
                                                     assignment.plan, mode,
                                                     opts)
                                    .total.value();
                    });
  };
  double functional_total = 0.0, timing_total = 0.0, storage_total = 0.0;
  t.functional += engine_ms(sc, options, functional_total);
  auto timing = options;
  timing.run_kernels = false;
  t.timing += engine_ms(sc, timing, timing_total);
  // Storage runs on every backend kind of the workload's fleet.
  auto storage = options;
  storage.drive_storage = true;
  for (const auto kind : backend_kinds(w)) {
    auto backend_sc = sc;
    backend_sc.csd.backend = kind;
    const double ms = engine_ms(backend_sc, storage, storage_total);
    t.storage += ms;
    if (kind == flash::BackendKind::Zns) t.storage_zns += ms;
  }
  if (timing_total != functional_total) {
    ++t.mismatches;
    std::printf("timing-only mismatch: %s@%g functional %.6f s, timing-only "
                "%.6f s\n",
                jc.app.c_str(), jc.size_factor, functional_total,
                timing_total);
  }
  return PlannedClass{std::move(program), std::move(assignment.plan)};
}

/// A batch of independent dispatch-like engine runs (fresh SystemModel per
/// task, cycling classes and backend kinds), timed at one worker and at
/// `threads` after one untimed warm-up batch; returns serial / parallel
/// wall time.
double parallel_speedup(const Workload& w, const std::vector<PlannedClass>& pcs,
                        std::uint64_t seed, unsigned threads, Checks& checks) {
  const auto kinds = backend_kinds(w);
  const std::size_t n =
      std::max<std::size_t>(pcs.size() * kinds.size(), 4 * threads);
  auto batch = [&](unsigned jobs) {
    return exec::run_batch(
        n,
        [&](std::size_t i) {
          const auto& pc = pcs[i % pcs.size()];
          auto sc = system::SystemConfig::paper_platform();
          sc.csd.backend = kinds[(i / pcs.size()) % kinds.size()];
          system::SystemModel system(sc);
          runtime::EngineOptions options;
          options.fault = fault_config(w, seed + i);
          options.drive_storage = w.classes[i % pcs.size()].persist;
          return runtime::run_program(system, pc.program, pc.plan,
                                      codegen::ExecMode::CompiledNoCopy,
                                      options)
              .total.value();
        },
        jobs);
  };
  const auto warm = batch(threads);
  std::vector<double> serial, parallel;
  const double serial_ms = timed_ms([&] { serial = batch(1); });
  const double parallel_ms = timed_ms([&] { parallel = batch(threads); });
  checks.expect(serial == warm && parallel == warm,
                "replayed dispatch batch identical at 1 and " +
                    std::to_string(threads) + " threads");
  return serial_ms / parallel_ms;
}

/// Serve-report counters for the per-layer metrics; all zero when `r` is
/// null (the suite serves nothing).
std::vector<Metric> serve_counters(const serve::ServeReport* r,
                                   double wall_s) {
  double memo = 0, bid = 0, engine_runs = 0, lost = 0, retried = 0;
  double host_pages = 0, internal_pages = 0, gc = 0, copies = 0, stall = 0,
         injected = 0;
  if (r != nullptr) {
    const auto memo_total = r->sim_cache_hits + r->sim_cache_misses;
    const auto bid_total = r->bid_cache_hits + r->bid_cache_misses;
    memo = memo_total ? static_cast<double>(r->sim_cache_hits) /
                            static_cast<double>(memo_total)
                      : 0.0;
    bid = bid_total ? static_cast<double>(r->bid_cache_hits) /
                          static_cast<double>(bid_total)
                    : 0.0;
    engine_runs = static_cast<double>(r->sim_cache_misses);
    lost = static_cast<double>(r->lost_in_flight);
    retried = static_cast<double>(r->retried);
    for (const auto& ls : r->lanes) {
      host_pages += static_cast<double>(ls.storage_host_pages);
      internal_pages += static_cast<double>(ls.storage_internal_pages);
    }
    gc = static_cast<double>(r->metrics.counter_value("ftl.gc_writes"));
    copies = static_cast<double>(r->metrics.counter_value("zns.reclaim_copies"));
    if (const auto* h = r->metrics.find_histogram("engine.reclaim_stall_s")) {
      stall = h->sum();
    }
    for (const auto& [name, c] : r->metrics.counters()) {
      if (name.rfind("fault.injected.", 0) == 0) {
        injected += static_cast<double>(c.value);
      }
    }
  }
  const double wa =
      host_pages > 0 ? (host_pages + internal_pages) / host_pages : 0.0;
  return {{"serve.wall_s", wall_s, "s"},
          {"serve.engine_runs", engine_runs, "count"},
          {"serve.memo_hit_ratio", memo, "ratio"},
          {"serve.bid_hit_ratio", bid, "ratio"},
          {"serve.lost_in_flight", lost, "count"},
          {"serve.retried", retried, "count"},
          {"storage.host_pages", host_pages, "count"},
          {"storage.internal_pages", internal_pages, "count"},
          {"storage.wa", wa, "ratio"},
          {"ftl.gc_writes", gc, "count"},
          {"zns.reclaim_copies", copies, "count"},
          {"engine.reclaim_stall_s", stall, "sim_s"},
          {"fault.injected", injected, "count"}};
}

/// Print whether the workload still loads the layer it was chosen for
/// (informational: the counters are reported either way).
void print_role(const Workload& w, const std::vector<Metric>& metrics) {
  auto value = [&](const std::string& name) {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double memo = value("serve.memo_hit_ratio");
  const double pages = value("storage.host_pages");
  const std::string name = w.name;
  bool ok = true;
  if (name == "serve_steady") ok = memo >= 0.99 && pages == 0;
  if (name == "serve_faulted") ok = memo <= 0.01 && pages == 0;
  if (name == "serve_persist") ok = memo <= 0.01 && pages > 0;
  if (name == "paper_suite") ok = pages == 0;
  std::printf("role check (%s): memo hit ratio %.4f, storage host pages %.0f "
              "-> %s\n",
              w.name, memo, pages, ok ? "ok" : "NOT AS DESIGNED");
}

// ---- Main run ----------------------------------------------------------------

/// Time `parts` builds, `build(i)` for i in [0, parts), in batches of
/// `per_batch` rounds until at least three batches and half a second are
/// spent.  Returns the sum over the parts of each part's fastest batch,
/// per round.
template <typename Build>
double time_setup(std::size_t parts, std::size_t per_batch, Build&& build) {
  std::vector<double> fastest(parts, std::numeric_limits<double>::infinity());
  double spent = 0.0;
  for (std::size_t batches = 0; batches < 3 || spent < 0.5; ++batches) {
    for (std::size_t i = 0; i < parts; ++i) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < per_batch; ++k) build(i);
      const double batch = seconds_since(t0);
      fastest[i] =
          std::min(fastest[i], batch / static_cast<double>(per_batch));
      spent += batch;
    }
  }
  double total = 0.0;
  for (const double t : fastest) total += t;
  return total;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const unsigned threads = bench_threads();
  Checks checks;

  // Set-up: what the measured calls are handed.  A serve call gets its
  // ServeConfig (serve() builds the class programs itself, inside the
  // measured call); a suite pass gets the 10 programs and their datasets.
  std::vector<std::optional<ir::Program>> built(
      w.serving ? 0 : w.classes.size());
  serve::ServeConfig config;
  const double setup_s =
      w.serving
          ? time_setup(1, 1000,
                       [&](std::size_t) {
                         config = serve_config(w, seed, w.total_jobs, threads);
                       })
          : time_setup(built.size(), 1, [&](std::size_t i) {
              built[i].emplace(
                  make_class_program(w.classes[i], app_seed(w, seed)));
            });
  std::vector<ir::Program> programs;
  for (auto& program : built) programs.push_back(std::move(*program));
  built.clear();
  std::printf("setup: fastest %.9f s\n", setup_s);

  if (w.serving) {
    serve_self_check(w, seed, threads, checks);
  } else {
    suite_self_check(w, seed, threads, checks);
  }

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  // The measured calls; every repetition must reproduce the first one's
  // digests, and the first one's outputs are reported.  Only the layer
  // replay keeps the whole first report, so that peak RSS without tracing
  // is serve()'s own.
  Timing timing;
  std::vector<Metric> sim;
  std::optional<serve::ServeReport> served;
  // Host contention only ever slows a call down, so the fastest call is
  // reported: a serve call as a whole; the suite app by app, from each
  // app's fastest run over the passes.
  double jobs_per_s = 0.0;
  if (w.serving) {
    std::optional<std::pair<std::uint64_t, std::uint64_t>> first;
    timing = measure(seconds, trace, [&] {
      auto report = serve::serve(config);
      check_accounting(report, checks);
      const std::pair digests{report.digest, report.metrics.digest()};
      if (first) {
        checks.expect(digests == *first,
                      "repeated serve() calls give identical digests");
      } else {
        first = digests;
        sim = serving_sim_metrics(report);
      }
      attempted += report.total_jobs;
      failed += failed_jobs(report);
      const auto completed = static_cast<double>(report.completed);
      if (trace && !served) served = std::move(report);
      return completed;
    });
    digest = first->first;
    jobs_per_s = max_of(timing.rates);
    std::printf("serve: %zu untraced call(s) of %llu jobs, wall min %.4f "
                "max %.4f s, %u threads, failed_share %.6f, "
                "digest 0x%016llx\n",
                timing.walls.size(),
                static_cast<unsigned long long>(w.total_jobs),
                min_of(timing.walls), max_of(timing.walls), threads,
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(digest));
  } else {
    std::optional<SuiteRun> first;
    std::vector<double> fastest(programs.size(),
                                std::numeric_limits<double>::infinity());
    timing = measure(seconds, trace, [&] {
      auto pass = run_suite(programs);
      for (std::size_t i = 0; i < fastest.size(); ++i) {
        fastest[i] = std::min(fastest[i], pass.walls[i]);
      }
      if (first) {
        checks.expect(pass.digest == first->digest,
                      "repeated suite passes give identical digests");
      } else {
        first = std::move(pass);
      }
      attempted += programs.size();
      return static_cast<double>(programs.size());
    });
    digest = first->digest;
    sim = suite_sim_metrics(*first);
    double fastest_pass = 0.0;
    for (const double t : fastest) fastest_pass += t;
    jobs_per_s = static_cast<double>(programs.size()) / fastest_pass;
    std::printf("paper_suite: %zu untraced pass(es) of %zu apps, wall min "
                "%.4f max %.4f s, failed_share 0, digest 0x%016llx\n",
                timing.walls.size(), programs.size(), min_of(timing.walls),
                max_of(timing.walls), static_cast<unsigned long long>(digest));
  }
  if (!trace) {
    metrics = {{"jobs_per_s", jobs_per_s, "1/s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mib", median(timing.peaks), "MiB"}};
    metrics.insert(metrics.end(), sim.begin(), sim.end());
  } else {
    metrics = serve_counters(served ? &*served : nullptr,
                             w.serving ? min_of(timing.walls) : 0.0);
    print_role(w, metrics);

    // obs emission of the reported (first) measured output.
    double emit_ms = 0.0;
    if (served) {
      emit_ms = timed_ms([&] {
        const auto a = served->to_json();
        const auto b = serve::to_fleet_trace(*served);
        const auto c = served->metrics.to_json();
        (void)a, (void)b, (void)c;
      });
    } else {
      system::SystemModel system(system::SystemConfig::paper_platform());
      runtime::ActiveRuntime active(system);
      std::vector<runtime::RunResult> results;
      for (const auto& p : programs) results.push_back(active.run(p));
      emit_ms = timed_ms([&] {
        for (const auto& r : results) (void)r.report.to_json();
      });
    }

    // Tracing overhead, whole call against whole call on both sides.
    const double untraced_rate = max_of(timing.rates);
    const double traced_rate = max_of(timing.traced_rates);

    LayerTimes lt;
    std::vector<PlannedClass> planned;
    for (const auto& jc : w.classes) {
      planned.push_back(replay_class(w, jc, seed, lt));
    }
    double build_ftl = 0.0, build_zns = 0.0;
    for (const auto kind : backend_kinds(w)) {
      auto sc = system::SystemConfig::paper_platform();
      sc.csd.backend = kind;
      const bool zns = kind == flash::BackendKind::Zns;
      const double ms = timed_ms([&] { system::SystemModel system(sc); });
      (zns ? build_zns : build_ftl) = ms;
    }
    const double speedup =
        parallel_speedup(w, planned, seed, threads, checks);

    const std::vector<Metric> layers = {
        {"system.build_ftl_ms", build_ftl, "ms"},
        {"system.build_zns_ms", build_zns, "ms"},
        {"apps.make_app_ms", lt.make_app, "ms"},
        {"ir.make_store_ms", lt.make_store, "ms"},
        {"profile.sample_ms", lt.sample, "ms"},
        {"plan.estimate_ms", lt.estimate, "ms"},
        {"plan.assign_ms", lt.assign, "ms"},
        {"codegen.lower_ms", lt.lower, "ms"},
        {"runtime.run_functional_ms", lt.functional, "ms"},
        {"runtime.run_timing_ms", lt.timing, "ms"},
        {"runtime.run_storage_ms", lt.storage, "ms"},
        {"runtime.run_storage_zns_ms", lt.storage_zns, "ms"},
        {"runtime.timing_only_mismatches",
         static_cast<double>(lt.mismatches), "count"},
        {"exec.parallel_speedup", speedup, "x"},
        {"obs.emit_ms", emit_ms, "ms"},
        {"trace.overhead_jobs_per_s", traced_rate - untraced_rate, "1/s"}};
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    std::printf("jobs_per_s untraced %.6g, traced %.6g\n", untraced_rate,
                traced_rate);
  }

  print_result(checks.ok, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = exec::string_flag(argc, argv, "--workload", nullptr);
  const auto all = workloads();
  const Workload* workload = nullptr;
  for (const auto& w : all) {
    if (name != nullptr && std::string(name) == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: --workload must be one of");
    for (const auto& w : all) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::uint64_t seed =
      exec::u64_flag(argc, argv, "--seed", 1, 0, UINT64_MAX);
  const double seconds =
      exec::double_flag(argc, argv, "--seconds", 10.0, 0.0, 3600.0);
  const bool trace = exec::u64_flag(argc, argv, "--trace", 0, 0, 1) == 1;
  try {
    return run(*workload, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
