// Storage-backend comparison: FTL vs ZNS vs mixed fleets under persisting
// serve workloads, identity-gated and reclaim-gated.
//
// The ZCSD argument for zoned namespaces is that append-only writes with
// host-coordinated reclaim remove the device-side storage-management
// contention Equation 1 prices for conventional SSDs: no per-write mapping
// journal (the append order *is* the mapping) and no background GC racing
// the host.  This harness measures exactly that term end to end: the same
// serving workload runs on an all-FTL, an all-ZNS and a mixed fleet, and the
// device-side reclaim stall the backends charge is compared per arm.
//
// Two gates, both hard failures:
//
//   1. Identity — per fleet arm, the serve report digest, metrics digest and
//      fleet-trace digest must be byte-identical across --jobs values and
//      with the engine-run memo cache on vs off.  Backend work is real
//      simulated device work, so it must replay exactly like every other
//      part of the simulation.
//   2. Reclaim — on the write-heavy mix the all-ZNS fleet must charge
//      strictly less device-side reclaim time than the all-FTL fleet (the
//      paper-level claim this PR reproduces).  Conservation is asserted on
//      every run: all jobs accounted, write amplification >= 1, and the
//      write-heavy mix must actually drive host page programs.
//
// Flags (strict parsing, exit 2 on malformed values — the PR 2 convention):
//   --backend ftl|zns|mixed|all  fleet arms to sweep                  [all]
//   --sim-cache on|off           memo cache in the cached arm         [on]
//   --jobs N                     worker threads for simulation batches
//   --quick                      smaller grid (sanitizer CI)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/digest.hpp"
#include "exec/cli.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"

namespace {

using namespace isp;

struct Mix {
  const char* name;
  std::vector<serve::JobClass> classes;
};

/// Write-heavy: every class persists its outputs, so each dispatch mounts
/// its dataset and pushes results through the lane's backend.  Read-heavy:
/// one small persisting class rides along a read-dominated mix, so the
/// backends engage lightly.
std::vector<Mix> make_mixes() {
  return {
      Mix{"write-heavy",
          {serve::JobClass{.app = "tpch-q6", .size_factor = 0.1,
                           .persist = true},
           serve::JobClass{.app = "kmeans", .size_factor = 0.08,
                           .persist = true}}},
      Mix{"read-heavy",
          {serve::JobClass{.app = "tpch-q6", .size_factor = 0.1},
           serve::JobClass{.app = "kmeans", .size_factor = 0.05},
           serve::JobClass{.app = "tpch-q6", .size_factor = 0.02,
                           .persist = true}}},
  };
}

serve::ServeConfig make_config(serve::BackendMix backend, const Mix& mix,
                               std::size_t fleet, std::uint64_t total_jobs,
                               unsigned jobs) {
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, 0.0, backend);
  config.tenants = {serve::TenantConfig{.weight = 1.0, .queue_depth = 16},
                    serve::TenantConfig{.weight = 2.0, .queue_depth = 16}};
  config.job_classes = mix.classes;
  config.total_jobs = total_jobs;
  config.offered_load = static_cast<double>(fleet) * 2.0;
  config.jobs = jobs;
  return config;
}

struct RunDigests {
  std::uint64_t report = 0;
  std::uint64_t metrics = 0;
  std::uint64_t trace = 0;

  [[nodiscard]] bool operator==(const RunDigests&) const = default;
};

RunDigests digests_of(const serve::ServeReport& r) {
  return RunDigests{
      .report = r.digest,
      .metrics = r.metrics.digest(),
      .trace = fnv1a(kFnvOffset, serve::to_fleet_trace(r))};
}

/// Device-side storage totals folded across the fleet's lanes.
struct StorageTotals {
  double reclaim_s = 0.0;
  std::uint64_t host_pages = 0;
  std::uint64_t internal_pages = 0;
  std::uint64_t resets = 0;

  [[nodiscard]] double wa() const {
    if (host_pages == 0) return 1.0;
    return static_cast<double>(host_pages + internal_pages) /
           static_cast<double>(host_pages);
  }
};

StorageTotals storage_of(const serve::ServeReport& r) {
  StorageTotals t;
  for (const auto& lane : r.lanes) {
    t.reclaim_s += lane.reclaim_time.value();
    t.host_pages += lane.storage_host_pages;
    t.internal_pages += lane.storage_internal_pages;
    t.resets += lane.storage_resets;
  }
  return t;
}

/// Every-run conservation: offered jobs all land somewhere, completions are
/// split exactly between host and CSD lanes, and observed per-lane write
/// amplification never dips below 1.
bool conserves(const serve::ServeReport& r) {
  bool ok = r.admitted + r.rejected == r.total_jobs &&
            r.completed == r.admitted &&
            r.csd_jobs + r.host_jobs == r.completed;
  for (const auto& lane : r.lanes) {
    ok = ok && lane.storage_write_amplification() >= 1.0;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const bool sim_cache = exec::on_off_flag(argc, argv, "--sim-cache", true);
  const std::vector<const char*> backend_names = {"ftl", "zns", "mixed",
                                                  "all"};
  const std::size_t backend_pick =
      exec::enum_flag(argc, argv, "--backend", backend_names, 3);

  std::vector<serve::BackendMix> arms;
  if (backend_pick == 3) {
    arms = {serve::BackendMix::Ftl, serve::BackendMix::Zns,
            serve::BackendMix::Mixed};
  } else {
    arms = {static_cast<serve::BackendMix>(backend_pick)};
  }

  const std::size_t fleet = quick ? 3 : 4;
  const std::uint64_t total_jobs = quick ? 12 : 24;
  const unsigned parallel_jobs = jobs > 1 ? jobs : 4;

  bench::print_header(
      "Storage backends: FTL vs ZNS vs mixed fleets, persisting serve "
      "workloads, identity- and reclaim-gated");
  std::printf("fleet %zu, %llu jobs per run; cached arm: sim-cache %s, "
              "--jobs %u vs --jobs 1 vs memo-off — identical digests "
              "required\n\n",
              fleet, static_cast<unsigned long long>(total_jobs),
              sim_cache ? "on" : "off", parallel_jobs);
  std::printf("%11s %7s | %10s %10s %8s %7s | %5s %5s\n", "mix", "fleet",
              "reclaim s", "host pg", "int pg", "wa", "ident", "cons");
  bench::print_rule();

  bool ok = true;
  std::vector<std::string> entries;
  // reclaim_s[mix][arm kind], for the write-heavy ZNS < FTL gate.
  double reclaim_ftl_write = -1.0;
  double reclaim_zns_write = -1.0;

  for (const auto& mix : make_mixes()) {
    for (const auto arm : arms) {
      auto config = make_config(arm, mix, fleet, total_jobs, parallel_jobs);
      config.sim_cache = sim_cache;
      const auto parallel = serve::serve(config);

      config.jobs = 1;
      const auto serial = serve::serve(config);

      config.jobs = parallel_jobs;
      config.sim_cache = false;
      const auto uncached = serve::serve(config);

      const bool identical = digests_of(parallel) == digests_of(serial) &&
                             digests_of(parallel) == digests_of(uncached);
      const bool conserved =
          conserves(parallel) && conserves(serial) && conserves(uncached);
      const auto totals = storage_of(parallel);
      // The write-heavy mix must genuinely drive the backends.
      const bool driven =
          std::string(mix.name) != "write-heavy" || totals.host_pages > 0;
      ok = ok && identical && conserved && driven;

      if (std::string(mix.name) == "write-heavy") {
        if (arm == serve::BackendMix::Ftl) {
          reclaim_ftl_write = totals.reclaim_s;
        } else if (arm == serve::BackendMix::Zns) {
          reclaim_zns_write = totals.reclaim_s;
        }
      }

      std::printf("%11s %7s | %10.4f %10llu %8llu %7.3f | %5s %5s\n",
                  mix.name, serve::to_string(arm), totals.reclaim_s,
                  static_cast<unsigned long long>(totals.host_pages),
                  static_cast<unsigned long long>(totals.internal_pages),
                  totals.wa(), identical ? "ok" : "DIFF",
                  conserved && driven ? "ok" : "FAIL");

      char row[512];
      std::snprintf(
          row, sizeof(row),
          "    {\"mix\": \"%s\", \"fleet\": \"%s\", \"reclaim_s\": %.6f, "
          "\"host_pages\": %llu, \"internal_pages\": %llu, \"resets\": %llu, "
          "\"wa\": %.4f, \"digests_match\": %s, \"conserved\": %s, "
          "\"digest\": \"0x%016llx\"}",
          mix.name, serve::to_string(arm), totals.reclaim_s,
          static_cast<unsigned long long>(totals.host_pages),
          static_cast<unsigned long long>(totals.internal_pages),
          static_cast<unsigned long long>(totals.resets), totals.wa(),
          identical ? "true" : "false",
          conserved && driven ? "true" : "false",
          static_cast<unsigned long long>(parallel.digest));
      entries.push_back(row);
    }
  }

  // The headline gate: append-only ZNS charges strictly less device-side
  // reclaim time than the journaling FTL under the same write-heavy mix.
  bool reclaim_gate = true;
  if (reclaim_ftl_write >= 0.0 && reclaim_zns_write >= 0.0) {
    reclaim_gate = reclaim_zns_write < reclaim_ftl_write;
    std::printf("\nwrite-heavy device reclaim: ftl %.4fs vs zns %.4fs — %s\n",
                reclaim_ftl_write, reclaim_zns_write,
                reclaim_gate ? "zns strictly lower (pass)" : "GATE FAILED");
    ok = ok && reclaim_gate;
  } else if (backend_pick == 3) {
    std::printf("\nreclaim gate skipped: missing an arm\n");
    ok = false;
  } else {
    std::printf("\nreclaim gate skipped: --backend restricted the sweep\n");
  }

  std::filesystem::create_directories("results");
  const std::string path = "results/BENCH_backend.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::fputs(entries[i].c_str(), f);
      std::fputs(i + 1 < entries.size() ? ",\n" : "\n", f);
    }
    std::fprintf(f, "  ],\n  \"reclaim_gate\": %s\n}\n",
                 reclaim_gate ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("could not write %s\n", path.c_str());
    ok = false;
  }

  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
