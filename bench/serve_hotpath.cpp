// Serving hot-path benchmark: end-to-end serve() throughput with the
// engine-run memo cache on vs off, gated on both speedup and byte-identity.
//
// Sweeps fleet size x offered job count and, per grid point, runs the
// identical workload three ways:
//
//   off     sim_cache=off — one engine simulation per dispatch.
//   on      the digest-verified engine-run memo cache (whatever --sim-cache
//           says).
//   serial  the on-arm re-run at --jobs 1.
//
// Two gates, both hard failures:
//
//   1. Identity — the serve report digest, the metrics registry digest and
//      the FNV-1a digest of the fleet Perfetto trace must be byte-identical
//      across all three arms at every grid point.  The cache is exact or it
//      is wrong.
//   2. Speedup — at the largest fleet x jobs point the on-arm must complete
//      the sweep at >= 2x the off-arm's end-to-end wall throughput.
//
// Wall-clock numbers are the point of this harness, so (unlike the other
// serve benches) they print to stdout; only the identity columns are
// machine-checked.  results/BENCH_hotpath.json records the full grid.
//
// Flags (strict parsing, exit 2 on malformed values — the PR 2 convention):
//   --hotpath-fleet F    largest fleet size in the sweep              [8]
//   --fleet-skew S       per-device CSE availability skew             [0.0]
//   --sim-cache on|off   engine-run memo cache in the on-arm          [on]
//   --jobs N             worker threads for the simulation batches
//   --quick              largest fleet only, one job count (sanitizer CI)
#include <chrono>
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

using Clock = std::chrono::steady_clock;

isp::serve::ServeConfig make_config(std::size_t fleet,
                                    std::uint64_t total_jobs, double skew,
                                    unsigned jobs) {
  using namespace isp;
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, skew);
  config.tenants.clear();
  for (std::size_t t = 0; t < 3; ++t) {
    serve::TenantConfig tc;
    tc.weight = static_cast<double>(1ULL << t);  // 1, 2, 4
    tc.queue_depth = 32;
    config.tenants.push_back(tc);
  }
  config.job_classes = {serve::JobClass{.app = "tpch-q6", .size_factor = 0.2},
                        serve::JobClass{.app = "kmeans", .size_factor = 0.05}};
  config.total_jobs = total_jobs;
  // Roughly 2x the fleet's service capacity (~fleet/2 jobs per virtual
  // second at these job classes): the queues stay deep, so candidate starts
  // sit on lane busy_until instead of per-job arrival instants.
  config.offered_load = static_cast<double>(fleet);
  config.jobs = jobs;
  return config;
}

/// The three identity digests of one serve run, folded into comparable form.
struct RunDigests {
  std::uint64_t report = 0;
  std::uint64_t metrics = 0;
  std::uint64_t trace = 0;

  [[nodiscard]] bool operator==(const RunDigests&) const = default;
};

RunDigests digests_of(const isp::serve::ServeReport& r) {
  return RunDigests{
      .report = r.digest,
      .metrics = r.metrics.digest(),
      .trace = isp::fnv1a(isp::kFnvOffset, isp::serve::to_fleet_trace(r))};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const auto fleet_max = static_cast<std::size_t>(
      exec::u64_flag(argc, argv, "--hotpath-fleet", 8, 2, 64));
  // Default skew 0: every device shares one availability schedule, the
  // steady-state the memo cache is built for.  A non-zero skew still gates
  // identity (and usually still clears 2x) but shrinks the hit rate.
  const double skew =
      exec::double_flag(argc, argv, "--fleet-skew", 0.0, 0.0, 0.33);
  const bool sim_cache = exec::on_off_flag(argc, argv, "--sim-cache", true);

  std::vector<std::size_t> fleets;
  if (!quick) {
    if (fleet_max > 2) fleets.push_back(2);
    if (fleet_max / 2 > 2) fleets.push_back(fleet_max / 2);
  }
  fleets.push_back(fleet_max);
  const std::vector<std::uint64_t> job_counts =
      quick ? std::vector<std::uint64_t>{48}
            : std::vector<std::uint64_t>{32, 96};

  bench::print_header(
      "Serving hot path: engine-run memo, on vs off, identity-gated");
  std::printf("on-arm: sim-cache %s; off-arm: sim-cache off; identical "
              "digests required\n\n",
              sim_cache ? "on" : "off");
  std::printf("%5s %5s | %9s %9s %8s | %6s %6s | %5s %5s\n", "fleet",
              "jobs", "off s", "on s", "speedup", "simhit", "simmis",
              "ident", "gate");
  bench::print_rule();

  std::vector<std::string> entries;
  bool ok = true;
  for (const std::size_t fleet : fleets) {
    for (const std::uint64_t total : job_counts) {
      auto off_config = make_config(fleet, total, skew, jobs);
      off_config.sim_cache = false;
      const auto off0 = Clock::now();
      const auto off = serve::serve(off_config);
      const double wall_off =
          std::chrono::duration<double>(Clock::now() - off0).count();

      auto on_config = make_config(fleet, total, skew, jobs);
      on_config.sim_cache = sim_cache;
      const auto on0 = Clock::now();
      const auto on = serve::serve(on_config);
      const double wall_on =
          std::chrono::duration<double>(Clock::now() - on0).count();

      auto serial_config = on_config;
      serial_config.jobs = 1;
      const auto serial = serve::serve(serial_config);

      const auto d_off = digests_of(off);
      const auto d_on = digests_of(on);
      const auto d_serial = digests_of(serial);
      const bool identical = d_off == d_on && d_on == d_serial;

      const double speedup = wall_on > 0.0 ? wall_off / wall_on : 0.0;
      // The throughput gate binds only at the largest point, and only with
      // the memo cache in the on-arm.  Unlike a serial-vs-parallel ratio this
      // speedup is meaningful on a single-core host too — the memo cache
      // removes engine runs outright rather than overlapping them.
      const bool gated = fleet == fleets.back() && total == job_counts.back() &&
                         sim_cache;
      const bool fast_enough = !gated || speedup >= 2.0;
      ok = ok && identical && fast_enough;

      std::printf("%5zu %5llu | %9.3f %9.3f %7.2fx | %6llu %6llu | %5s %5s\n",
                  fleet, static_cast<unsigned long long>(total), wall_off,
                  wall_on, speedup,
                  static_cast<unsigned long long>(on.sim_cache_hits),
                  static_cast<unsigned long long>(on.sim_cache_misses),
                  identical ? "ok" : "DIFF",
                  gated ? (fast_enough ? "pass" : "FAIL") : "-");

      char row[512];
      std::snprintf(
          row, sizeof(row),
          "    {\"fleet\": %zu, \"jobs\": %llu, \"wall_off_s\": %.6f, "
          "\"wall_on_s\": %.6f, \"speedup\": %.4f, \"sim_cache_hits\": %llu, "
          "\"sim_cache_misses\": %llu, \"sim_cache_evictions\": %llu, "
          "\"digests_match\": %s, \"gated\": %s, "
          "\"digest\": \"0x%016llx\"}",
          fleet, static_cast<unsigned long long>(total), wall_off, wall_on,
          speedup,
          static_cast<unsigned long long>(on.sim_cache_hits),
          static_cast<unsigned long long>(on.sim_cache_misses),
          static_cast<unsigned long long>(on.sim_cache_evictions),
          identical ? "true" : "false", gated ? "true" : "false",
          static_cast<unsigned long long>(on.digest));
      entries.push_back(row);
    }
  }

  std::filesystem::create_directories("results");
  const std::string path = "results/BENCH_hotpath.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::fputs(entries[i].c_str(), f);
      std::fputs(i + 1 < entries.size() ? ",\n" : "\n", f);
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    ok = false;
  }

  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
