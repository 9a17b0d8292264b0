// Multi-tenant serving capacity sweep: offered load × fleet size.
//
// Drives the src/serve/ subsystem over a grid of fleet sizes and offered
// loads and reports, per grid point, the serving metrics that matter for
// capacity planning: throughput (completed jobs per virtual second), p50/p99
// virtual latency, the admission-control rejection rate, and per-device
// utilisation.  Everything printed to stdout is virtual-time only and
// byte-identical across --jobs values (the serving loop's determinism
// contract); wall-clock timings go to stderr.
//
// Flags (strict parsing, exit 2 on malformed values — the PR 2 convention):
//   --tenants T       weighted tenants (weights cycle 1,2,4)       [4]
//   --fleet F         largest fleet size in the sweep              [4]
//   --offered-load L  middle offered load, jobs per virtual second [1.0]
//   --queue-depth Q   per-tenant admission queue bound             [8]
//   --kill-device k@t kill CSD lane k at virtual time t (repeatable)
//   --deadline S           per-job start-deadline SLO in seconds (0 = off) [0]
//   --retry-budget R  serve-layer retries per job lost to a death  [2]
//   --breaker-threshold X  per-lane health breaker trip score      [12]
//   --fleet-skew S    per-device CSE availability skew             [0.05]
//   --sim-cache on|off   digest-verified engine-run memo cache     [on]
//   --jobs N          worker threads for the simulation batches
//   --quick           one grid point per fleet size (sanitizer CI)
//   --trace-out P     write the last grid point's fleet Perfetto timeline
//   --metrics-out P   write the last grid point's metrics + snapshots JSON
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "exec/cli.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Failure-domain knobs threaded through unchanged from the command line;
/// the defaults reproduce the pre-failure-domain sweep byte for byte.
struct DomainKnobs {
  std::vector<isp::exec::KillSpec> kills;
  double slo = 0.0;
  std::uint32_t retry_budget = 2;
  double breaker_threshold = 12.0;
  double fleet_skew = 0.05;
  // Engine-run memo cache — exact, so output is identical either way; the
  // toggle exists for bisecting.
  bool sim_cache = true;
};

isp::serve::ServeConfig make_config(std::size_t fleet, double offered_load,
                                    std::size_t tenants,
                                    std::size_t queue_depth,
                                    std::uint64_t total_jobs, unsigned jobs,
                                    const DomainKnobs& domain) {
  using namespace isp;
  serve::ServeConfig config;
  config.fleet = serve::FleetConfig::make(fleet, 1, domain.fleet_skew);
  config.tenants.clear();
  for (std::size_t t = 0; t < tenants; ++t) {
    serve::TenantConfig tc;
    tc.weight = static_cast<double>(1ULL << (t % 3));  // 1, 2, 4, 1, ...
    tc.queue_depth = queue_depth;
    if (domain.slo > 0.0) tc.slo = Seconds{domain.slo};
    config.tenants.push_back(tc);
  }
  for (const auto& k : domain.kills) {
    // Kills aimed past the current fleet size are dropped per grid point
    // (the sweep spans several fleet sizes; serve() rejects out-of-range
    // devices loudly).
    if (k.device < fleet) {
      config.kill_devices.push_back(serve::KillDevice{
          .device = k.device, .at = SimTime::zero() + Seconds{k.at}});
    }
  }
  config.retry_budget = domain.retry_budget;
  config.breaker.threshold = domain.breaker_threshold;
  config.sim_cache = domain.sim_cache;
  // ~1.7 s and ~2.6 s of virtual service: with the default middle load of
  // 1 job/s the sweep straddles the fleet's saturation point.
  config.job_classes = {serve::JobClass{.app = "tpch-q6", .size_factor = 0.2},
                        serve::JobClass{.app = "kmeans", .size_factor = 0.05}};
  config.total_jobs = total_jobs;
  config.offered_load = offered_load;
  config.jobs = jobs;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isp;
  const unsigned jobs = exec::jobs_from_args(argc, argv);
  const bool quick = exec::flag_present(argc, argv, "--quick");
  const auto tenants = static_cast<std::size_t>(
      exec::u64_flag(argc, argv, "--tenants", 4, 1, 64));
  const auto fleet_max = static_cast<std::size_t>(
      exec::u64_flag(argc, argv, "--fleet", 4, 1, 64));
  const double load_mid =
      exec::double_flag(argc, argv, "--offered-load", 1.0, 1e-6, 1e6);
  const auto queue_depth = static_cast<std::size_t>(
      exec::u64_flag(argc, argv, "--queue-depth", 8, 1, 4096));
  DomainKnobs domain;
  domain.kills = exec::kill_flags(argc, argv, "--kill-device");
  domain.slo = exec::double_flag(argc, argv, "--deadline", 0.0, 0.0, 1e6);
  domain.retry_budget = static_cast<std::uint32_t>(
      exec::u64_flag(argc, argv, "--retry-budget", 2, 0, 64));
  domain.breaker_threshold =
      exec::double_flag(argc, argv, "--breaker-threshold", 12.0, 1e-3, 1e6);
  domain.fleet_skew =
      exec::double_flag(argc, argv, "--fleet-skew", 0.05, 0.0, 0.33);
  domain.sim_cache = exec::on_off_flag(argc, argv, "--sim-cache", true);
  const char* trace_out = exec::string_flag(argc, argv, "--trace-out", nullptr);
  const char* metrics_out =
      exec::string_flag(argc, argv, "--metrics-out", nullptr);
  const std::uint64_t total_jobs = quick ? 16 : 48;

  std::vector<std::size_t> fleets;
  for (std::size_t f = 1; f < fleet_max; f *= 2) fleets.push_back(f);
  fleets.push_back(fleet_max);
  std::vector<double> loads = quick
                                  ? std::vector<double>{load_mid}
                                  : std::vector<double>{load_mid * 0.5,
                                                        load_mid,
                                                        load_mid * 2.0};

  bench::print_header(
      "Serving capacity: offered load x fleet size, weighted tenants, "
      "Eq.1 placement");
  std::printf("%llu jobs per point, %zu tenants (weights cycle 1,2,4), "
              "queue depth %zu\n\n",
              static_cast<unsigned long long>(total_jobs), tenants,
              queue_depth);
  std::printf("%5s %8s | %5s %5s %8s %9s %9s %7s %6s %6s\n", "fleet", "load",
              "admit", "rej", "thru/s", "p50 s", "p99 s", "rej%", "csd%",
              "util%");
  bench::print_rule();

  const auto wall0 = Clock::now();
  std::vector<std::string> entries;
  bool ok = true;
  for (const std::size_t fleet : fleets) {
    for (const double load : loads) {
      const auto config = make_config(fleet, load, tenants, queue_depth,
                                      total_jobs, jobs, domain);
      const auto report = serve::serve(config);

      double util_sum = 0.0;
      for (std::size_t lane = 0; lane < report.fleet_size; ++lane) {
        util_sum += report.utilization(lane);
      }
      const double util_avg =
          util_sum / static_cast<double>(report.fleet_size);
      const double csd_share =
          report.completed > 0
              ? static_cast<double>(report.csd_jobs) /
                    static_cast<double>(report.completed)
              : 0.0;
      std::printf("%5zu %8.3f | %5llu %5llu %8.3f %9.4f %9.4f %6.1f%% "
                  "%5.1f%% %5.1f%%\n",
                  fleet, load,
                  static_cast<unsigned long long>(report.admitted),
                  static_cast<unsigned long long>(report.rejected),
                  report.throughput, report.p50_latency.value(),
                  report.p99_latency.value(), 100.0 * report.rejection_rate,
                  100.0 * csd_share, 100.0 * util_avg);
      ok = ok && report.admitted + report.rejected +
                         report.deadline_rejected ==
                     report.total_jobs;
      entries.push_back(report.to_json());

      // Observability exports for the last grid point (the biggest fleet at
      // the highest load — the most interesting timeline).  Virtual-time
      // only, so both files are byte-identical across --jobs values.
      const bool last =
          fleet == fleets.back() && load == loads.back();
      if (last && trace_out != nullptr) {
        serve::to_fleet_timeline(report).write(trace_out);
        std::fprintf(stderr, "[serve_capacity] wrote %s\n", trace_out);
      }
      if (last && metrics_out != nullptr) {
        std::ofstream f(metrics_out);
        if (f.good()) {
          f << serve::metrics_json(report);
          std::fprintf(stderr, "[serve_capacity] wrote %s\n", metrics_out);
        } else {
          std::printf("could not write %s\n", metrics_out);
          ok = false;
        }
      }
    }
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  std::filesystem::create_directories("results");
  const std::string path = "results/BENCH_serve.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::fputs(entries[i].c_str(), f);
      if (i + 1 < entries.size()) std::fputs(",\n", f);
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    ok = false;
  }

  // Wall-clock is the one thing that may differ run to run; keep it off
  // stdout so the byte-identity contract covers everything above.
  if (bench::single_core()) {
    std::fprintf(stderr,
                 "[serve_capacity] wall %.2f s at --jobs %u; speedup n/a "
                 "(single-core)\n",
                 wall, jobs);
  } else {
    std::fprintf(stderr, "[serve_capacity] wall %.2f s at --jobs %u\n", wall,
                 jobs);
  }

  std::printf("\n%s\n", ok ? "ALL PASS" : "FAILURES ABOVE");
  return ok ? 0 : 1;
}
