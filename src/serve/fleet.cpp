#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace isp::serve {

const char* to_string(BackendMix mix) {
  switch (mix) {
    case BackendMix::Ftl:
      return "ftl";
    case BackendMix::Zns:
      return "zns";
    case BackendMix::Mixed:
      return "mixed";
  }
  ISP_CHECK(false, "unknown backend mix");
  return "?";
}

FleetConfig FleetConfig::make(std::size_t devices, std::size_t host_lanes,
                              double skew, BackendMix mix) {
  ISP_CHECK(devices >= 1, "a fleet needs at least one device");
  ISP_CHECK(skew >= 0.0 && skew * 3.0 < 1.0,
            "fleet skew must leave the slowest device usable: " << skew);
  FleetConfig config;
  config.host_lanes = host_lanes;
  config.devices.reserve(devices);
  for (std::size_t k = 0; k < devices; ++k) {
    DeviceConfig d;
    d.cse_availability =
        sim::AvailabilitySchedule::constant(1.0 - skew * static_cast<double>(k % 4));
    switch (mix) {
      case BackendMix::Ftl:
        d.backend = flash::BackendKind::Ftl;
        break;
      case BackendMix::Zns:
        d.backend = flash::BackendKind::Zns;
        break;
      case BackendMix::Mixed:
        d.backend =
            (k % 2 == 0) ? flash::BackendKind::Ftl : flash::BackendKind::Zns;
        break;
    }
    config.devices.push_back(std::move(d));
  }
  return config;
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  ISP_CHECK(!config_.devices.empty(), "a fleet needs at least one device");
  ISP_CHECK(config_.link_fan_out >= 1, "link fan-out must be at least 1");
  for (const auto& d : config_.devices) {
    ISP_CHECK(d.link_share > 0.0 && d.link_share <= 1.0,
              "device link share out of (0,1]: " << d.link_share);
  }
  busy_until_.assign(lane_count(), SimTime::zero());
  stats_.assign(lane_count(), LaneStats{});
  gate_.assign(lane_count(), SimTime::zero());
  kill_at_.assign(lane_count(), SimTime::infinity());
  for (std::size_t lane = 0; lane < lane_count(); ++lane) {
    ready_order_.emplace(SimTime::zero(), lane);
  }
  device_busy_sorted_.assign(device_count(), SimTime::zero());
}

const DeviceConfig& Fleet::device(std::size_t lane) const {
  ISP_CHECK(lane < config_.devices.size(), "lane " << lane << " is not a CSD");
  return config_.devices[lane];
}

std::size_t Fleet::busy_devices_after(SimTime t) const {
  // device_busy_sorted_ holds every device lane's busy_until ascending, so
  // the busy-after-t count is the suffix past the first entry > t.
  const auto it = std::upper_bound(device_busy_sorted_.begin(),
                                   device_busy_sorted_.end(), t);
  return static_cast<std::size_t>(device_busy_sorted_.end() - it);
}

double Fleet::contended_link_share(std::size_t lane,
                                   std::size_t busy_devices) const {
  const double provisioned = device(lane).link_share;
  if (busy_devices <= config_.link_fan_out) return provisioned;
  const double contended = static_cast<double>(config_.link_fan_out) /
                           static_cast<double>(busy_devices);
  return provisioned < contended ? provisioned : contended;
}

void Fleet::occupy(std::size_t lane, SimTime start, Seconds service) {
  ISP_CHECK(lane < lane_count(), "lane out of range: " << lane);
  ISP_CHECK(alive(lane), "lane " << lane << " dispatched after its death");
  ISP_CHECK(start >= busy_until_[lane],
            "lane " << lane << " dispatched into its own past");
  ISP_CHECK(service.value() >= 0.0, "negative service time");
  const SimTime old_busy = busy_until_[lane];
  busy_until_[lane] = start + service;
  stats_[lane].jobs += 1;
  stats_[lane].busy += service;
  reindex(lane, old_busy);
}

void Fleet::note_outcome(std::size_t lane, std::uint32_t migrations,
                         std::uint32_t power_losses, std::uint64_t faults) {
  ISP_CHECK(lane < lane_count(), "lane out of range: " << lane);
  stats_[lane].migrations += migrations;
  stats_[lane].power_losses += power_losses;
  stats_[lane].faults += faults;
}

void Fleet::note_storage(std::size_t lane, std::uint64_t host_pages,
                         std::uint64_t internal_pages, std::uint64_t resets,
                         Seconds reclaim_time) {
  ISP_CHECK(lane < lane_count(), "lane out of range: " << lane);
  ISP_CHECK(reclaim_time.value() >= 0.0, "negative reclaim time");
  stats_[lane].storage_host_pages += host_pages;
  stats_[lane].storage_internal_pages += internal_pages;
  stats_[lane].storage_resets += resets;
  stats_[lane].reclaim_time += reclaim_time;
}

void Fleet::mark_dead(std::size_t lane, SimTime at) {
  ISP_CHECK(lane < config_.devices.size(),
            "only CSD lanes die; lane " << lane << " is a host lane");
  if (!alive(lane)) return;  // first kill wins
  const SimTime old_busy = busy_until_[lane];
  stats_[lane].died_at = at;
  // The lane serves nothing past its death; clamp so busy_devices_after
  // never counts a corpse as drawing on the host link.
  if (busy_until_[lane] > at) busy_until_[lane] = at;
  reindex(lane, old_busy);  // death removes the lane from the ready order
}

void Fleet::note_lost(std::size_t lane) {
  ISP_CHECK(lane < config_.devices.size(), "host lanes lose nothing");
  ISP_CHECK(!alive(lane), "lost a job on a living lane");
  stats_[lane].lost_jobs += 1;
}

// ---- Incremental lane-state index ----------------------------------------

void Fleet::reindex(std::size_t lane, SimTime old_busy) {
  ready_order_.erase({old_busy, lane});  // no-op if already removed
  if (alive(lane) && busy_until_[lane] < kill_at_[lane]) {
    ready_order_.emplace(busy_until_[lane], lane);
  }
  if (lane < config_.devices.size()) {
    const auto it = std::lower_bound(device_busy_sorted_.begin(),
                                     device_busy_sorted_.end(), old_busy);
    ISP_CHECK(it != device_busy_sorted_.end() && *it == old_busy,
              "device busy index lost lane " << lane);
    device_busy_sorted_.erase(it);
    const SimTime now_busy = busy_until_[lane];
    device_busy_sorted_.insert(
        std::lower_bound(device_busy_sorted_.begin(),
                         device_busy_sorted_.end(), now_busy),
        now_busy);
  }
}

void Fleet::set_kill_at(std::size_t lane, SimTime at) {
  ISP_CHECK(lane < config_.devices.size(),
            "only CSD lanes die; lane " << lane << " is a host lane");
  if (at >= kill_at_[lane]) return;  // min-fold: the earliest kill wins
  kill_at_[lane] = at;
  if (busy_until_[lane] >= at) {
    // Doomed already: the lane can never start another job.
    ready_order_.erase({busy_until_[lane], lane});
  }
}

void Fleet::set_gate(std::size_t lane, SimTime at) {
  ISP_CHECK(lane < config_.devices.size(),
            "breaker gates are per-device; lane " << lane << " is host");
  gate_[lane] = at;
}

SimTime Fleet::earliest_feasible_start(SimTime arrival) const {
  SimTime best = SimTime::infinity();
  for (const auto& [busy, lane] : ready_order_) {
    // Entries are busy-ascending: once a lane's idle instant is at or past
    // the bound, no later entry can start earlier either.
    if (busy >= best) break;
    SimTime start = std::max(busy, arrival);
    start = std::max(start, gate_[lane]);
    if (start >= kill_at_[lane]) continue;
    best = std::min(best, start);
    if (best <= arrival) break;  // can't start before the job exists
  }
  return best;
}

SimTime Fleet::next_free(const std::vector<bool>& claimed) const {
  for (const auto& [busy, lane] : ready_order_) {
    if (!claimed[lane]) return busy;
  }
  return SimTime::infinity();
}

}  // namespace isp::serve
