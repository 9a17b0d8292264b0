// Backend-vs-reference differential: a std::map model of a journaled
// backend's logical->physical mapping, driven through seeded random
// write / trim / write_span / trim_span / power_loss+recover sequences on
// the default 524,288-page geometry.  flash_test runs it against the FTL
// and zns_test against the ZNS device.
//
// The model covers workloads that never reach the reclaim watermark, so no
// page is ever relocated or erased.  There it predicts, independently of
// the backend's page maps:
//   * every write lands on a physical page never handed out before, and no
//     other mapping moves;
//   * a trim unmaps exactly its page;
//   * a power cut loses exactly the buffered journal tail.  The model keeps
//     that tail from the journal's page size and fold cadence: the FTL
//     journals every mapping update, ZNS only trims;
//   * remount restores every mapping bit for bit and resurrects each trim
//     lost in the tail to the page it unmapped, unless a later write of the
//     same lpn superseded it.
// translate() is compared against the model over the whole logical space
// after every step.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "flash/backend.hpp"

namespace isp::testing_reference {

/// Journal cadence of the backend under test.
struct JournalShape {
  bool journals_writes = true;        // FTL: every update; ZNS: trims only
  std::uint64_t entries_per_page = 0;
  std::uint64_t fold_pages = 0;       // journal pages per checkpoint fold
  std::uint64_t fold_appends = 0;     // appends per fold; 0 = never
};

class ReferenceMap {
 public:
  explicit ReferenceMap(JournalShape shape) : shape_(shape) {}

  [[nodiscard]] const std::map<flash::Lpn, flash::Ppn>& live() const {
    return live_;
  }
  [[nodiscard]] std::uint64_t resurrected() const { return resurrected_; }

  /// The device just wrote `lpn` and placed it at `ppn`.
  void write(flash::Lpn lpn, flash::Ppn ppn) {
    EXPECT_TRUE(used_.insert(ppn).second)
        << "lpn " << lpn << " landed on reused page " << ppn;
    live_[lpn] = ppn;
    tail_trims_.erase(lpn);  // a later write outlives a lost trim
    if (shape_.journals_writes) journal_entry(false);
    if (shape_.fold_appends != 0 && ++appends_since_fold_ >=
                                        shape_.fold_appends) {
      fold();
    }
  }

  /// The device just trimmed `lpn` (a no-op when it was unmapped).
  void trim(flash::Lpn lpn) {
    const auto it = live_.find(lpn);
    if (it == live_.end()) return;
    tail_trims_[lpn] = it->second;
    live_.erase(it);
    journal_entry(true);
  }

  /// What power_loss() must report.
  [[nodiscard]] flash::StorageCrash expected_crash() const {
    return flash::StorageCrash{.lost_tail_updates = tail_entries_,
                               .lost_trims = tail_trim_entries_};
  }

  /// power_loss() + recover(): the lost trims come back.
  void remount() {
    for (const auto& [lpn, ppn] : tail_trims_) {
      live_[lpn] = ppn;
      ++resurrected_;
    }
    tail_trims_.clear();
    tail_entries_ = 0;
    tail_trim_entries_ = 0;
  }

 private:
  void journal_entry(bool is_trim) {
    ++tail_entries_;
    if (is_trim) ++tail_trim_entries_;
    if (tail_entries_ < shape_.entries_per_page) return;
    // The open journal page is programmed: its entries are durable.
    tail_entries_ = 0;
    tail_trim_entries_ = 0;
    tail_trims_.clear();
    if (++pages_since_fold_ >= shape_.fold_pages) fold();
  }

  void fold() {
    // A checkpoint snapshots the live map and drops the buffered tail.
    tail_entries_ = 0;
    tail_trim_entries_ = 0;
    tail_trims_.clear();
    pages_since_fold_ = 0;
    appends_since_fold_ = 0;
  }

  JournalShape shape_;
  std::map<flash::Lpn, flash::Ppn> live_;
  std::set<flash::Ppn> used_;
  std::map<flash::Lpn, flash::Ppn> tail_trims_;  // lpn -> page it unmapped
  std::uint64_t tail_entries_ = 0;
  std::uint64_t tail_trim_entries_ = 0;
  std::uint64_t pages_since_fold_ = 0;
  std::uint64_t appends_since_fold_ = 0;
  std::uint64_t resurrected_ = 0;
};

/// translate() over the whole logical space against the model.
inline void expect_matches(const flash::StorageBackend& dev,
                           const ReferenceMap& model, int step) {
  auto it = model.live().begin();
  for (flash::Lpn lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    const auto got = dev.translate(lpn);
    if (it != model.live().end() && it->first == lpn) {
      ASSERT_TRUE(got.has_value() && *got == it->second)
          << "step " << step << ": lpn " << lpn << " should map to "
          << it->second;
      ++it;
    } else {
      ASSERT_FALSE(got.has_value())
          << "step " << step << ": lpn " << lpn << " should be unmapped";
    }
  }
}

/// Run `steps` seeded random operations on `dev`, checking every step
/// against the model.  Extents start in a hot window straddling a chunk
/// boundary half the time, so trims and overwrites find mapped pages.
inline void run_reference_differential(flash::StorageBackend& dev,
                                       JournalShape shape,
                                       std::uint64_t seed, int steps) {
  ReferenceMap model(shape);
  Rng rng(seed);
  const std::uint64_t logical = dev.logical_pages();
  constexpr std::uint64_t kHot = 12'000;
  constexpr std::uint64_t kMaxExtent = 3'000;
  int crashes = 0;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t first = rng.next_double() < 0.5
                                    ? rng.uniform_u64(0, kHot)
                                    : rng.uniform_u64(0, logical - 1);
    const std::uint64_t span =
        rng.uniform_u64(1, std::min(kMaxExtent, logical - first));
    const double pick = rng.next_double();
    if (pick < 0.2) {
      dev.write(first);
      model.write(first, *dev.translate(first));
    } else if (pick < 0.5) {
      dev.write_span(first, span);
      for (std::uint64_t i = 0; i < span; ++i) {
        model.write(first + i, *dev.translate(first + i));
      }
    } else if (pick < 0.6) {
      dev.trim(first);
      model.trim(first);
    } else if (pick < 0.85) {
      dev.trim_span(first, span);
      for (std::uint64_t i = 0; i < span; ++i) model.trim(first + i);
    } else {
      // A cut right after a short trim burst that starts on a mapped page,
      // so the journal tail a crash loses usually holds trims.
      flash::Lpn from = first;
      if (const auto hit = model.live().lower_bound(first);
          hit != model.live().end()) {
        from = hit->first;
      } else if (!model.live().empty()) {
        from = model.live().begin()->first;
      }
      const std::uint64_t burst = std::min<std::uint64_t>(64, logical - from);
      dev.trim_span(from, burst);
      for (std::uint64_t i = 0; i < burst; ++i) model.trim(from + i);
      const auto crash = dev.power_loss();
      const auto expected = model.expected_crash();
      EXPECT_EQ(crash.lost_tail_updates, expected.lost_tail_updates)
          << "step " << step;
      EXPECT_EQ(crash.lost_trims, expected.lost_trims) << "step " << step;
      const auto rec = dev.recover();
      model.remount();
      EXPECT_EQ(rec.mappings_recovered, model.live().size())
          << "step " << step;
      dev.check_invariants();
      ++crashes;
    }
    expect_matches(dev, model, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  dev.check_invariants();
  // The model holds only while nothing is relocated.
  EXPECT_EQ(dev.counters().reclaim_pages, 0u);
  EXPECT_GT(crashes, 0) << "seed " << seed << " never crashed";
  EXPECT_GT(model.resurrected(), 0u)
      << "seed " << seed << " never lost a trim to a crash";
}

}  // namespace isp::testing_reference
