// Equation 1 of the paper: the net profit S of performing a task on the CSD
// instead of the host.
//
//   S = (DS_raw / BW_D2H + CT_host) − (CT_device + DS_processed / BW_D2H)
//
// The task is worth offloading when S > 0.  CT_device here is the *complete*
// device-side cost (including the internal flash read of the raw input),
// matching the paper's formulation where only DS_raw's trip over the host
// link appears explicitly on the host side.
#pragma once

#include "common/units.hpp"

namespace isp::plan {

struct Eq1Terms {
  Bytes ds_raw;           // raw input the host path would pull over the link
  Seconds ct_host;        // host compute (input already in main memory)
  Seconds ct_device;      // full device-side latency for the same region
  Bytes ds_processed;     // intermediate the device ships back
  BytesPerSecond bw_d2h;  // host link bandwidth
};

/// Net profit S; positive means the CSD placement wins.
[[nodiscard]] Seconds net_profit(const Eq1Terms& terms);

/// Convenience predicate: S > 0.
[[nodiscard]] bool profitable(const Eq1Terms& terms);

/// Contention a *fleet* device adds to Equation 1.  The per-run form above
/// assumes an idle device and a dedicated link; under multi-tenant serving a
/// candidate device has queued work ahead of the job, a CSE that other
/// activity (co-tenants, GC) has throttled, and a host link it shares with
/// its siblings' traffic.  All three stretch the device side only — the host
/// path still pays the raw trip over the same shared link.
struct Eq1Contention {
  /// Work queued on the device that must drain before this job starts.
  Seconds queue_wait;
  /// Fraction of CSE capacity left for this job, in (0, 1].
  double cse_availability = 1.0;
  /// Fraction of the host link's bandwidth this device's traffic gets,
  /// in (0, 1].
  double link_share = 1.0;
  /// Storage-management stall the job is expected to ride out on the
  /// device: backend reclaim work (FTL GC relocation / ZNS copy-forward
  /// plus metadata programs) that its own persisted writes will trigger or
  /// contend with.  Backend-specific: a zoned device with host-coordinated
  /// reclaim prices a smaller term than a page-mapped FTL under the same
  /// write mix.  Zero for jobs that persist nothing.
  Seconds reclaim_wait;
  /// Device-side cost of pushing the job's persisted output through the
  /// backend's write path (appends × write amplification at NAND program
  /// cost).  Zero for jobs that persist nothing.
  Seconds persist_cost;
};

/// Equation 1 with the device-side terms inflated by contention:
///
///   S' = (DS_raw / BW' + CT_host)
///        − (W_queue + W_reclaim + C_persist + CT_device / A_cse
///           + DS_processed / BW')
///
/// with BW' = BW_D2H × link_share and A_cse the CSE fraction left.  Collapses
/// to net_profit() when the contention terms are neutral.
[[nodiscard]] Seconds net_profit_under_contention(const Eq1Terms& terms,
                                                  const Eq1Contention& c);

/// The two sides of S' exposed separately, so a caller can report or
/// recombine them without drifting from the one-shot form:
/// net_profit_under_contention() is exactly
/// host_side_cost() − device_side_cost(), bit for bit (asserted in
/// plan_test).  Argument checks live on net_profit_under_contention();
/// these are the raw arithmetic.
[[nodiscard]] Seconds host_side_cost(const Eq1Terms& terms,
                                     const Eq1Contention& c);
[[nodiscard]] Seconds device_side_cost(const Eq1Terms& terms,
                                       const Eq1Contention& c);

}  // namespace isp::plan
