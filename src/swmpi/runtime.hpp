#pragma once

#include <functional>
#include <optional>

#include "swmpi/comm.hpp"
#include "swmpi/fault.hpp"

namespace swhkm::swmpi {

/// Which schedule ScopedCollectiveSchedule installs as the launch
/// default: kFlat is the default-constructed (width-1) HierarchySpec,
/// kHierarchical the spec passed beside it.
enum class CollectiveSchedule {
  kFlat,
  kHierarchical,
};

/// The spec a run_spmd call launches with when it passes none. Read once
/// per launch; a running world never consults it again.
HierarchySpec default_hierarchy_spec();

namespace detail {
/// Install `spec` as the launch default and return the previous one.
HierarchySpec exchange_default_hierarchy_spec(const HierarchySpec& spec);
}  // namespace detail

/// RAII launch default: installs (schedule, spec) for the run_spmd calls
/// that pass no spec of their own, restores the previous default on
/// destruction. The default is process-wide, so overlapping guards on
/// several threads must not be relied on; a caller that needs a schedule
/// regardless of other threads passes it to run_spmd instead.
class ScopedCollectiveSchedule {
 public:
  ScopedCollectiveSchedule(CollectiveSchedule schedule,
                           const HierarchySpec& spec)
      : prev_(detail::exchange_default_hierarchy_spec(
            schedule == CollectiveSchedule::kFlat ? HierarchySpec{}
                                                  : spec)) {}
  ScopedCollectiveSchedule(const ScopedCollectiveSchedule&) = delete;
  ScopedCollectiveSchedule& operator=(const ScopedCollectiveSchedule&) =
      delete;
  ~ScopedCollectiveSchedule() {
    detail::exchange_default_hierarchy_spec(prev_);
  }

 private:
  HierarchySpec prev_;
};

/// Launch `body` on `nranks` SPMD ranks (rank 0 on the calling thread,
/// the rest on fresh std::threads), join them all, and rethrow the most
/// meaningful failure if any rank failed.
///
/// When a rank throws, the whole communicator tree is poisoned so ranks
/// blocked in recv fail fast instead of deadlocking. Error preference when
/// several ranks fail: a real error (anything outside the RuntimeFault
/// family) wins over an injected fault or watchdog timeout, which wins
/// over the secondary "communicator aborted" faults the poisoning causes.
///
/// `faults` (not owned, may be null) arms deterministic fault injection:
/// the plan's schedule is consulted by every Comm of the world tree and by
/// the engines' fault_point calls.
///
/// `metrics` (not owned, may be null) arms wall-clock instrumentation of
/// the runtime: every collective and point-to-point operation of the world
/// tree records into the registry's per-(global-)rank shards. Null keeps
/// the runtime on the uninstrumented fast path.
///
/// `hierarchy` is the collective schedule of the world and every
/// communicator split from it; without one the run takes
/// default_hierarchy_spec() at launch.
void run_spmd(int nranks, const std::function<void(Comm&)>& body,
              FaultPlan* faults = nullptr,
              telemetry::MetricsRegistry* metrics = nullptr,
              std::optional<HierarchySpec> hierarchy = std::nullopt);

}  // namespace swhkm::swmpi
