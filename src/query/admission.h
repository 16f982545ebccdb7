#ifndef LOGSTORE_QUERY_ADMISSION_H_
#define LOGSTORE_QUERY_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/fair_queue.h"
#include "common/metrics.h"

namespace logstore::query {

class AdmissionGovernor;

// Wakes admission waiters when a cancellation flag flips. The flag owners
// (limit trackers, block error paths) flip their flags without holding
// any governor lock, so a waiter blocked inside Acquire cannot observe the
// flip through its condition variable alone; routing the flip through
// SignalCancel gives the waiter a direct wakeup instead of a polling loop.
//
// Lock order: broadcast mutex, then governor mutex (Notify holds the former
// while waking; Acquire never registers/unregisters while holding the
// latter). Holding the broadcast mutex across the wake also pins the
// governor: a waiter cannot finish unregistering — and hence the governor
// cannot be destroyed — until an in-flight Notify completes.
class CancelBroadcast {
 public:
  static CancelBroadcast* Default();

  // Wakes every governor with a waiter registered on `flag`.
  void Notify(const std::atomic<bool>* flag);

 private:
  friend class AdmissionGovernor;

  void Register(const std::atomic<bool>* flag, AdmissionGovernor* governor);
  void Unregister(const std::atomic<bool>* flag, AdmissionGovernor* governor);

  std::mutex mu_;
  // flag -> (governor -> registered-waiter count).
  std::map<const std::atomic<bool>*, std::map<AdmissionGovernor*, int>>
      watchers_;
};

// Store-true + waiter wakeup, for every cancellation-flag flip site whose
// flag may have an admission waiter parked on it.
inline void SignalCancel(std::atomic<bool>* flag) {
  flag->store(true, std::memory_order_release);
  CancelBroadcast::Default()->Notify(flag);
}

// Per-tenant admission telemetry (the fairness test's measurement surface).
struct AdmissionTenantStats {
  uint64_t grants = 0;        // slots granted to this tenant
  uint64_t queued_grants = 0; // grants that had to wait for a slot
  int64_t total_wait_us = 0;  // time spent waiting across those grants
  int64_t max_wait_us = 0;    // worst single slot-wait
};

// Cluster-wide execution-slot budget with per-tenant fair queueing — the
// per-owner fair prefetch scheduler generalized from IO slots to execution
// slots. Every block scan across every engine of a deployment first
// acquires a slot; under load the budget dynamically caps a query's
// effective query_threads, and a released slot is handed to the next waiter
// round-robin across tenants, so one tenant's wide scan queues behind
// itself, not in front of everyone else.
//
// Slot holders never block on the governor (acquires are never nested), so
// the budget cannot deadlock: every held slot is released by a block scan
// that completes independently, and a waiter only parks after re-checking
// for a free slot under the mutex it parks on.
class AdmissionGovernor {
 public:
  explicit AdmissionGovernor(int total_slots,
                             metrics::MetricRegistry* registry = nullptr);

  // Blocks until a slot is granted. Returns false — without consuming a
  // slot — if `cancel` became true while waiting; a grant that races with
  // cancellation is handed straight to the next waiter. Cancellation flips
  // routed through SignalCancel wake the waiter immediately; a coarse
  // wait_for backstop covers flips that bypassed it.
  bool Acquire(uint64_t tenant, const std::atomic<bool>* cancel = nullptr);

  // Releases a slot: hands it to the next queued waiter (round-robin across
  // tenants) or returns it to the free pool.
  void Release();

  int total_slots() const { return total_slots_; }
  int slots_in_use() const;
  size_t queue_depth() const;
  AdmissionTenantStats TenantStats(uint64_t tenant) const;

 private:
  friend class CancelBroadcast;

  struct Ticket {
    bool granted = false;  // guarded by mu_
  };

  // Registry cells mirroring one tenant's stats_ entry.
  struct TenantCells {
    std::atomic<uint64_t>* grants = nullptr;
    std::atomic<uint64_t>* queued_grants = nullptr;
    std::atomic<uint64_t>* wait_us = nullptr;
  };

  // Fast path: takes a free slot when nobody is queued ahead. mu_ held.
  bool TryGrantLocked(uint64_t tenant);

  // Hands a freed slot to the next waiter or back to the pool. mu_ held.
  void PassSlotLocked();

  // Resolves (once per tenant) the registry cells for `tenant`. mu_ held.
  TenantCells& CellsLocked(uint64_t tenant);

  // CancelBroadcast::Notify path: wakes every waiter so it rechecks its
  // cancel flag. Takes mu_ (so a flip cannot slip between a waiter's flag
  // check and its sleep), never the broadcast mutex.
  void WakeAllForCancel();

  const int total_slots_;
  metrics::MetricRegistry* const registry_;
  mutable std::mutex mu_;
  std::condition_variable granted_cv_;
  int available_;  // guarded by mu_
  FairQueue<std::shared_ptr<Ticket>> waiting_;      // guarded by mu_
  std::map<uint64_t, AdmissionTenantStats> stats_;  // guarded by mu_
  std::map<uint64_t, TenantCells> cells_;           // guarded by mu_
};

// Scoped slot release for the block-scan paths.
class AdmissionSlot {
 public:
  AdmissionSlot() = default;
  explicit AdmissionSlot(AdmissionGovernor* governor) : governor_(governor) {}
  AdmissionSlot(AdmissionSlot&& other) noexcept : governor_(other.governor_) {
    other.governor_ = nullptr;
  }
  AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
    if (this != &other) {
      if (governor_ != nullptr) governor_->Release();
      governor_ = other.governor_;
      other.governor_ = nullptr;
    }
    return *this;
  }
  ~AdmissionSlot() {
    if (governor_ != nullptr) governor_->Release();
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionGovernor* governor_ = nullptr;
};

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_ADMISSION_H_
