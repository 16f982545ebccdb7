#include "query/admission.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/clock.h"

namespace logstore::query {

namespace {

// Backstop poll for cancellation flips that bypassed SignalCancel (e.g. a
// raw store to the flag from code that does not know about admission).
// Deliberately coarse: the broadcast path is the latency-bearing one, this
// only bounds the damage of a missed wakeup.
constexpr auto kCancelBackstop = std::chrono::milliseconds(200);

}  // namespace

CancelBroadcast* CancelBroadcast::Default() {
  static CancelBroadcast* instance = new CancelBroadcast();
  return instance;
}

void CancelBroadcast::Register(const std::atomic<bool>* flag,
                               AdmissionGovernor* governor) {
  std::lock_guard<std::mutex> lock(mu_);
  ++watchers_[flag][governor];
}

void CancelBroadcast::Unregister(const std::atomic<bool>* flag,
                                 AdmissionGovernor* governor) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watchers_.find(flag);
  if (it == watchers_.end()) return;
  auto git = it->second.find(governor);
  if (git == it->second.end()) return;
  if (--git->second <= 0) it->second.erase(git);
  if (it->second.empty()) watchers_.erase(it);
}

void CancelBroadcast::Notify(const std::atomic<bool>* flag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watchers_.find(flag);
  if (it == watchers_.end()) return;
  for (auto& [governor, count] : it->second) governor->WakeAllForCancel();
}

AdmissionGovernor::AdmissionGovernor(int total_slots,
                                     metrics::MetricRegistry* registry)
    : total_slots_(std::max(1, total_slots)),
      registry_(metrics::OrDefault(registry)),
      available_(total_slots_) {}

AdmissionGovernor::TenantCells& AdmissionGovernor::CellsLocked(
    uint64_t tenant) {
  auto it = cells_.find(tenant);
  if (it != cells_.end()) return it->second;
  const metrics::Labels labels = {{"tenant", std::to_string(tenant)}};
  TenantCells cells;
  cells.grants = registry_->Counter("admission.grants", labels);
  cells.queued_grants = registry_->Counter("admission.queued_grants", labels);
  cells.wait_us = registry_->Counter("admission.wait_us", labels);
  return cells_.emplace(tenant, cells).first->second;
}

void AdmissionGovernor::WakeAllForCancel() {
  // Taking mu_ before notifying closes the check-then-sleep window: a
  // waiter holds mu_ continuously between reading its cancel flag and
  // parking on the condition variable.
  std::lock_guard<std::mutex> lock(mu_);
  granted_cv_.notify_all();
}

bool AdmissionGovernor::Acquire(uint64_t tenant,
                                const std::atomic<bool>* cancel) {
  const int64_t start_us = SystemClock::Default()->NowMicros();

  // Declared before `lock` so its destructor (which takes the broadcast
  // mutex) runs after mu_ is released — the reverse order would invert the
  // broadcast-then-governor lock order and deadlock against Notify.
  struct CancelWatch {
    const std::atomic<bool>* flag = nullptr;
    AdmissionGovernor* governor = nullptr;
    ~CancelWatch() {
      if (flag != nullptr) {
        CancelBroadcast::Default()->Unregister(flag, governor);
      }
    }
  } watch;

  std::unique_lock<std::mutex> lock(mu_);
  if (TryGrantLocked(tenant)) return true;

  if (cancel != nullptr) {
    // Register with the broadcast before queueing; a flip that lands before
    // registration is caught by the flag check on loop entry below.
    lock.unlock();
    CancelBroadcast::Default()->Register(cancel, this);
    watch.flag = cancel;
    watch.governor = this;
    lock.lock();
    // Every held slot may have been released while mu_ was dropped. With no
    // waiter queued those releases went back to the pool, so parking now
    // would wait beside free slots with no holder left to hand one over.
    if (TryGrantLocked(tenant)) return true;
  }

  auto ticket = std::make_shared<Ticket>();
  waiting_.Push(tenant, ticket);
  while (!ticket->granted &&
         !(cancel != nullptr && cancel->load(std::memory_order_acquire))) {
    if (cancel == nullptr) {
      granted_cv_.wait(lock);
    } else {
      granted_cv_.wait_for(lock, kCancelBackstop);
    }
  }
  if (!ticket->granted) {
    waiting_.Remove(tenant, ticket);
    return false;
  }
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    // Granted and cancelled raced: the caller will not run, so the slot
    // moves straight to the next waiter instead of leaking.
    PassSlotLocked();
    return false;
  }
  const int64_t waited = SystemClock::Default()->NowMicros() - start_us;
  AdmissionTenantStats& stats = stats_[tenant];
  ++stats.grants;
  ++stats.queued_grants;
  stats.total_wait_us += waited;
  stats.max_wait_us = std::max(stats.max_wait_us, waited);
  TenantCells& cells = CellsLocked(tenant);
  cells.grants->fetch_add(1, std::memory_order_relaxed);
  cells.queued_grants->fetch_add(1, std::memory_order_relaxed);
  cells.wait_us->fetch_add(static_cast<uint64_t>(std::max<int64_t>(waited, 0)),
                           std::memory_order_relaxed);
  return true;
}

bool AdmissionGovernor::TryGrantLocked(uint64_t tenant) {
  // Skipping the queue is fair: waiters exist only while available_ == 0,
  // and every release hands its slot to a waiter before replenishing the
  // pool.
  if (available_ == 0 || !waiting_.empty()) return false;
  --available_;
  ++stats_[tenant].grants;
  CellsLocked(tenant).grants->fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionGovernor::PassSlotLocked() {
  std::shared_ptr<Ticket> next;
  if (waiting_.PopNext(&next)) {
    next->granted = true;
    granted_cv_.notify_all();
  } else {
    ++available_;
  }
}

void AdmissionGovernor::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  PassSlotLocked();
}

int AdmissionGovernor::slots_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_slots_ - available_;
}

size_t AdmissionGovernor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_.size();
}

AdmissionTenantStats AdmissionGovernor::TenantStats(uint64_t tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(tenant);
  return it == stats_.end() ? AdmissionTenantStats{} : it->second;
}

}  // namespace logstore::query
