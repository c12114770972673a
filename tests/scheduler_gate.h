// A one-worker MaintenanceScheduler whose worker is held until Release().
// Background flushes queue behind it, so budget-tripping writes leave their
// memory components pending as immutables, where tests can read them.
// Explicit barriers (Flush, ForceFullMerge) still run: they do the flush
// work on the calling thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "storage/maintenance.h"

namespace asterix::storage {

class SchedulerGate {
 public:
  SchedulerGate() {
    sched_.Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      // Bounded: a test that fails before Release() must not hang the
      // tree's destructor, which waits for the flushes queued behind us.
      cv_.wait_for(lock, std::chrono::seconds(30), [this] { return released_; });
    });
  }
  ~SchedulerGate() { Release(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  MaintenanceScheduler* scheduler() { return &sched_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  MaintenanceScheduler sched_{1};  // declared last: joined first
};

}  // namespace asterix::storage
