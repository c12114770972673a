// The LSM component lifecycle (paper §III item 5, Fig. 2), written once and
// shared by every LSM-ified index: LsmBTree (and the keyword and curve/grid
// spatial indexes built on it) and LsmRTree. It owns the mutable memory
// component, the queue of immutable memory components awaiting flush, the
// reference-counted disk components, the flush and merge slots, the merge
// policy, bounded backpressure, and the recovery of a component directory.
//
// Writes go to the mutable memory component; when it exceeds its budget it
// is rotated onto the immutable queue and flushed into a disk component.
// Maintenance runs on a shared MaintenanceScheduler when one is configured:
// writers only block on the backpressure bound (too many immutable memory
// components pending), never on disk I/O. Without a scheduler the writing
// thread flushes and merges inline. See DESIGN.md §4f.
//
// An index plugs in through compile-time hooks (no virtual calls):
//   Index::Mem        the memory component: default-constructible, movable,
//                     `bool empty() const`
//   Index::Payload    a disk component's contents: default-constructible,
//                     move-assignable, with a `uint64_t bytes` member (the
//                     size the merge policy weighs)
//   Index::kDataExts  the data-file extensions a component may carry
//   Index::kCommitExt the commit-point file every build writes last
//   Result<Payload> BuildFlush(base, const Mem& frozen, bool nothing_older)
//   Result<Payload> BuildMerge(base, victims, bool includes_oldest)
//   Result<Payload> OpenComponent(base, data_ext)
//   static const LsmCounters& Counters()
// `base` is the component path without extension; builds run without the
// lifecycle's lock (their inputs are frozen or pinned).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/maintenance.h"

namespace asterix::storage {

/// Which components a merge combines (paper: "merge policies").
enum class MergePolicyKind {
  kNoMerge,    // never merge (read amplification grows unbounded)
  kConstant,   // merge everything once there are > max_components components
  kPrefix,     // merge the newest run whose total size fits max_merged_bytes
};

struct MergePolicy {
  MergePolicyKind kind = MergePolicyKind::kConstant;
  int max_components = 5;                      // kConstant
  size_t max_merged_bytes = 64u << 20;         // kPrefix
};

/// The counters one index kind reports through the lifecycle, registered by
/// the index under its own names (null = not kept for that index).
struct LsmCounters {
  metrics::Counter* flushes = nullptr;
  metrics::Counter* flush_bytes = nullptr;
  metrics::Counter* merges = nullptr;
  metrics::Counter* merge_bytes = nullptr;
  metrics::Counter* write_stalls = nullptr;
  metrics::Counter* write_stall_ns = nullptr;
};

inline metrics::Counter* LsmIncompleteDroppedCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.lsm.incomplete_components_dropped");
  return c;
}

template <class Index>
class LsmLifecycle {
 public:
  using Mem = typename Index::Mem;
  using Payload = typename Index::Payload;

  /// What the lifecycle takes from the index's options.
  struct Config {
    std::string dir;   // directory holding component files
    std::string name;  // component filename prefix
    size_t mem_budget_bytes = 1u << 20;
    bool auto_flush = true;
    MergePolicy merge_policy;
    MaintenanceScheduler* scheduler = nullptr;  // null = inline maintenance
    size_t max_pending_immutables = 2;
  };

  /// An immutable (rotated-out) memory component awaiting flush. Frozen at
  /// rotation, so readers may probe it without the lock once pinned.
  struct Frozen {
    uint64_t seq = 0;  // component sequence number assigned at rotation
    size_t bytes = 0;
    Mem mem;
  };
  using FrozenPtr = std::shared_ptr<const Frozen>;

  /// A disk component. Readers (gets, iterators, scan snapshots, in-flight
  /// merges) pin it by shared_ptr, so a merge that retires it only marks it
  /// obsolete: its files are unlinked when the last pin drops.
  struct Component : Payload {
    Component(Payload payload, uint64_t lo, uint64_t hi, std::string path)
        : Payload(std::move(payload)), seq_lo(lo), seq_hi(hi),
          base(std::move(path)) {}
    ~Component() {
      if (!obsolete) return;
      // Close the files (unregistering them from the cache) before
      // unlinking. Best effort: a leftover is dropped at the next open.
      static_cast<Payload&>(*this) = Payload{};
      RemoveFiles(base);
    }
    uint64_t seq_lo, seq_hi;
    std::string base;  // file path without extension
    bool obsolete = false;
  };
  using ComponentPtr = std::shared_ptr<Component>;

  /// What a reader pins: the immutable memory components and the disk
  /// components (both newest first), plus the lifecycle's tallies.
  struct View {
    std::vector<FrozenPtr> immutables;
    std::vector<ComponentPtr> components;
    size_t mem_bytes = 0;  // mutable memory component
    uint64_t flushes = 0, merges = 0, write_stalls = 0;
  };

  LsmLifecycle(const Index& index, Config config)
      : index_(index), config_(std::move(config)),
        counters_(Index::Counters()) {}

  /// Waits for in-flight background maintenance (including tasks still
  /// queued on the scheduler: they run, observe closing_, and bail).
  /// Unflushed memory components are dropped: WAL truncation only follows
  /// a drained checkpoint flush, so replay recovers them.
  ~LsmLifecycle() {
    std::unique_lock<std::mutex> lock(mu_);
    closing_ = true;
    maint_cv_.notify_all();
    while (tasks_inflight_ > 0 || flush_active_ || merge_active_) {
      maint_cv_.wait(lock);
    }
  }

  LsmLifecycle(const LsmLifecycle&) = delete;
  LsmLifecycle& operator=(const LsmLifecycle&) = delete;

  /// Open the components in `config.dir` named <name>_<lo>_<hi><data ext>,
  /// newest first. A component whose commit-point file is missing is a
  /// flush or merge torn by a crash: its data file is removed (the caller's
  /// WAL replay re-ingests the rows). A component whose sequence range lies
  /// inside a newer one's is a merge victim that outlived its merge: it is
  /// removed too, since the merge output already holds its rows.
  Status Recover() AX_EXCLUDES(mu_);

  /// Apply `write(mem, nothing_older)` to the mutable memory component
  /// under the lock (`nothing_older`: no other component exists); it
  /// returns the bytes it added. Then enforce the memory budget.
  template <class Fn>
  Status Write(Fn&& write) AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    mem_bytes_ += write(mem_, immutables_.empty() && components_.empty());
    return HandleBudgetLocked(lock);
  }

  /// Call `probe(mem)` on the mutable memory component under the lock. If
  /// it returns true (answered) return true; otherwise pin the rest of the
  /// tree into `view` and return false.
  template <class Probe>
  bool Pin(Probe&& probe, View* view) const AX_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (probe(mem_)) return true;
    view->immutables = immutables_;
    view->components = components_;
    view->mem_bytes = mem_bytes_;
    view->flushes = flushes_;
    view->merges = merges_;
    view->write_stalls = write_stalls_;
    return false;
  }

  /// Force all memory components to disk (no-op when empty). Synchronous:
  /// returns once every pending immutable component is flushed.
  Status Flush() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    RotateMemLocked();
    return DrainImmutablesLocked(lock);
  }

  /// Flush, then merge every disk component into one. Synchronous.
  Status ForceFullMerge() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!maint_error_.ok()) return maint_error_;
    RotateMemLocked();
    AX_RETURN_NOT_OK(DrainImmutablesLocked(lock));
    while (merge_active_) maint_cv_.wait(lock);
    return MergeRunLocked(lock, components_.size());
  }

 private:
  std::string BasePath(uint64_t lo, uint64_t hi) const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "_%010llu_%010llu",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return config_.dir + "/" + config_.name + buf;
  }
  static void Bump(metrics::Counter* c, uint64_t n) {
    if (c != nullptr) c->Add(n);
  }
  /// Unlink every file a component at `base` may have (best effort).
  static void RemoveFiles(const std::string& base) {
    for (const char* ext : Index::kDataExts) {
      // axlint: allow(must-check): best-effort component-file unlink
      (void)fs::RemoveFile(base + ext);
    }
    // axlint: allow(must-check): best-effort component-file unlink
    (void)fs::RemoveFile(base + Index::kCommitExt);
  }

  /// Freeze the mutable memory component into immutables_ (no-op if empty).
  void RotateMemLocked() AX_REQUIRES(mu_) {
    if (mem_.empty()) return;
    auto frozen = std::make_shared<Frozen>();
    frozen->seq = next_seq_++;
    frozen->bytes = mem_bytes_;
    frozen->mem = std::move(mem_);
    mem_ = Mem{};
    mem_bytes_ = 0;
    immutables_.insert(immutables_.begin(), std::move(frozen));
  }

  /// Backpressure: wait until fewer than max_pending_immutables immutable
  /// components are pending (counted as a write stall).
  Status WaitForRoomLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    const size_t bound = std::max<size_t>(1, config_.max_pending_immutables);
    if (immutables_.size() < bound) return maint_error_;
    write_stalls_++;
    Bump(counters_.write_stalls, 1);
    const uint64_t t0 = metrics::NowNs();
    while (immutables_.size() >= bound && maint_error_.ok() && !closing_) {
      maint_cv_.wait(lock);
    }
    Bump(counters_.write_stall_ns, metrics::NowNs() - t0);
    return maint_error_;
  }

  /// Post-write budget handling: rotate + schedule (async) or rotate +
  /// drain + merge on the writing thread (inline). `lock` owns mu_ on entry
  /// and exit.
  Status HandleBudgetLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    if (!config_.auto_flush || mem_bytes_ <= config_.mem_budget_bytes) {
      return Status::OK();
    }
    if (config_.scheduler != nullptr) {
      AX_RETURN_NOT_OK(WaitForRoomLocked(lock));
      // Another writer may have rotated while we waited.
      if (mem_bytes_ <= config_.mem_budget_bytes) return Status::OK();
      RotateMemLocked();
      ScheduleFlushLocked();
      return Status::OK();
    }
    RotateMemLocked();
    AX_RETURN_NOT_OK(DrainImmutablesLocked(lock));
    return MergeRunLocked(lock, PickMergeRunLocked());
  }

  /// Flush the oldest immutable component: claims the flush slot, releases
  /// mu_ for the component build, reacquires it to install.
  Status FlushOldestLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    while (flush_active_ && !closing_) maint_cv_.wait(lock);
    if (closing_) return Status::OK();
    if (!maint_error_.ok()) return maint_error_;
    if (immutables_.empty()) return Status::OK();
    flush_active_ = true;
    FrozenPtr victim = immutables_.back();  // oldest
    // Only disk components are older than the oldest immutable one, and
    // the flush slot we hold is the only thing that installs new ones.
    const bool nothing_older = components_.empty();
    const std::string base = BasePath(victim->seq, victim->seq);
    lock.unlock();
    auto built = index_.BuildFlush(base, victim->mem, nothing_older);
    ComponentPtr comp;
    if (built.ok()) {
      comp = std::make_shared<Component>(std::move(built).value(),
                                         victim->seq, victim->seq, base);
    }
    lock.lock();
    flush_active_ = false;
    maint_cv_.notify_all();  // backpressure waiters, drain barriers
    if (!built.ok()) return built.status();
    Bump(counters_.flush_bytes, comp->bytes);
    components_.insert(components_.begin(), std::move(comp));
    immutables_.pop_back();
    flushes_++;
    Bump(counters_.flushes, 1);
    return Status::OK();
  }

  /// Barrier: flush every pending immutable component. Cooperative: this
  /// thread does the flush work itself instead of waiting on a queued
  /// scheduler task, so a bounded pool can never deadlock on a barrier
  /// (e.g. Instance::Checkpoint fanning out partition flushes).
  Status DrainImmutablesLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_) {
    while (true) {
      while (flush_active_) maint_cv_.wait(lock);
      if (!maint_error_.ok()) return maint_error_;
      if (immutables_.empty()) return Status::OK();
      AX_RETURN_NOT_OK(FlushOldestLocked(lock));
    }
  }

  /// Victim-run length the merge policy wants merged (0/1 = nothing).
  size_t PickMergeRunLocked() const AX_REQUIRES(mu_) {
    const MergePolicy& mp = config_.merge_policy;
    switch (mp.kind) {
      case MergePolicyKind::kNoMerge:
        return 0;
      case MergePolicyKind::kConstant:
        if (components_.size() > static_cast<size_t>(mp.max_components)) {
          return components_.size();
        }
        return 0;
      case MergePolicyKind::kPrefix: {
        // The longest newest-first run of small components whose total
        // stays under the cap; skip if the run is trivial.
        size_t run = 0;
        uint64_t total = 0;
        for (const auto& comp : components_) {
          if (total + comp->bytes > mp.max_merged_bytes) break;
          total += comp->bytes;
          run++;
        }
        return run >= 2 ? run : 0;
      }
    }
    return 0;
  }

  /// Merge the newest `run` disk components: claims the merge slot,
  /// releases mu_ for the merged-component build, reacquires it to splice
  /// the component list. No-op if a merge is active or `run` < 2.
  Status MergeRunLocked(std::unique_lock<std::mutex>& lock, size_t run)
      AX_REQUIRES(mu_) {
    if (merge_active_ || run < 2) return Status::OK();
    merge_active_ = true;
    const bool includes_oldest = run == components_.size();
    std::vector<ComponentPtr> victims(
        components_.begin(), components_.begin() + static_cast<ptrdiff_t>(run));
    const uint64_t seq_lo = victims.back()->seq_lo;
    const uint64_t seq_hi = victims.front()->seq_hi;
    const std::string base = BasePath(seq_lo, seq_hi);
    lock.unlock();
    auto built = index_.BuildMerge(base, victims, includes_oldest);
    ComponentPtr merged;
    if (built.ok()) {
      merged = std::make_shared<Component>(std::move(built).value(), seq_lo,
                                           seq_hi, base);
    }
    lock.lock();
    merge_active_ = false;
    maint_cv_.notify_all();
    if (!built.ok()) return built.status();
    // Flushes only prepend, so the victim run is still contiguous (and
    // still the oldest suffix if it was one); splice the merged component
    // into its place. Readers that pinned the victims keep reading them
    // until their last reference drops.
    auto first =
        std::find(components_.begin(), components_.end(), victims.front());
    if (first == components_.end()) {
      return Status::Internal("merge victims vanished from component list");
    }
    for (auto& victim : victims) victim->obsolete = true;
    Bump(counters_.merge_bytes, merged->bytes);
    auto pos = components_.erase(first, first + static_cast<ptrdiff_t>(run));
    components_.insert(pos, std::move(merged));
    merges_++;
    Bump(counters_.merges, 1);
    return Status::OK();
  }

  void ScheduleFlushLocked() AX_REQUIRES(mu_) {
    if (config_.scheduler == nullptr || flush_queued_ || closing_) return;
    flush_queued_ = true;
    tasks_inflight_++;
    config_.scheduler->Submit([this] { BackgroundFlush(); });
  }

  void ScheduleMergeLocked() AX_REQUIRES(mu_) {
    if (config_.scheduler == nullptr || merge_queued_ || merge_active_ ||
        closing_ || PickMergeRunLocked() < 2) {
      return;
    }
    merge_queued_ = true;
    tasks_inflight_++;
    config_.scheduler->Submit([this] { BackgroundMerge(); });
  }

  void BackgroundFlush() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!closing_ && maint_error_.ok()) {
      if (flush_active_) {  // a barrier (Flush/Checkpoint) is doing our work
        maint_cv_.wait(lock);
        continue;
      }
      if (immutables_.empty()) break;
      Status s = FlushOldestLocked(lock);
      if (!s.ok()) {
        if (maint_error_.ok()) maint_error_ = std::move(s);
        break;
      }
    }
    // Cleared under the same lock hold as the emptiness check: a rotation
    // after this point submits a fresh task.
    flush_queued_ = false;
    if (!closing_ && maint_error_.ok()) ScheduleMergeLocked();
    tasks_inflight_--;
    maint_cv_.notify_all();
  }

  void BackgroundMerge() AX_EXCLUDES(mu_) {
    std::unique_lock<std::mutex> lock(mu_);
    merge_queued_ = false;
    if (!closing_ && maint_error_.ok()) {
      Status s = MergeRunLocked(lock, PickMergeRunLocked());
      if (!s.ok() && maint_error_.ok()) maint_error_ = std::move(s);
    }
    tasks_inflight_--;
    maint_cv_.notify_all();
  }

  const Index& index_;
  const Config config_;
  const LsmCounters& counters_;
  mutable std::mutex mu_;
  std::condition_variable maint_cv_;  // flush/merge slots, drain,
                                      // backpressure
  Mem mem_ AX_GUARDED_BY(mu_);
  size_t mem_bytes_ AX_GUARDED_BY(mu_) = 0;
  std::vector<FrozenPtr> immutables_ AX_GUARDED_BY(mu_);     // newest first
  std::vector<ComponentPtr> components_ AX_GUARDED_BY(mu_);  // newest first
  uint64_t next_seq_ AX_GUARDED_BY(mu_) = 1;
  uint64_t flushes_ AX_GUARDED_BY(mu_) = 0;
  uint64_t merges_ AX_GUARDED_BY(mu_) = 0;
  uint64_t write_stalls_ AX_GUARDED_BY(mu_) = 0;
  bool flush_active_ AX_GUARDED_BY(mu_) = false;  // a thread owns the
                                                  // flush slot
  bool flush_queued_ AX_GUARDED_BY(mu_) = false;  // background flush task
                                                  // submitted
  bool merge_active_ AX_GUARDED_BY(mu_) = false;
  bool merge_queued_ AX_GUARDED_BY(mu_) = false;
  bool closing_ AX_GUARDED_BY(mu_) = false;
  int tasks_inflight_ AX_GUARDED_BY(mu_) = 0;  // scheduler tasks not yet
                                               // finished
  Status maint_error_ AX_GUARDED_BY(mu_);  // sticky background failure
};

template <class Index>
Status LsmLifecycle<Index>::Recover() {
  AX_RETURN_NOT_OK(fs::CreateDirs(config_.dir));
  AX_ASSIGN_OR_RETURN(auto names, fs::ListDir(config_.dir));
  struct Found {
    uint64_t lo, hi;
    std::string base, ext;
  };
  std::vector<Found> found;
  for (const auto& n : names) {
    if (n.compare(0, config_.name.size(), config_.name) != 0) continue;
    const std::string tail = n.substr(config_.name.size());
    unsigned long long lo, hi;
    int end = 0;
    if (std::sscanf(tail.c_str(), "_%llu_%llu%n", &lo, &hi, &end) != 2) {
      continue;
    }
    const std::string ext = tail.substr(static_cast<size_t>(end));
    if (std::find(std::begin(Index::kDataExts), std::end(Index::kDataExts),
                  ext) == std::end(Index::kDataExts)) {
      continue;
    }
    found.push_back({lo, hi, config_.dir + "/" + n.substr(0, n.size() - ext.size()),
                     ext});
  }
  // Newest first; of two components ending at the same sequence number
  // the wider (a merge output) first.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.hi != b.hi ? a.hi > b.hi : a.lo < b.lo;
  });
  std::lock_guard<std::mutex> lock(mu_);
  for (const Found& f : found) {
    // The commit-point file is written last: a data file without one is a
    // build that was in flight at a crash.
    const bool torn = !fs::Exists(f.base + Index::kCommitExt);
    const bool merged_away =
        std::any_of(components_.begin(), components_.end(),
                    [&](const ComponentPtr& c) {
                      return c->seq_lo <= f.lo && f.hi <= c->seq_hi;
                    });
    if (torn) LsmIncompleteDroppedCounter()->Add(1);
    if (torn || merged_away) {
      RemoveFiles(f.base);
      continue;
    }
    AX_ASSIGN_OR_RETURN(Payload payload, index_.OpenComponent(f.base, f.ext));
    components_.push_back(
        std::make_shared<Component>(std::move(payload), f.lo, f.hi, f.base));
    next_seq_ = std::max<uint64_t>(next_seq_, f.hi + 1);
  }
  return Status::OK();
}

}  // namespace asterix::storage
