// LSM R-tree secondary index (paper §III item 8, §V-B study). Follows the
// AsterixDB design: each disk component pairs an immutable R-tree of
// inserted entries with a B+tree of deleted keys; an entry from component i
// is live iff no newer component's deleted-key set contains it. This is the
// "change in how deletions were handled for LSM" the paper mentions.
//
// The component lifecycle (rotation, flush, merge policy, background
// maintenance, backpressure, recovery) is the shared LsmLifecycle, the
// same one LsmBTree uses; this file supplies the R-tree's memory component,
// disk components and queries. Merges follow the constant policy (merge
// everything past five components).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/lsm_lifecycle.h"
#include "storage/rtree.h"

namespace asterix::storage {

struct LsmRTreeOptions {
  std::string dir;
  std::string name;
  BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 1u << 20;
  bool point_mode = true;   // the paper's point-storage optimization
  /// Background maintenance pool (null = inline maintenance). Must outlive
  /// the tree. Same contract as LsmOptions::scheduler.
  MaintenanceScheduler* scheduler = nullptr;
};

struct LsmRTreeStats {
  size_t mem_entries = 0;  // mutable + pending immutable memory components
  size_t pending_immutables = 0;
  size_t disk_components = 0;
  uint64_t disk_entries = 0;
  uint64_t disk_pages = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t write_stalls = 0;
};

/// LSM-managed R-tree mapping MBRs (or points) to opaque payloads
/// (encoded primary keys). Thread-safe.
class LsmRTree {
 public:
  /// Open (or create) the tree, recovering its components. An .rt file
  /// without its .del (the commit point) is a torn flush and is dropped;
  /// the caller's WAL replay re-ingests its rows. Destroying the tree waits
  /// for its in-flight background maintenance.
  static Result<std::unique_ptr<LsmRTree>> Open(const LsmRTreeOptions& options);

  Status Insert(const adm::Rectangle& mbr, const std::string& payload);
  /// Record deletion of a previously inserted (mbr, payload) entry.
  Status Remove(const adm::Rectangle& mbr, const std::string& payload);

  /// All live entries whose MBR intersects `query`.
  Result<std::vector<SpatialEntry>> Query(const adm::Rectangle& query) const;

  /// Synchronous barrier: all memory components flushed to disk.
  Status Flush() { return life_.Flush(); }
  Status ForceFullMerge() { return life_.ForceFullMerge(); }
  LsmRTreeStats stats() const;

 private:
  // ---- LsmLifecycle hooks -------------------------------------------------
  friend class LsmLifecycle<LsmRTree>;
  struct Mem {
    std::vector<SpatialEntry> inserts;
    std::set<std::string> deleted;  // DeleteKey()s
    bool empty() const { return inserts.empty() && deleted.empty(); }
  };
  /// An immutable R-tree of inserted entries plus a B+tree of deleted keys.
  struct Payload {
    std::unique_ptr<RTree> rtree;
    std::unique_ptr<BTree> deleted;
    uint64_t bytes = 0;
  };
  // The deleted-key tree is written last: it is the commit point.
  static constexpr const char* kDataExts[] = {".rt"};
  static constexpr const char* kCommitExt = ".del";
  using Life = LsmLifecycle<LsmRTree>;
  using ComponentPtr = Life::ComponentPtr;

  Result<Payload> BuildFlush(const std::string& base, const Mem& frozen,
                             bool nothing_older) const;
  Result<Payload> BuildMerge(const std::string& base,
                             const std::vector<ComponentPtr>& victims,
                             bool includes_oldest) const;
  Result<Payload> OpenComponent(const std::string& base,
                                const std::string& ext) const;
  static const LsmCounters& Counters();

  explicit LsmRTree(LsmRTreeOptions options);
  Result<Payload> WriteComponent(const std::string& base,
                                 const std::vector<SpatialEntry>& entries,
                                 const std::set<std::string>& deleted) const;
  static std::string DeleteKey(const adm::Rectangle& mbr,
                               const std::string& payload);
  /// The MBR a DeleteKey() names (its first 32 bytes).
  static adm::Rectangle DeleteKeyMbr(const std::string& delete_key);

  const LsmRTreeOptions options_;
  Life life_;  // declared last: destroyed first, after maintenance drains
};

}  // namespace asterix::storage
