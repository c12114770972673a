// LSM B+tree: the native storage structure of asterix-lite datasets
// (paper §III item 5, Fig. 2). Writes go to an in-memory component; when it
// exceeds its budget it is rotated to an immutable memory component and
// flushed to an on-disk B+tree component with a Bloom filter. Deletes write
// antimatter entries. Reads consult the mutable memory component, then
// immutable memory components, then disk components newest-to-oldest; scans
// merge all components, resolving each key to its newest version.
//
// The component lifecycle (rotation, flush, merge policy, background
// maintenance, backpressure, recovery) is the shared LsmLifecycle; this
// file supplies the B+tree's memory component, disk components and reads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/bloom.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/columnar.h"
#include "storage/lsm_lifecycle.h"

namespace asterix::storage {

/// On-disk layout of flushed/merged components (paper §VII: columnar
/// storage). Row components are B+trees (.cmp); columnar components are
/// per-column page files (.col, see columnar.h). A tree may hold a mix —
/// reads and merges dispatch per component, and merges converge the stack
/// to the configured format.
enum class StorageFormat : uint8_t { kRow, kColumnar };

/// Configuration for an LSM tree instance.
struct LsmOptions {
  std::string dir;          // directory holding component files
  std::string name;         // component filename prefix
  BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 1u << 20;
  int bloom_bits_per_key = 10;
  MergePolicy merge_policy;
  bool auto_flush = true;   // flush automatically when the budget is hit
  /// Compress values in disk components (paper §VII: storage compression).
  /// Applies to row components only; columnar components are uncompressed.
  bool compress_values = false;
  /// Format for components written by this tree's flushes and merges.
  /// Components written with kColumnar fall back to a row component when a
  /// buffered value is not a columnar-representable ADM record (see
  /// RecordIsColumnar); existing components of either format stay readable.
  StorageFormat storage_format = StorageFormat::kRow;
  /// Background maintenance pool. When set, budget-tripping writes rotate
  /// the memory component and return immediately; component builds and
  /// merges run on the pool. When null, maintenance runs inline on the
  /// writing thread (the pre-scheduler behavior). The scheduler must
  /// outlive the tree.
  MaintenanceScheduler* scheduler = nullptr;
  /// Backpressure bound: a write blocks only while this many immutable
  /// memory components are already pending flush (async mode only). The
  /// wait is surfaced through the storage.lsm.write_stall_* metrics.
  size_t max_pending_immutables = 2;
};

/// Point-in-time statistics (benchmarks read these).
struct LsmStats {
  size_t mem_entries = 0;  // mutable + pending immutable memory components
  size_t mem_bytes = 0;
  size_t pending_immutables = 0;  // immutable memory components not yet flushed
  size_t disk_components = 0;
  size_t columnar_components = 0;  // subset of disk_components
  uint64_t disk_entries = 0;   // includes antimatter
  uint64_t disk_bytes = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t write_stalls = 0;   // writes that hit the backpressure bound
};

/// An LSM-managed B+tree over byte-string keys. Thread-safe.
class LsmBTree {
 public:
  /// Open (or create) the tree; existing components in `options.dir` with
  /// the configured name prefix are recovered in sequence order. A
  /// component whose Bloom file is missing is an incomplete flush (the
  /// Bloom file is the flush commit point) — its data file is removed and
  /// the rows are recovered from the WAL by the caller's replay. Destroying
  /// the tree waits for its in-flight background maintenance; unflushed
  /// memory components are dropped (WAL replay recovers them).
  static Result<std::unique_ptr<LsmBTree>> Open(const LsmOptions& options);

  /// Insert or overwrite.
  Status Put(const std::string& key, const std::string& value);
  /// Delete via antimatter.
  Status Delete(const std::string& key);
  /// Point lookup (Bloom filters skip non-containing components).
  Result<bool> Get(const std::string& key, std::string* value) const;

  /// Force all memory components to disk (no-op when empty). Synchronous:
  /// returns once every pending immutable component is flushed.
  Status Flush() { return life_.Flush(); }
  /// Merge every disk component into one (full merge). Synchronous.
  Status ForceFullMerge() { return life_.ForceFullMerge(); }

  LsmStats stats() const;

  /// Snapshot iterator over the merged view (newest version per key,
  /// antimatter suppressed), limited to the key range of NewIterator.
  class Iterator {
   public:
    Status Seek(const std::string& key);
    Status SeekToFirst();
    bool Valid() const { return valid_; }
    Status Next();
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }

   private:
    friend class LsmBTree;
    struct Source;
    Iterator(std::vector<std::unique_ptr<Source>> sources, std::string lo,
             std::optional<std::string> hi);
    Status Advance();
    std::vector<std::unique_ptr<Source>> sources_;
    std::string lo_;                 // Seek never goes below it
    std::optional<std::string> hi_;  // !Valid() past it; unset = no bound
    bool keep_antimatter_ = false;  // merges: yield deleted keys too
    bool valid_ = false;
    bool antimatter_ = false;
    std::string key_, value_;

   public:
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;
    ~Iterator();
  };

  /// Iterator over the keys in [lo, hi] (`hi` unset: no upper bound), so
  /// NewIterator() covers the whole tree. Seek below `lo` lands on `lo`;
  /// the iterator turns !Valid() once past `hi`, so callers need no bound
  /// check of their own.
  ///
  /// What it pins and copies: the in-range entries of the mutable memory
  /// component are copied under the lifecycle lock (O(log n + k)); the
  /// immutable memory components (frozen at rotation) and the disk
  /// components are pinned by reference and read in place. The view is a
  /// snapshot: writes, flushes and merges after creation do not affect it.
  Result<Iterator> NewIterator(std::string lo = {},
                               std::optional<std::string> hi = {}) const;

  /// One fully materialized LSM row (used by scan snapshots and the
  /// component writers' buffered input).
  struct SnapshotEntry {
    std::string key;
    bool antimatter = false;
    std::string value;
  };

  /// A stable view of the tree for external batch scans (hyracks'
  /// ColumnarScanSource): the memory components merged and copied out,
  /// plus per-disk-component readers kept alive by `keepalive` even across
  /// concurrent flushes and merges. Exactly one of tree/columnar is set
  /// per component.
  struct ComponentRef {
    std::shared_ptr<const void> keepalive;
    const BTree* tree = nullptr;
    const ColumnarReader* columnar = nullptr;
  };
  struct ScanSnapshot {
    std::vector<SnapshotEntry> mem;       // sorted by key
    std::vector<ComponentRef> components; // newest first
  };
  ScanSnapshot GetScanSnapshot() const;

 private:
  // ---- LsmLifecycle hooks -------------------------------------------------
  friend class LsmLifecycle<LsmBTree>;
  struct MemEntry {
    bool antimatter = false;
    std::string value;
  };
  using Mem = std::map<std::string, MemEntry>;
  struct Payload {
    std::unique_ptr<BTree> tree;          // row component
    std::unique_ptr<ColumnarReader> col;  // columnar component
    BloomFilter bloom;
    uint64_t bytes = 0;  // on-disk size of the data file
    bool columnar() const { return col != nullptr; }
    uint64_t entries() const {
      return columnar() ? col->row_count() : tree->entry_count();
    }
  };
  // Row B+tree or columnar data file; the Bloom file is the commit point.
  static constexpr const char* kDataExts[] = {".cmp", ".col"};
  static constexpr const char* kCommitExt = ".bloom";
  using Life = LsmLifecycle<LsmBTree>;
  using ComponentPtr = Life::ComponentPtr;

  Result<Payload> BuildFlush(const std::string& base, const Mem& frozen,
                             bool nothing_older) const;
  Result<Payload> BuildMerge(const std::string& base,
                             const std::vector<ComponentPtr>& victims,
                             bool includes_oldest) const;
  Result<Payload> OpenComponent(const std::string& base,
                                const std::string& ext) const;
  static const LsmCounters& Counters();

  explicit LsmBTree(LsmOptions options);
  /// Write `rows` (sorted) as a component in the configured format,
  /// falling back to a row component when a value is not
  /// columnar-representable; the Bloom file goes last.
  Result<Payload> WriteComponent(const std::string& base,
                                 const std::vector<SnapshotEntry>& rows) const;

  const LsmOptions options_;
  Life life_;  // declared last: destroyed first, after maintenance drains
};

/// Row-component entry codec, shared with external scan sources that read
/// raw B+tree values out of a ScanSnapshot: each entry is a 1-byte marker
/// (live / antimatter / live-compressed) followed by the payload.
bool DiskEntryIsAntimatter(const std::string& raw);
Result<std::string> DecodeDiskEntry(const std::string& raw);

}  // namespace asterix::storage
