#include "storage/lsm_btree.h"

#include <algorithm>

#include "adm/serde.h"
#include "common/compress.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix::storage {

namespace {
metrics::Counter* ColumnarComponentsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "storage.columnar.components_written");
  return c;
}

constexpr char kLive = 0;
constexpr char kAntimatter = 1;
constexpr char kLiveCompressed = 2;
constexpr size_t kCompressThreshold = 64;

// Encode a live value per the compression option; antimatter entries are
// always the bare kAntimatter byte.
std::string EncodeDiskValue(const std::string& value, bool antimatter,
                            bool compress) {
  if (antimatter) return std::string(1, kAntimatter);
  if (compress && value.size() >= kCompressThreshold) {
    std::string packed = Compress(value);
    if (packed.size() < value.size()) {
      std::string out(1, kLiveCompressed);
      out += packed;
      return out;
    }
  }
  std::string out(1, kLive);
  out += value;
  return out;
}

// True (and fills `records`, antimatter slots left Missing) iff every live
// row decodes to an ADM value the columnar layout can represent.
bool DecodeColumnarRecords(const std::vector<LsmBTree::SnapshotEntry>& rows,
                           std::vector<adm::Value>* records) {
  records->clear();
  records->reserve(rows.size());
  for (const auto& row : rows) {
    if (row.antimatter) {
      records->push_back(adm::Value::Missing());
      continue;
    }
    auto decoded = adm::Deserialize(row.value);
    if (!decoded.ok() || !RecordIsColumnar(decoded.value())) return false;
    records->push_back(std::move(decoded).value());
  }
  return true;
}
}  // namespace

bool DiskEntryIsAntimatter(const std::string& raw) {
  return !raw.empty() && raw[0] == kAntimatter;
}

Result<std::string> DecodeDiskEntry(const std::string& raw) {
  if (raw.empty()) return Status::Corruption("empty LSM disk entry");
  if (raw[0] == kLiveCompressed) return Decompress(raw.substr(1));
  return raw.substr(1);
}

const LsmCounters& LsmBTree::Counters() {
  static const LsmCounters counters{
      metrics::Registry::Global().GetCounter("storage.lsm.flushes"),
      metrics::Registry::Global().GetCounter("storage.lsm.flush_bytes"),
      metrics::Registry::Global().GetCounter("storage.lsm.merges"),
      metrics::Registry::Global().GetCounter("storage.lsm.merge_bytes"),
      metrics::Registry::Global().GetCounter("storage.lsm.write_stalls"),
      metrics::Registry::Global().GetCounter("storage.lsm.write_stall_ns")};
  return counters;
}

LsmBTree::LsmBTree(LsmOptions options)
    : options_(std::move(options)),
      life_(*this, {options_.dir, options_.name, options_.mem_budget_bytes,
                    options_.auto_flush, options_.merge_policy,
                    options_.scheduler, options_.max_pending_immutables}) {}

Result<std::unique_ptr<LsmBTree>> LsmBTree::Open(const LsmOptions& options) {
  if (options.cache == nullptr) {
    return Status::InvalidArgument("LsmOptions.cache is required");
  }
  auto tree = std::unique_ptr<LsmBTree>(new LsmBTree(options));
  AX_RETURN_NOT_OK(tree->life_.Recover());
  return tree;
}

Result<LsmBTree::Payload> LsmBTree::OpenComponent(
    const std::string& base, const std::string& ext) const {
  Payload p;
  if (ext == ".col") {
    AX_ASSIGN_OR_RETURN(p.col, ColumnarReader::Open(base + ext));
    p.bytes = p.col->file_bytes();
  } else {
    AX_ASSIGN_OR_RETURN(p.tree, BTree::Open(base + ext, options_.cache));
    p.bytes = static_cast<uint64_t>(p.tree->meta().page_count) * kPageSize;
  }
  AX_ASSIGN_OR_RETURN(auto bloom_data, fs::ReadFileToString(base + kCommitExt));
  AX_ASSIGN_OR_RETURN(p.bloom, BloomFilter::Deserialize(bloom_data));
  return p;
}

// ---------------------------------------------------------------------------
// Writes and point reads
// ---------------------------------------------------------------------------

Status LsmBTree::Put(const std::string& key, const std::string& value) {
  return life_.Write([&](Mem& mem, bool) {
    mem.insert_or_assign(key, MemEntry{false, value});
    return key.size() + value.size() + 32;
  });
}

Status LsmBTree::Delete(const std::string& key) {
  return life_.Write([&](Mem& mem, bool) {
    mem.insert_or_assign(key, MemEntry{true, ""});
    return key.size() + 32;
  });
}

Result<bool> LsmBTree::Get(const std::string& key, std::string* value) const {
  bool found = false;
  // Answers from a memory component; immutable ones are frozen, so probing
  // them off-lock is safe.
  auto probe = [&](const Mem& mem) {
    auto it = mem.find(key);
    if (it == mem.end()) return false;
    found = !it->second.antimatter;
    if (found && value) *value = it->second.value;
    return true;
  };
  Life::View view;
  if (life_.Pin(probe, &view)) return found;
  for (const auto& imm : view.immutables) {
    if (probe(imm->mem)) return found;
  }
  for (const auto& comp : view.components) {
    if (!comp->bloom.MayContain(key)) continue;
    if (comp->columnar()) {
      uint64_t row = comp->col->LowerBound(key);
      if (row >= comp->col->row_count() || comp->col->key(row) != key) continue;
      if (comp->col->antimatter(row)) return false;
      if (value) {
        AX_ASSIGN_OR_RETURN(adm::Value record, comp->col->ReadRecord(row));
        *value = adm::Serialize(record);
      }
      return true;
    }
    std::string raw;
    AX_ASSIGN_OR_RETURN(bool hit, comp->tree->Get(key, &raw));
    if (!hit) continue;
    if (raw.empty()) return Status::Corruption("empty LSM disk entry");
    if (raw[0] == kAntimatter) return false;
    if (value) {
      AX_ASSIGN_OR_RETURN(*value, DecodeDiskEntry(raw));
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Component builds
// ---------------------------------------------------------------------------

Result<LsmBTree::Payload> LsmBTree::WriteComponent(
    const std::string& base, const std::vector<SnapshotEntry>& rows) const {
  Payload p;
  p.bloom = BloomFilter(std::max<uint64_t>(rows.size(), 16),
                        options_.bloom_bits_per_key);
  for (const auto& row : rows) p.bloom.Add(row.key);

  std::vector<adm::Value> records;
  if (options_.storage_format == StorageFormat::kColumnar &&
      DecodeColumnarRecords(rows, &records)) {
    ColumnarComponentWriter writer(base + ".col");
    for (size_t i = 0; i < rows.size(); i++) {
      writer.Add(rows[i].key, rows[i].antimatter, std::move(records[i]));
    }
    AX_ASSIGN_OR_RETURN(auto wrote, writer.Finish());
    AX_ASSIGN_OR_RETURN(p.col, ColumnarReader::Open(base + ".col"));
    p.bytes = wrote.file_bytes;
    ColumnarComponentsCounter()->Add(1);
  } else {
    AX_ASSIGN_OR_RETURN(auto builder, BTreeBuilder::Create(base + ".cmp"));
    for (const auto& row : rows) {
      AX_RETURN_NOT_OK(builder->Add(
          row.key, EncodeDiskValue(row.value, row.antimatter,
                                   options_.compress_values)));
    }
    AX_ASSIGN_OR_RETURN(auto meta, builder->Finish());
    AX_ASSIGN_OR_RETURN(p.tree, BTree::Open(base + ".cmp", options_.cache));
    p.bytes = static_cast<uint64_t>(meta.page_count) * kPageSize;
  }
  // The Bloom file is written last: it is the commit point that recovery
  // uses to tell complete components from torn builds.
  AX_RETURN_NOT_OK(
      fs::WriteStringToFile(base + kCommitExt, p.bloom.Serialize()));
  return p;
}

Result<LsmBTree::Payload> LsmBTree::BuildFlush(const std::string& base,
                                               const Mem& frozen,
                                               bool nothing_older) const {
  std::vector<SnapshotEntry> rows;
  rows.reserve(frozen.size());
  for (const auto& [key, entry] : frozen) {
    if (entry.antimatter && nothing_older) continue;  // nothing below to hide
    rows.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
  }
  return WriteComponent(base, rows);
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

struct LsmBTree::Iterator::Source {
  int rank = 0;  // lower = newer
  // Memory source: the iterator's own copy of the mutable component's
  // in-range entries (a sorted vector: cheaper to build under the lock
  // than a map), or an immutable memory component read in place (frozen
  // at rotation, kept alive by this pin).
  bool is_copy = false;
  std::vector<std::pair<std::string, MemEntry>> copy;
  size_t idx = 0;
  Life::FrozenPtr frozen;
  Mem::const_iterator pos;
  // Disk source (row component):
  ComponentPtr comp;
  std::unique_ptr<BTree::Iterator> disk;
  // Disk source (columnar component): all columns preloaded so full scans
  // and merges materialize from memory instead of per-row preads.
  bool is_col = false;
  std::vector<ColumnData> cols;
  uint64_t row = 0;

  bool valid() const {
    if (is_copy) return idx < copy.size();
    if (frozen) return pos != frozen->mem.end();
    if (is_col) return row < comp->col->row_count();
    return disk && disk->Valid();
  }
  const std::string& key() const {
    if (is_copy) return copy[idx].first;
    if (frozen) return pos->first;
    if (is_col) return comp->col->key(row);
    return disk->key();
  }
  bool antimatter() const {
    if (is_copy) return copy[idx].second.antimatter;
    if (frozen) return pos->second.antimatter;
    if (is_col) return comp->col->antimatter(row);
    return !disk->value().empty() && disk->value()[0] == kAntimatter;
  }
  Result<std::string> value() const {
    if (is_copy) return copy[idx].second.value;
    if (frozen) return pos->second.value;
    if (is_col) {
      AX_ASSIGN_OR_RETURN(adm::Value record, comp->col->MaterializeRow(cols, row));
      return adm::Serialize(record);
    }
    return DecodeDiskEntry(disk->value());
  }
  Status Next() {
    if (is_copy) {
      idx++;
      return Status::OK();
    }
    if (frozen) {
      ++pos;
      return Status::OK();
    }
    if (is_col) {
      row++;
      return Status::OK();
    }
    return disk->Next();
  }
  Status Seek(const std::string& k) {
    if (is_copy) {
      idx = static_cast<size_t>(
          std::lower_bound(copy.begin(), copy.end(), k,
                           [](const auto& a, const std::string& b) {
                             return a.first < b;
                           }) -
          copy.begin());
      return Status::OK();
    }
    if (frozen) {
      pos = frozen->mem.lower_bound(k);
      return Status::OK();
    }
    if (is_col) {
      row = comp->col->LowerBound(k);
      return Status::OK();
    }
    return disk->Seek(k);
  }

  static std::unique_ptr<Source> ForFrozen(Life::FrozenPtr mem, int rank) {
    auto src = std::make_unique<Source>();
    src->rank = rank;
    src->frozen = std::move(mem);
    src->pos = src->frozen->mem.begin();
    return src;
  }
  static Result<std::unique_ptr<Source>> ForComponent(ComponentPtr c,
                                                      int rank) {
    auto src = std::make_unique<Source>();
    src->rank = rank;
    src->comp = std::move(c);
    if (src->comp->columnar()) {
      src->is_col = true;
      AX_ASSIGN_OR_RETURN(src->cols, src->comp->col->ReadAllColumns());
    } else {
      src->disk =
          std::make_unique<BTree::Iterator>(src->comp->tree->NewIterator());
    }
    return src;
  }
};

LsmBTree::Iterator::Iterator(std::vector<std::unique_ptr<Source>> sources,
                             std::string lo, std::optional<std::string> hi)
    : sources_(std::move(sources)), lo_(std::move(lo)), hi_(std::move(hi)) {}
LsmBTree::Iterator::Iterator(Iterator&&) noexcept = default;
LsmBTree::Iterator& LsmBTree::Iterator::operator=(Iterator&&) noexcept =
    default;
LsmBTree::Iterator::~Iterator() = default;

Status LsmBTree::Iterator::Seek(const std::string& key) {
  const std::string& from = key < lo_ ? lo_ : key;
  for (auto& s : sources_) AX_RETURN_NOT_OK(s->Seek(from));
  return Advance();
}

Status LsmBTree::Iterator::SeekToFirst() { return Seek(lo_); }

Status LsmBTree::Iterator::Next() { return Advance(); }

Status LsmBTree::Iterator::Advance() {
  valid_ = false;
  while (true) {
    // Find the smallest key across sources; the newest source wins.
    const Source* winner = nullptr;
    const std::string* min_key = nullptr;
    for (const auto& s : sources_) {
      if (!s->valid()) continue;
      if (min_key == nullptr || s->key() < *min_key) {
        min_key = &s->key();
        winner = s.get();
      } else if (s->key() == *min_key && s->rank < winner->rank) {
        winner = s.get();
      }
    }
    // Exhausted, or past the end of the range.
    if (winner == nullptr || (hi_ && *min_key > *hi_)) return Status::OK();
    std::string k = *min_key;
    bool anti = winner->antimatter();
    std::string v;
    if (!anti) {
      AX_ASSIGN_OR_RETURN(v, winner->value());
    }
    // Advance every source positioned at this key.
    for (auto& s : sources_) {
      while (s->valid() && s->key() == k) AX_RETURN_NOT_OK(s->Next());
    }
    if (anti && !keep_antimatter_) continue;  // deleted — try the next key
    key_ = std::move(k);
    value_ = std::move(v);
    antimatter_ = anti;
    valid_ = true;
    return Status::OK();
  }
}

Result<LsmBTree::Payload> LsmBTree::BuildMerge(
    const std::string& base, const std::vector<ComponentPtr>& victims,
    bool includes_oldest) const {
  // Merge the victims (pinned and immutable, so no lock) into one sorted
  // stream, then write it in the configured format: this is what converges
  // a mixed row/columnar stack. Antimatter survives unless nothing older
  // than the victims is left for it to annihilate.
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  int rank = 0;
  for (const auto& comp : victims) {
    AX_ASSIGN_OR_RETURN(auto src, Iterator::Source::ForComponent(comp, rank++));
    sources.push_back(std::move(src));
  }
  Iterator it(std::move(sources), {}, {});
  it.keep_antimatter_ = !includes_oldest;
  std::vector<SnapshotEntry> rows;
  AX_RETURN_NOT_OK(it.SeekToFirst());
  while (it.Valid()) {
    rows.push_back(SnapshotEntry{std::move(it.key_), it.antimatter_,
                                 std::move(it.value_)});
    AX_RETURN_NOT_OK(it.Next());
  }
  return WriteComponent(base, rows);
}

Result<LsmBTree::Iterator> LsmBTree::NewIterator(
    std::string lo, std::optional<std::string> hi) const {
  // Only the mutable memory component changes under us: copy its in-range
  // entries under the lock. Everything else is frozen and read in place.
  auto mutable_src = std::make_unique<Iterator::Source>();
  mutable_src->is_copy = true;
  Life::View view;
  life_.Pin(
      [&](const Mem& mem) {
        if (!hi || lo <= *hi) {
          mutable_src->copy.assign(mem.lower_bound(lo),
                                   hi ? mem.upper_bound(*hi) : mem.end());
        }
        return false;
      },
      &view);
  std::vector<std::unique_ptr<Iterator::Source>> sources;
  sources.push_back(std::move(mutable_src));
  int rank = 1;
  for (const auto& imm : view.immutables) {  // newest first
    sources.push_back(Iterator::Source::ForFrozen(imm, rank++));
  }
  for (const auto& comp : view.components) {
    AX_ASSIGN_OR_RETURN(auto src, Iterator::Source::ForComponent(comp, rank++));
    sources.push_back(std::move(src));
  }
  return Iterator(std::move(sources), std::move(lo), std::move(hi));
}

LsmBTree::ScanSnapshot LsmBTree::GetScanSnapshot() const {
  ScanSnapshot snap;
  Life::View view;
  life_.Pin(
      [&](const Mem& mem) {
        snap.mem.reserve(mem.size());
        for (const auto& [key, entry] : mem) {
          snap.mem.push_back(SnapshotEntry{key, entry.antimatter, entry.value});
        }
        return false;
      },
      &view);
  if (!view.immutables.empty()) {
    // Merge the immutable memory components (frozen, read in place) under
    // the mutable entries in one pass; on equal keys the newest wins.
    std::vector<SnapshotEntry> newest = std::move(snap.mem);
    snap.mem.clear();
    std::vector<Mem::const_iterator> pos;
    for (const auto& imm : view.immutables) pos.push_back(imm->mem.begin());
    auto at_end = [&](size_t i) {
      return pos[i] == view.immutables[i]->mem.end();
    };
    size_t next = 0;  // into `newest`
    while (true) {
      const std::string* key =
          next < newest.size() ? &newest[next].key : nullptr;
      size_t winner = pos.size();  // pos.size() = the mutable entries
      for (size_t i = 0; i < pos.size(); i++) {
        if (!at_end(i) && (key == nullptr || pos[i]->first < *key)) {
          key = &pos[i]->first;
          winner = i;
        }
      }
      if (key == nullptr) break;
      SnapshotEntry row =
          winner == pos.size()
              ? std::move(newest[next++])
              : SnapshotEntry{pos[winner]->first, pos[winner]->second.antimatter,
                              pos[winner]->second.value};
      for (size_t i = 0; i < pos.size(); i++) {
        if (!at_end(i) && pos[i]->first == row.key) ++pos[i];
      }
      snap.mem.push_back(std::move(row));
    }
  }
  for (const auto& comp : view.components) {
    ComponentRef ref;
    ref.keepalive = comp;
    if (comp->columnar()) {
      ref.columnar = comp->col.get();
    } else {
      ref.tree = comp->tree.get();
    }
    snap.components.push_back(std::move(ref));
  }
  return snap;
}

LsmStats LsmBTree::stats() const {
  LsmStats s;
  Life::View view;
  life_.Pin(
      [&](const Mem& mem) {
        s.mem_entries = mem.size();
        return false;
      },
      &view);
  s.mem_bytes = view.mem_bytes;
  s.pending_immutables = view.immutables.size();
  for (const auto& imm : view.immutables) {
    s.mem_entries += imm->mem.size();
    s.mem_bytes += imm->bytes;
  }
  s.disk_components = view.components.size();
  for (const auto& comp : view.components) {
    if (comp->columnar()) s.columnar_components++;
    s.disk_entries += comp->entries();
    s.disk_bytes += comp->bytes;
  }
  s.flushes = view.flushes;
  s.merges = view.merges;
  s.write_stalls = view.write_stalls;
  return s;
}

}  // namespace asterix::storage
