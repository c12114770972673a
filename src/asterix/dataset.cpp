#include "asterix/dataset.h"

#include <cstring>
#include <optional>

#include "adm/key_encoder.h"
#include "adm/serde.h"

namespace asterix {

using adm::Value;

Result<std::unique_ptr<DatasetPartition>> DatasetPartition::Open(
    const meta::DatasetDef& def, const PartitionOptions& options) {
  if (def.external) {
    return Status::InvalidArgument(
        "external datasets have no storage partitions");
  }
  auto part = std::unique_ptr<DatasetPartition>(
      new DatasetPartition(def, options));
  AX_RETURN_NOT_OK(fs::CreateDirs(options.dir));
  storage::LsmOptions lsm;
  lsm.dir = options.dir;
  lsm.name = "primary";
  lsm.cache = options.cache;
  lsm.mem_budget_bytes = options.mem_budget_bytes;
  lsm.merge_policy = options.merge_policy;
  lsm.storage_format = options.storage_format;
  lsm.scheduler = options.scheduler;
  AX_ASSIGN_OR_RETURN(part->primary_, storage::LsmBTree::Open(lsm));
  for (const auto& ix : def.indexes) {
    switch (ix.kind) {
      case meta::IndexKind::kBTree: {
        storage::LsmOptions o = lsm;
        o.name = "ix_" + ix.name;
        // Secondary entries are key->PK pairs, not records: always row.
        o.storage_format = storage::StorageFormat::kRow;
        AX_ASSIGN_OR_RETURN(auto tree, storage::LsmBTree::Open(o));
        part->btree_indexes_[ix.name] = std::move(tree);
        break;
      }
      case meta::IndexKind::kRTree: {
        storage::LsmRTreeOptions o;
        o.dir = options.dir;
        o.name = "ix_" + ix.name;
        o.cache = options.cache;
        o.mem_budget_bytes = options.mem_budget_bytes;
        o.scheduler = options.scheduler;
        AX_ASSIGN_OR_RETURN(auto tree, storage::LsmRTree::Open(o));
        part->rtree_indexes_[ix.name] = std::move(tree);
        break;
      }
      case meta::IndexKind::kKeyword: {
        storage::InvertedIndexOptions o;
        o.dir = options.dir;
        o.name = "ix_" + ix.name;
        o.cache = options.cache;
        o.mem_budget_bytes = options.mem_budget_bytes;
        o.scheduler = options.scheduler;
        AX_ASSIGN_OR_RETURN(auto idx, storage::LsmInvertedIndex::Open(o));
        part->keyword_indexes_[ix.name] = std::move(idx);
        break;
      }
    }
  }
  return part;
}

Result<std::string> DatasetPartition::EncodePk(const adm::Value& pk) {
  return adm::EncodeKey(pk);
}

Result<adm::Value> DatasetPartition::ExtractPk(const Value& record) const {
  if (!record.is_object()) {
    return Status::TypeMismatch("dataset records must be objects, got " +
                                record.ToString());
  }
  const Value& pk = record.GetField(def_.primary_key);
  if (pk.is_unknown()) {
    return Status::InvalidArgument("record lacks primary key field '" +
                                   def_.primary_key + "'");
  }
  return pk;
}

Status DatasetPartition::LogMutation(txn::LogRecordType type,
                                     const std::string& pk_key,
                                     const adm::Value* record) {
  if (options_.wal == nullptr) return Status::OK();
  txn::LogRecord rec;
  rec.type = type;
  rec.dataset = def_.name;
  rec.partition = options_.partition_id;
  rec.key = pk_key;
  if (record) rec.value = adm::Serialize(*record);
  return options_.wal->Append(rec).ok()
             ? Status::OK()
             : Status::IOError("WAL append failed for dataset " + def_.name);
}

namespace {
using IndexPart = std::optional<std::string>;

// The bytes a secondary index of `kind` stores for `field`, or nullopt when
// it stores nothing for it. Two fields with equal parts map to the same
// index entry.
Result<IndexPart> IndexedPart(meta::IndexKind kind, const Value& field) {
  switch (kind) {
    case meta::IndexKind::kBTree: {
      if (field.is_unknown()) return IndexPart();
      std::string key;
      AX_RETURN_NOT_OK(adm::EncodeKeyPart(field, &key));
      return IndexPart(std::move(key));
    }
    case meta::IndexKind::kRTree: {
      if (!field.is_point() && !field.is_rectangle()) return IndexPart();
      const adm::Rectangle mbr = field.Mbr();
      return IndexPart(
          std::string(reinterpret_cast<const char*>(&mbr), sizeof(mbr)));
    }
    case meta::IndexKind::kKeyword:
      if (!field.is_string()) return IndexPart();
      return IndexPart(field.AsString());
  }
  return IndexPart();
}

adm::Rectangle PartMbr(const std::string& part) {
  adm::Rectangle mbr;
  std::memcpy(&mbr, part.data(), sizeof(mbr));
  return mbr;
}
}  // namespace

Result<std::vector<DatasetPartition::IndexDelta>> DatasetPartition::IndexDeltas(
    const Value* before, const Value* after, bool skip_unchanged) const {
  static const Value kMissing = Value::Missing();
  std::vector<IndexDelta> deltas;
  for (const auto& ix : def_.indexes) {
    AX_ASSIGN_OR_RETURN(
        auto old_part,
        IndexedPart(ix.kind, before ? before->GetField(ix.field) : kMissing));
    AX_ASSIGN_OR_RETURN(
        auto new_part,
        IndexedPart(ix.kind, after ? after->GetField(ix.field) : kMissing));
    if (skip_unchanged && old_part == new_part) continue;
    deltas.push_back({&ix, std::move(old_part), std::move(new_part)});
  }
  return deltas;
}

Status DatasetPartition::AddIndexEntry(const meta::IndexDef& ix,
                                       const std::string& part,
                                       const std::string& pk_key) {
  switch (ix.kind) {
    case meta::IndexKind::kBTree:
      return btree_indexes_.at(ix.name)->Put(part + pk_key, "");
    case meta::IndexKind::kRTree:
      return rtree_indexes_.at(ix.name)->Insert(PartMbr(part), pk_key);
    case meta::IndexKind::kKeyword:
      return keyword_indexes_.at(ix.name)->InsertText(part, pk_key);
  }
  return Status::OK();
}

Status DatasetPartition::RemoveIndexEntry(const meta::IndexDef& ix,
                                          const std::string& part,
                                          const std::string& pk_key) {
  switch (ix.kind) {
    case meta::IndexKind::kBTree:
      return btree_indexes_.at(ix.name)->Delete(part + pk_key);
    case meta::IndexKind::kRTree:
      return rtree_indexes_.at(ix.name)->Remove(PartMbr(part), pk_key);
    case meta::IndexKind::kKeyword:
      return keyword_indexes_.at(ix.name)->RemoveText(part, pk_key);
  }
  return Status::OK();
}

Status DatasetPartition::Upsert(const Value& record, bool log) {
  AX_ASSIGN_OR_RETURN(Value pk, ExtractPk(record));
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  if (log) {
    AX_RETURN_NOT_OK(LogMutation(txn::LogRecordType::kUpsert, pk_key, &record));
  }
  // Read the prior version to unhook the index entries that change.
  std::optional<Value> old_record;
  if (!def_.indexes.empty()) {
    std::string old_raw;
    AX_ASSIGN_OR_RETURN(bool existed, primary_->Get(pk_key, &old_raw));
    if (existed) {
      AX_ASSIGN_OR_RETURN(old_record, adm::Deserialize(old_raw));
    }
  }
  // A live statement leaves an unchanged entry in place, so a concurrent
  // lookup never misses a record that matches before and after. Replay and
  // index backfill (log=false) rewrite every entry: the primary may hold a
  // version that a secondary lost in the crash, or that a new index never
  // saw, so `before` does not prove the entry exists.
  AX_ASSIGN_OR_RETURN(
      auto deltas, IndexDeltas(old_record ? &*old_record : nullptr, &record,
                               /*skip_unchanged=*/log));
  for (const auto& d : deltas) {
    if (d.before) AX_RETURN_NOT_OK(RemoveIndexEntry(*d.ix, *d.before, pk_key));
  }
  AX_RETURN_NOT_OK(primary_->Put(pk_key, adm::Serialize(record)));
  for (const auto& d : deltas) {
    if (d.after) AX_RETURN_NOT_OK(AddIndexEntry(*d.ix, *d.after, pk_key));
  }
  return Status::OK();
}

Status DatasetPartition::Insert(const Value& record, bool log) {
  AX_ASSIGN_OR_RETURN(Value pk, ExtractPk(record));
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  AX_ASSIGN_OR_RETURN(bool exists, primary_->Get(pk_key, nullptr));
  if (exists) {
    return Status::AlreadyExists("duplicate primary key " + pk.ToString() +
                                 " in dataset " + def_.name);
  }
  return Upsert(record, log);
}

Result<bool> DatasetPartition::DeleteByKey(const Value& pk, bool log) {
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  std::string old_raw;
  AX_ASSIGN_OR_RETURN(bool existed, primary_->Get(pk_key, &old_raw));
  if (!existed) return false;
  if (log) {
    AX_RETURN_NOT_OK(LogMutation(txn::LogRecordType::kDelete, pk_key, nullptr));
  }
  AX_ASSIGN_OR_RETURN(Value old_record, adm::Deserialize(old_raw));
  AX_ASSIGN_OR_RETURN(auto deltas, IndexDeltas(&old_record, nullptr,
                                                /*skip_unchanged=*/true));
  for (const auto& d : deltas) {
    if (d.before) AX_RETURN_NOT_OK(RemoveIndexEntry(*d.ix, *d.before, pk_key));
  }
  AX_RETURN_NOT_OK(primary_->Delete(pk_key));
  return true;
}

Result<bool> DatasetPartition::Get(const Value& pk, Value* record) const {
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  return GetByEncodedPk(pk_key, record);
}

Result<bool> DatasetPartition::GetByEncodedPk(const std::string& pk_key,
                                              Value* record) const {
  std::string raw;
  AX_ASSIGN_OR_RETURN(bool found, primary_->Get(pk_key, &raw));
  if (!found) return false;
  if (record) {
    AX_ASSIGN_OR_RETURN(*record, adm::Deserialize(raw));
  }
  return true;
}

Result<storage::LsmBTree::Iterator> DatasetPartition::ScanIterator(
    std::string lo, std::optional<std::string> hi) const {
  return primary_->NewIterator(std::move(lo), std::move(hi));
}

Result<std::vector<std::string>> DatasetPartition::BTreeSearch(
    const std::string& index_name, const Value& lo, const Value& hi) const {
  auto it_tree = btree_indexes_.find(index_name);
  if (it_tree == btree_indexes_.end()) {
    return Status::NotFound("no B+tree index '" + index_name + "'");
  }
  std::string lo_key;
  if (!lo.is_unknown()) AX_RETURN_NOT_OK(adm::EncodeKeyPart(lo, &lo_key));
  std::optional<std::string> hi_bound;
  if (!hi.is_unknown()) {
    hi_bound.emplace();
    AX_RETURN_NOT_OK(adm::EncodeKeyPart(hi, &*hi_bound));
    *hi_bound += '\xff';  // include every (hi, pk) composite
  }
  std::vector<std::string> pks;
  AX_ASSIGN_OR_RETURN(auto it, it_tree->second->NewIterator(
                                   std::move(lo_key), std::move(hi_bound)));
  AX_RETURN_NOT_OK(it.SeekToFirst());
  while (it.Valid()) {
    // Composite key: secondary part then pk part; decode to split.
    size_t pos = 0;
    AX_ASSIGN_OR_RETURN(Value sk, adm::DecodeKeyPart(it.key(), &pos));
    (void)sk;
    pks.push_back(it.key().substr(pos));
    AX_RETURN_NOT_OK(it.Next());
  }
  return pks;
}

Result<std::vector<std::string>> DatasetPartition::RTreeSearch(
    const std::string& index_name, const adm::Rectangle& query) const {
  auto it = rtree_indexes_.find(index_name);
  if (it == rtree_indexes_.end()) {
    return Status::NotFound("no R-tree index '" + index_name + "'");
  }
  AX_ASSIGN_OR_RETURN(auto entries, it->second->Query(query));
  std::vector<std::string> pks;
  pks.reserve(entries.size());
  for (auto& e : entries) pks.push_back(std::move(e.payload));
  return pks;
}

Result<std::vector<std::string>> DatasetPartition::KeywordSearch(
    const std::string& index_name, const std::string& term) const {
  auto it = keyword_indexes_.find(index_name);
  if (it == keyword_indexes_.end()) {
    return Status::NotFound("no keyword index '" + index_name + "'");
  }
  auto terms = storage::TokenizeKeywords(term);
  return it->second->SearchAll(terms);
}

Status DatasetPartition::Flush() {
  AX_RETURN_NOT_OK(primary_->Flush());
  for (auto& [n, t] : btree_indexes_) AX_RETURN_NOT_OK(t->Flush());
  for (auto& [n, t] : rtree_indexes_) AX_RETURN_NOT_OK(t->Flush());
  for (auto& [n, t] : keyword_indexes_) AX_RETURN_NOT_OK(t->Flush());
  return Status::OK();
}

}  // namespace asterix
