#include "storage/lsm_rtree.h"

#include <algorithm>
#include <cstring>

#include "common/io.h"
#include "common/metrics.h"

namespace asterix::storage {

const LsmCounters& LsmRTree::Counters() {
  static const LsmCounters counters{
      metrics::Registry::Global().GetCounter("storage.lsm_rtree.flushes"),
      nullptr,
      metrics::Registry::Global().GetCounter("storage.lsm_rtree.merges"),
      nullptr,
      metrics::Registry::Global().GetCounter("storage.lsm_rtree.write_stalls"),
      metrics::Registry::Global().GetCounter(
          "storage.lsm_rtree.write_stall_ns")};
  return counters;
}

LsmRTree::LsmRTree(LsmRTreeOptions options)
    : options_(std::move(options)),
      life_(*this, {options_.dir, options_.name, options_.mem_budget_bytes,
                    /*auto_flush=*/true,
                    MergePolicy{MergePolicyKind::kConstant, 5},
                    options_.scheduler}) {}

std::string LsmRTree::DeleteKey(const adm::Rectangle& mbr,
                                const std::string& payload) {
  // Identity of an entry: raw MBR bytes + payload. Only equality matters;
  // the deleted-key B+tree just needs a deterministic order.
  std::string key;
  key.append(reinterpret_cast<const char*>(&mbr.lo.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.lo.y), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.x), 8);
  key.append(reinterpret_cast<const char*>(&mbr.hi.y), 8);
  key += payload;
  return key;
}

adm::Rectangle LsmRTree::DeleteKeyMbr(const std::string& delete_key) {
  adm::Rectangle mbr;
  std::memcpy(&mbr.lo.x, delete_key.data(), 8);
  std::memcpy(&mbr.lo.y, delete_key.data() + 8, 8);
  std::memcpy(&mbr.hi.x, delete_key.data() + 16, 8);
  std::memcpy(&mbr.hi.y, delete_key.data() + 24, 8);
  return mbr;
}

Result<std::unique_ptr<LsmRTree>> LsmRTree::Open(
    const LsmRTreeOptions& options) {
  if (options.cache == nullptr) {
    return Status::InvalidArgument("LsmRTreeOptions.cache is required");
  }
  auto tree = std::unique_ptr<LsmRTree>(new LsmRTree(options));
  AX_RETURN_NOT_OK(tree->life_.Recover());
  return tree;
}

Result<LsmRTree::Payload> LsmRTree::OpenComponent(
    const std::string& base, const std::string& ext) const {
  Payload p;
  AX_ASSIGN_OR_RETURN(p.rtree, RTree::Open(base + ext, options_.cache));
  AX_ASSIGN_OR_RETURN(p.deleted, BTree::Open(base + kCommitExt, options_.cache));
  p.bytes = (static_cast<uint64_t>(p.rtree->meta().page_count) +
             p.deleted->meta().page_count) *
            kPageSize;
  return p;
}

// ---------------------------------------------------------------------------
// Writes and queries
// ---------------------------------------------------------------------------

Status LsmRTree::Insert(const adm::Rectangle& mbr, const std::string& payload) {
  return life_.Write([&](Mem& mem, bool) {
    // A re-insert cancels a pending in-memory delete of the same entry. (A
    // delete already frozen in an immutable component is older than this
    // insert, so layering keeps the new entry live regardless.)
    mem.deleted.erase(DeleteKey(mbr, payload));
    mem.inserts.push_back(SpatialEntry{mbr, payload});
    return 48 + payload.size();
  });
}

Status LsmRTree::Remove(const adm::Rectangle& mbr, const std::string& payload) {
  return life_.Write([&](Mem& mem, bool nothing_older) -> size_t {
    // Annihilate a pending in-memory insert directly if present.
    auto it = std::find_if(mem.inserts.begin(), mem.inserts.end(),
                           [&](const SpatialEntry& e) {
                             return e.payload == payload && e.mbr == mbr;
                           });
    if (it != mem.inserts.end()) {
      mem.inserts.erase(it);
      if (nothing_older) return 0;  // nothing older to hide
    }
    mem.deleted.insert(DeleteKey(mbr, payload));
    return 48 + payload.size();
  });
}

Result<std::vector<SpatialEntry>> LsmRTree::Query(
    const adm::Rectangle& query) const {
  std::vector<SpatialEntry> out;
  // Only deletes whose MBR intersects the query can hide a candidate (a
  // delete names one entry, MBR included), so only those are copied.
  std::set<std::string> mem_deleted;
  Life::View view;
  life_.Pin(
      [&](const Mem& mem) {
        for (const auto& e : mem.inserts) {
          if (e.mbr.Intersects(query)) out.push_back(e);
        }
        for (const auto& dk : mem.deleted) {
          if (DeleteKeyMbr(dk).Intersects(query)) {
            mem_deleted.insert(mem_deleted.end(), dk);
          }
        }
        return false;
      },
      &view);
  const auto& imms = view.immutables;
  const auto& comps = view.components;
  // An entry is live iff no strictly newer layer deleted it. Layers,
  // newest first: mutable mem, immutable mem components, disk components.
  auto deleted_in_imms = [&](const std::string& dk, size_t newer_than) {
    for (size_t j = 0; j < newer_than; j++) {
      if (imms[j]->mem.deleted.count(dk)) return true;
    }
    return false;
  };
  for (size_t k = 0; k < imms.size(); k++) {
    for (const auto& e : imms[k]->mem.inserts) {
      if (!e.mbr.Intersects(query)) continue;
      std::string dk = DeleteKey(e.mbr, e.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, k)) continue;
      out.push_back(e);
    }
  }
  for (size_t i = 0; i < comps.size(); i++) {
    AX_ASSIGN_OR_RETURN(auto candidates, comps[i]->rtree->SearchCollect(query));
    for (auto& cand : candidates) {
      std::string dk = DeleteKey(cand.mbr, cand.payload);
      if (mem_deleted.count(dk) || deleted_in_imms(dk, imms.size())) continue;
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit, comps[j]->deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) out.push_back(std::move(cand));
    }
  }
  return out;
}

LsmRTreeStats LsmRTree::stats() const {
  LsmRTreeStats s;
  Life::View view;
  life_.Pin(
      [&](const Mem& mem) {
        s.mem_entries = mem.inserts.size();
        return false;
      },
      &view);
  s.pending_immutables = view.immutables.size();
  for (const auto& imm : view.immutables) {
    s.mem_entries += imm->mem.inserts.size();
  }
  s.disk_components = view.components.size();
  for (const auto& comp : view.components) {
    s.disk_entries += comp->rtree->entry_count();
    s.disk_pages += comp->rtree->meta().page_count;
  }
  s.flushes = view.flushes;
  s.merges = view.merges;
  s.write_stalls = view.write_stalls;
  return s;
}

// ---------------------------------------------------------------------------
// Component builds
// ---------------------------------------------------------------------------

Result<LsmRTree::Payload> LsmRTree::WriteComponent(
    const std::string& base, const std::vector<SpatialEntry>& entries,
    const std::set<std::string>& deleted) const {
  AX_ASSIGN_OR_RETURN(auto rbuilder,
                      RTreeBuilder::Create(base + ".rt", options_.point_mode));
  for (const auto& e : entries) AX_RETURN_NOT_OK(rbuilder->Add(e.mbr, e.payload));
  AX_RETURN_NOT_OK(rbuilder->Finish().status());
  // The deleted-key tree is written last: it is the commit point recovery
  // checks when collecting torn builds.
  AX_ASSIGN_OR_RETURN(auto dbuilder, BTreeBuilder::Create(base + kCommitExt));
  for (const auto& dk : deleted) AX_RETURN_NOT_OK(dbuilder->Add(dk, ""));
  AX_RETURN_NOT_OK(dbuilder->Finish().status());
  return OpenComponent(base, ".rt");
}

Result<LsmRTree::Payload> LsmRTree::BuildFlush(const std::string& base,
                                               const Mem& frozen,
                                               bool nothing_older) const {
  // Deletes only need persisting when something older could hide a live
  // entry.
  const std::set<std::string> none;
  return WriteComponent(base, frozen.inserts,
                        nothing_older ? none : frozen.deleted);
}

Result<LsmRTree::Payload> LsmRTree::BuildMerge(
    const std::string& base, const std::vector<ComponentPtr>& victims,
    bool /*includes_oldest*/) const {
  // Collect live entries: an entry of victim i survives unless deleted by a
  // strictly newer victim (i-1 .. 0). Victims are pinned and immutable, so
  // no lock is needed.
  std::vector<SpatialEntry> live;
  const adm::Rectangle everything{{-1e308, -1e308}, {1e308, 1e308}};
  for (size_t i = 0; i < victims.size(); i++) {
    AX_ASSIGN_OR_RETURN(auto entries,
                        victims[i]->rtree->SearchCollect(everything));
    for (auto& e : entries) {
      std::string dk = DeleteKey(e.mbr, e.payload);
      bool dead = false;
      for (size_t j = 0; j < i && !dead; j++) {
        std::string unused;
        AX_ASSIGN_OR_RETURN(bool hit, victims[j]->deleted->Get(dk, &unused));
        dead = hit;
      }
      if (!dead) live.push_back(std::move(e));
    }
  }
  // The constant policy and ForceFullMerge always merge the whole stack, so
  // the victims' deletes have annihilated and the merged component needs
  // none.
  return WriteComponent(base, live, {});
}

}  // namespace asterix::storage
