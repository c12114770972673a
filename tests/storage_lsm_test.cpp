// Tests for the LSM B+tree: memory/disk components, flush, antimatter
// deletes, merged and range-bounded iteration, merge policies, and
// crash-free reopen.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>

#include "adm/key_encoder.h"
#include "common/rng.h"
#include "scheduler_gate.h"
#include "storage/lsm_btree.h"
#include "storage/maintenance.h"

namespace asterix::storage {
namespace {

std::string IntKey(int64_t v) {
  return adm::EncodeKey(adm::Value::Int(v)).value();
}

class LsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axlsm_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmOptions Options(size_t mem_budget = 1 << 14) {
    LsmOptions o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = mem_budget;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(LsmTest, PutGetInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "one").ok());
  ASSERT_TRUE(tree->Put(IntKey(2), "two").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "one");
  EXPECT_FALSE(tree->Get(IntKey(3), &v).value());
  EXPECT_EQ(tree->stats().disk_components, 0u);
}

TEST_F(LsmTest, OverwriteInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "a").ok());
  ASSERT_TRUE(tree->Put(IntKey(1), "b").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, FlushCreatesDiskComponent) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.mem_entries, 0u);
  EXPECT_EQ(s.disk_entries, 100u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(42), &v).value());
  EXPECT_EQ(v, "v42");
}

TEST_F(LsmTest, AutoFlushOnBudget) {
  auto tree = LsmBTree::Open(Options(/*mem_budget=*/2048)).value();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(32, 'x')).ok());
  }
  EXPECT_GT(tree->stats().flushes, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(0), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(499), &v).value());
}

TEST_F(LsmTest, NewestComponentWins) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(7), "old").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(7), "new").ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(7), &v).value());
  EXPECT_EQ(v, "new");
}

TEST_F(LsmTest, DeleteViaAntimatter) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "x").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
  // Antimatter persists across a flush and still hides the old version.
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
}

TEST_F(LsmTest, DeleteThenReinsert) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "first").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(5), "second").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(5), &v).value());
  EXPECT_EQ(v, "second");
}

TEST_F(LsmTest, MergedScanAcrossComponents) {
  auto tree = LsmBTree::Open(Options()).value();
  // Three overlapping generations plus live memory data.
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g1").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 50; i < 150; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g2").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 100; i < 200; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g3").ok());

  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    int64_t k = parts[0].AsInt();
    if (k < 50) {
      EXPECT_EQ(it.value(), "g1");
    } else if (k < 100) {
      EXPECT_EQ(it.value(), "g2");
    } else {
      EXPECT_EQ(it.value(), "g3");
    }
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

TEST_F(LsmTest, ScanSkipsDeleted) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i += 2) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    EXPECT_EQ(parts[0].AsInt() % 2, 1);
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 25);
}

TEST_F(LsmTest, SnapshotIteratorStableAcrossFlush) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 20; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  // Mutate after snapshot.
  for (int i = 20; i < 40; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 20);  // snapshot view
}

TEST_F(LsmTest, ConstantMergePolicyBoundsComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kConstant;
  opts.merge_policy.max_components = 3;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i % 700), std::string(16, 'y')).ok());
  }
  auto s = tree->stats();
  EXPECT_LE(s.disk_components, 4u);
  EXPECT_GT(s.merges, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(123), &v).value());
}

TEST_F(LsmTest, NoMergePolicyAccumulatesComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kNoMerge;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(16, 'y')).ok());
  }
  EXPECT_GT(tree->stats().disk_components, 3u);
  EXPECT_EQ(tree->stats().merges, 0u);
}

TEST_F(LsmTest, FullMergeDropsAntimatterAndDuplicates) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "a").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "b").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  // 50 live keys remain; antimatter and shadowed versions are gone.
  EXPECT_EQ(s.disk_entries, 50u);
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(10), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(75), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, ReopenRecoversDiskComponents) {
  {
    auto tree = LsmBTree::Open(Options()).value();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), "p" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    for (int i = 100; i < 200; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), "p" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = LsmBTree::Open(Options()).value();
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(150), &v).value());
  EXPECT_EQ(v, "p150");
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

TEST_F(LsmTest, ReopenDropsLeftoverMergeVictims) {
  {
    auto tree = LsmBTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(IntKey(1), "one").ok());
    ASSERT_TRUE(tree->Put(IntKey(2), "two").ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Delete(IntKey(1)).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Keep copies of the two flushed components, merge them, then put the
  // copies back: a crash after the merge committed but before its victims
  // were unlinked leaves exactly this directory.
  const std::string saved = dir_ + "_saved";
  std::filesystem::remove_all(saved);
  std::filesystem::copy(dir_, saved);
  {
    auto tree = LsmBTree::Open(Options()).value();
    ASSERT_TRUE(tree->ForceFullMerge().ok());
    EXPECT_EQ(tree->stats().disk_components, 1u);
  }
  std::filesystem::copy(saved, dir_,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::skip_existing);
  std::filesystem::remove_all(saved);

  auto tree = LsmBTree::Open(Options()).value();
  EXPECT_EQ(tree->stats().disk_components, 1u);
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    files++;
  }
  EXPECT_EQ(files, 2u);  // the merged component's data and Bloom files
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(1), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(2), &v).value());
  EXPECT_EQ(v, "two");
}

TEST_F(LsmTest, SeekWithinMergedView) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "even").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 1; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "odd").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.Seek(IntKey(37)).ok());
  ASSERT_TRUE(it.Valid());
  auto parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 37);
  EXPECT_EQ(it.value(), "odd");
  ASSERT_TRUE(it.Next().ok());
  parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 38);
  EXPECT_EQ(it.value(), "even");
}

// ---- Range-bounded iterators ------------------------------------------------

using Rows = std::vector<std::pair<std::string, std::string>>;

// Everything a [lo, hi] iterator yields from SeekToFirst.
Rows ReadRange(const LsmBTree& tree, const std::string& lo,
               const std::optional<std::string>& hi) {
  Rows rows;
  auto it = tree.NewIterator(lo, hi);
  EXPECT_TRUE(it.ok());
  if (!it.ok()) return rows;
  Status s = it->SeekToFirst();
  while (s.ok() && it->Valid()) {
    rows.emplace_back(it->key(), it->value());
    s = it->Next();
  }
  EXPECT_TRUE(s.ok()) << s.message();
  return rows;
}

Rows Filter(const Rows& rows, const std::string& lo,
            const std::optional<std::string>& hi) {
  Rows out;
  for (const auto& row : rows) {
    if (row.first >= lo && (!hi || row.first <= *hi)) out.push_back(row);
  }
  return out;
}

TEST_F(LsmTest, BoundedIteratorMatchesFilteredFullScan) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LsmOptions o = Options(1 << 12);
    o.dir = dir_ + "/seed" + std::to_string(seed);
    o.merge_policy.kind = MergePolicyKind::kNoMerge;
    o.max_pending_immutables = 4;
    SchedulerGate gate;  // background flushes wait: immutables stay pending
    o.scheduler = gate.scheduler();
    auto tree = LsmBTree::Open(o).value();

    // Random puts and deletes over the even keys 0..398.
    Rng rng(seed);
    std::map<std::string, std::string> model;
    // Newest version per key written since the last flush (antimatter,
    // value): what the memory components hold.
    std::map<std::string, std::pair<bool, std::string>> mem_model;
    auto put = [&](const std::string& key) {
      std::string value = "v" + std::to_string(rng.Next() % 1000);
      ASSERT_TRUE(tree->Put(key, value).ok());
      model[key] = value;
      mem_model[key] = {false, value};
    };
    auto del = [&](const std::string& key) {
      ASSERT_TRUE(tree->Delete(key).ok());
      model.erase(key);
      mem_model[key] = {true, ""};
    };
    auto random_op = [&] {
      std::string key = IntKey(2 * rng.UniformRange(0, 199));
      if (rng.Uniform(4) == 0) {
        del(key);
      } else {
        put(key);
      }
    };

    // Disk components. The bound keys 100, 200 and 300 are live here ...
    for (int round = 0; round < 2; round++) {
      for (int i = 0; i < 150; i++) random_op();
      for (int k : {100, 200, 300}) put(IntKey(k));
      ASSERT_TRUE(tree->Flush().ok());
    }
    mem_model.clear();
    // ... and deleted in newer components: 200 in an immutable one,
    del(IntKey(200));
    while (tree->stats().pending_immutables < 2) random_op();
    // 100 and 300 in the mutable one.
    for (int i = 0; i < 20; i++) random_op();
    del(IntKey(100));
    del(IntKey(300));
    auto stats = tree->stats();
    ASSERT_EQ(stats.pending_immutables, 2u);
    ASSERT_GE(stats.disk_components, 2u);
    ASSERT_GT(stats.mem_entries, 0u);

    const Rows full = ReadRange(*tree, "", std::nullopt);
    EXPECT_EQ(full, Rows(model.begin(), model.end()));
    // Bounds on keys, between keys (odd), on antimatter, outside all keys.
    std::vector<std::string> bounds;
    for (int k : {-7, 0, 99, 100, 200, 201, 300, 398, 1001}) {
      bounds.push_back(IntKey(k));
    }
    std::vector<std::string> los = bounds;
    los.push_back("");
    std::vector<std::optional<std::string>> his(bounds.begin(), bounds.end());
    his.push_back(std::nullopt);
    for (const auto& lo : los) {
      for (const auto& hi : his) {
        EXPECT_EQ(ReadRange(*tree, lo, hi), Filter(full, lo, hi));
      }
    }

    // The scan snapshot merges the same memory components into one sorted
    // run, newest version per key, antimatter kept.
    auto snap = tree->GetScanSnapshot();
    std::map<std::string, std::pair<bool, std::string>> snap_mem;
    std::string prev;
    for (const auto& e : snap.mem) {
      EXPECT_LT(prev, e.key);
      prev = e.key;
      snap_mem[e.key] = {e.antimatter, e.value};
    }
    EXPECT_EQ(snap_mem, mem_model);
    EXPECT_EQ(snap.components.size(), stats.disk_components);

    // Seek clamps to lo and stops past hi.
    auto it = tree->NewIterator(IntKey(100), IntKey(300)).value();
    ASSERT_TRUE(it.Seek(IntKey(-7)).ok());
    Rows in_range = Filter(full, IntKey(100), IntKey(300));
    ASSERT_FALSE(in_range.empty());
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), in_range.front().first);
    ASSERT_TRUE(it.Seek(IntKey(301)).ok());
    EXPECT_FALSE(it.Valid());
    gate.Release();
  }
}

TEST_F(LsmTest, BoundedIteratorIgnoresLaterWritesFlushesAndMerges) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "old").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 100; i < 200; i += 2) {
    ASSERT_TRUE(tree->Put(IntKey(i), "old").ok());  // mutable component
  }
  auto it = tree->NewIterator(IntKey(50), IntKey(150)).value();

  // Inside the range: new keys, overwrites and deletes on disk and in
  // memory; then everything is flushed and merged into one component.
  for (int i = 51; i < 150; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "new").ok());
  for (int k : {60, 120}) ASSERT_TRUE(tree->Put(IntKey(k), "new").ok());
  for (int k : {70, 130}) ASSERT_TRUE(tree->Delete(IntKey(k)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().disk_components, 1u);

  ASSERT_TRUE(it.SeekToFirst().ok());
  int expect = 50;
  while (it.Valid()) {
    EXPECT_EQ(it.key(), IntKey(expect));
    EXPECT_EQ(it.value(), "old");
    expect += 2;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(expect, 152);  // 50, 52, ..., 150 and nothing else
  // A fresh iterator over the same range sees the writes.
  EXPECT_EQ(ReadRange(*tree, IntKey(50), IntKey(150)).size(), 51u + 50u - 2u);
}

TEST_F(LsmTest, ImmutableSourceOutlivesItsFlush) {
  SchedulerGate gate;
  LsmOptions o = Options(1 << 12);
  o.scheduler = gate.scheduler();
  auto tree = LsmBTree::Open(o).value();
  int n = 0;
  while (tree->stats().pending_immutables < 1) {
    ASSERT_TRUE(tree->Put(IntKey(n), "v" + std::to_string(n)).ok());
    n++;
  }
  // Every entry sits in the one immutable component, read in place.
  ASSERT_EQ(tree->stats().disk_components, 0u);
  auto it = tree->NewIterator(IntKey(0), IntKey(n)).value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int i = 0;
  for (; i < n / 2; i++) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.value(), "v" + std::to_string(i));
    ASSERT_TRUE(it.Next().ok());
  }
  // The flush pops the component from the queue; the iterator's pin keeps
  // it readable, and writes after creation stay invisible.
  gate.Release();
  ASSERT_TRUE(tree->Flush().ok());
  for (int k = 0; k < n; k++) ASSERT_TRUE(tree->Put(IntKey(k), "later").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().pending_immutables, 0u);
  for (; it.Valid(); i++) {
    EXPECT_EQ(it.key(), IntKey(i));
    EXPECT_EQ(it.value(), "v" + std::to_string(i));
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(i, n);
}

// Property sweep over merge policies: contents identical regardless.
struct PolicyParam {
  MergePolicyKind kind;
  const char* name;
  bool background = false;  // maintenance on a MaintenanceScheduler
};

class LsmPolicySweep : public LsmTest,
                       public ::testing::WithParamInterface<PolicyParam> {
 protected:
  LsmOptions Options(size_t mem_budget) {
    LsmOptions o = LsmTest::Options(mem_budget);
    if (GetParam().background) {
      scheduler_ = std::make_unique<MaintenanceScheduler>(2);
      o.scheduler = scheduler_.get();
    }
    return o;
  }
  std::unique_ptr<MaintenanceScheduler> scheduler_;  // outlives the tree
};

TEST_P(LsmPolicySweep, SameContentsUnderAnyPolicy) {
  auto opts = Options(1 << 11);
  opts.merge_policy.kind = GetParam().kind;
  opts.merge_policy.max_components = 3;
  opts.merge_policy.max_merged_bytes = 1 << 20;
  auto tree = LsmBTree::Open(opts).value();
  // Deterministic workload with overwrites and deletes.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(
          tree->Put(IntKey(i), "r" + std::to_string(round) + "_" +
                                   std::to_string(i))
              .ok());
    }
    for (int i = round * 10; i < round * 10 + 50; i++) {
      ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
    }
  }
  // Expected final state: keys deleted in round 2 (20..69) absent unless
  // rewritten afterwards — round 2 deletes happen after its puts, so keys
  // 20..69 are deleted; everything else holds "r2_<i>".
  std::string v;
  for (int i = 0; i < 400; i++) {
    bool deleted = i >= 20 && i < 70;
    bool found = tree->Get(IntKey(i), &v).value();
    EXPECT_EQ(found, !deleted) << "key " << i;
    if (found) {
      EXPECT_EQ(v, "r2_" + std::to_string(i));
    }
  }
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 350);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LsmPolicySweep,
    ::testing::Values(
        PolicyParam{MergePolicyKind::kNoMerge, "none_inline"},
        PolicyParam{MergePolicyKind::kNoMerge, "none_background", true},
        PolicyParam{MergePolicyKind::kConstant, "constant_inline"},
        PolicyParam{MergePolicyKind::kConstant, "constant_background", true},
        PolicyParam{MergePolicyKind::kPrefix, "prefix_inline"},
        PolicyParam{MergePolicyKind::kPrefix, "prefix_background", true}),
    [](const ::testing::TestParamInfo<PolicyParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace asterix::storage
