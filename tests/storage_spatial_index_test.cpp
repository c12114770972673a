// Tests for space-filling curves, the LSM R-tree, and the four-way
// SpatialIndex interface of the §V-B study. The key property: all four
// index kinds return identical result sets on identical workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "common/metrics.h"
#include "common/rng.h"
#include "scheduler_gate.h"
#include "storage/lsm_rtree.h"
#include "storage/maintenance.h"
#include "storage/spatial_curve.h"
#include "storage/spatial_index.h"

namespace asterix::storage {
namespace {

TEST(SpatialCurve, ZOrderCellIndexInterleavesBits) {
  // depth-2: cell (1,0) -> z = 01 (x bit in low position of the pair)
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 0, 0, 2), 0u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 1, 0, 2), 1u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 0, 1, 2), 2u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 3, 3, 2), 15u);
}

TEST(SpatialCurve, HilbertIsABijectionAtDepth4) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; x++) {
    for (uint32_t y = 0; y < 16; y++) {
      uint64_t d = SpaceFillingCurve::CellIndex(CurveKind::kHilbert, x, y, 4);
      EXPECT_LT(d, 256u);
      EXPECT_TRUE(seen.insert(d).second) << "duplicate at " << x << "," << y;
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(SpatialCurve, HilbertNeighboursAreAdjacent) {
  // The defining property: consecutive curve indices are grid neighbours.
  std::vector<std::pair<uint32_t, uint32_t>> by_index(256);
  for (uint32_t x = 0; x < 16; x++) {
    for (uint32_t y = 0; y < 16; y++) {
      by_index[SpaceFillingCurve::CellIndex(CurveKind::kHilbert, x, y, 4)] = {
          x, y};
    }
  }
  for (size_t i = 1; i < by_index.size(); i++) {
    int dx = std::abs(int(by_index[i].first) - int(by_index[i - 1].first));
    int dy = std::abs(int(by_index[i].second) - int(by_index[i - 1].second));
    EXPECT_EQ(dx + dy, 1) << "gap at curve index " << i;
  }
}

TEST(SpatialCurve, CoverRangesContainAllPointsInQuery) {
  adm::Rectangle world{{0, 0}, {100, 100}};
  for (auto kind : {CurveKind::kZOrder, CurveKind::kHilbert}) {
    SpaceFillingCurve curve(kind, world);
    adm::Rectangle query{{20, 30}, {42.5, 55}};
    auto ranges = curve.CoverRanges(query);
    ASSERT_FALSE(ranges.empty());
    Rng rng(5);
    for (int i = 0; i < 500; i++) {
      adm::Point p{20 + rng.NextDouble() * 22.5, 30 + rng.NextDouble() * 25};
      uint64_t v = curve.Encode(p);
      bool covered = false;
      for (const auto& [lo, hi] : ranges) {
        if (v >= lo && v <= hi) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "point (" << p.x << "," << p.y
                           << ") escaped curve cover";
    }
  }
}

TEST(SpatialCurve, RangeBudgetRespected) {
  SpaceFillingCurve curve(CurveKind::kHilbert, {{0, 0}, {1, 1}});
  auto ranges = curve.CoverRanges({{0.111, 0.222}, {0.888, 0.999}}, 16);
  EXPECT_LE(ranges.size(), 16u);
  // Ranges are sorted and disjoint after coalescing.
  for (size_t i = 1; i < ranges.size(); i++) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second + 1);
  }
}

class SpatialIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axsidx_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(512);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  SpatialIndexOptions Options(SpatialIndexKind kind, const std::string& name) {
    SpatialIndexOptions o;
    o.kind = kind;
    o.dir = dir_;
    o.name = name;
    o.cache = cache_.get();
    o.world = {{0, 0}, {1000, 1000}};
    o.mem_budget_bytes = 1 << 14;  // force flushes
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(SpatialIndexTest, LsmRTreeInsertQueryDelete) {
  LsmRTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  o.mem_budget_bytes = 1 << 12;
  auto tree = LsmRTree::Open(o).value();
  for (int i = 0; i < 500; i++) {
    adm::Point p{double(i % 50), double(i / 50)};
    ASSERT_TRUE(tree->Insert({p, p}, "pk" + std::to_string(i)).ok());
  }
  auto hits = tree->Query({{0, 0}, {9, 0}}).value();  // row 0, x 0..9
  EXPECT_EQ(hits.size(), 10u);
  // Delete an entry that already lives in a disk component.
  ASSERT_TRUE(tree->Flush().ok());
  adm::Point victim{3, 0};
  ASSERT_TRUE(tree->Remove({victim, victim}, "pk3").ok());
  hits = tree->Query({{0, 0}, {9, 0}}).value();
  EXPECT_EQ(hits.size(), 9u);
  for (const auto& e : hits) EXPECT_NE(e.payload, "pk3");
  // Merge annihilates the delete and keeps results stable.
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().disk_components, 1u);
  hits = tree->Query({{0, 0}, {9, 0}}).value();
  EXPECT_EQ(hits.size(), 9u);
}

TEST_F(SpatialIndexTest, LsmRTreeDeleteInMemoryAnnihilates) {
  LsmRTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  auto tree = LsmRTree::Open(o).value();
  adm::Point p{5, 5};
  ASSERT_TRUE(tree->Insert({p, p}, "pk1").ok());
  ASSERT_TRUE(tree->Remove({p, p}, "pk1").ok());
  EXPECT_TRUE(tree->Query({{0, 0}, {10, 10}}).value().empty());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_TRUE(tree->Query({{0, 0}, {10, 10}}).value().empty());
}

TEST_F(SpatialIndexTest, LsmRTreeRemovesAloneTriggerFlush) {
  LsmRTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  auto tree = LsmRTree::Open(o).value();
  // Entries already on disk, so every remove must record a delete.
  for (int i = 0; i < 4000; i++) {
    adm::Point p{double(i % 100), double(i / 100)};
    ASSERT_TRUE(tree->Insert({p, p}, "pk" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  tree.reset();
  o.mem_budget_bytes = 1 << 12;
  tree = LsmRTree::Open(o).value();
  for (int i = 0; i < 4000; i++) {
    adm::Point p{double(i % 100), double(i / 100)};
    ASSERT_TRUE(tree->Remove({p, p}, "pk" + std::to_string(i)).ok());
  }
  // The deletes alone exceed the 4 KiB budget many times over.
  EXPECT_GT(tree->stats().flushes, 0u);
  EXPECT_TRUE(tree->Query({{0, 0}, {100, 100}}).value().empty());
}

TEST_F(SpatialIndexTest, LsmRTreeDropsTornFlushOnReopen) {
  LsmRTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  auto tree = LsmRTree::Open(o).value();
  adm::Point a{1, 1}, b{2, 2};
  ASSERT_TRUE(tree->Insert({a, a}, "complete").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Insert({b, b}, "torn").ok());
  ASSERT_TRUE(tree->Flush().ok());
  tree.reset();
  // The newest component loses its commit point (.del), as if the process
  // died between writing its .rt and its .del.
  std::string torn_rt;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    const std::string path = e.path().string();
    if (path.ends_with("_0000000002_0000000002.rt")) torn_rt = path;
  }
  ASSERT_FALSE(torn_rt.empty());
  std::string torn_del = torn_rt.substr(0, torn_rt.size() - 3) + ".del";
  ASSERT_TRUE(std::filesystem::remove(torn_del));

  auto* dropped = metrics::Registry::Global().GetCounter(
      "storage.lsm.incomplete_components_dropped");
  const uint64_t before = dropped->value();
  tree = LsmRTree::Open(o).value();
  EXPECT_EQ(dropped->value(), before + 1);
  EXPECT_FALSE(std::filesystem::exists(torn_rt));
  EXPECT_EQ(tree->stats().disk_components, 1u);
  auto hits = tree->Query({{0, 0}, {10, 10}}).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].payload, "complete");
}

TEST_F(SpatialIndexTest, LsmRTreeRemoveHidesEntryInEveryLayer) {
  SchedulerGate gate;  // background flushes wait: the immutable stays
  LsmRTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  o.mem_budget_bytes = 1 << 12;
  o.scheduler = gate.scheduler();
  auto tree = LsmRTree::Open(o).value();
  adm::Point a{1, 1}, b{2, 2}, c{3, 3}, d{4, 4};
  ASSERT_TRUE(tree->Insert({a, a}, "a").ok());
  ASSERT_TRUE(tree->Insert({b, b}, "b").ok());
  ASSERT_TRUE(tree->Insert({c, c}, "c").ok());
  ASSERT_TRUE(tree->Insert({d, d}, "d").ok());
  ASSERT_TRUE(tree->Flush().ok());
  // a's remove goes to disk, b's to an immutable component, c's stays in
  // the mutable one. A remove far outside the query names another entry
  // with d's payload; it must not hide d.
  ASSERT_TRUE(tree->Remove({a, a}, "a").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Remove({b, b}, "b").ok());
  for (int i = 0; tree->stats().pending_immutables < 1; i++) {
    adm::Point pad{500.0 + i % 100, 500.0 + i / 100};
    ASSERT_TRUE(tree->Insert({pad, pad}, "pad" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Remove({c, c}, "c").ok());
  adm::Point far{900, 900};
  ASSERT_TRUE(tree->Remove({far, far}, "d").ok());
  ASSERT_EQ(tree->stats().disk_components, 2u);
  ASSERT_EQ(tree->stats().pending_immutables, 1u);

  const adm::Rectangle query{{0, 0}, {10, 10}};
  auto payloads = [&] {
    auto entries = tree->Query(query).value();
    std::set<std::string> out;
    for (auto& e : entries) out.insert(e.payload);
    return out;
  };
  const std::set<std::string> expect{"d"};
  EXPECT_EQ(payloads(), expect);
  gate.Release();
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(payloads(), expect);
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(payloads(), expect);
}

TEST_F(SpatialIndexTest, CurveQueriesSpanMemoryAndDiskComponents) {
  for (auto kind :
       {SpatialIndexKind::kHilbertBTree, SpatialIndexKind::kZOrderBTree}) {
    SCOPED_TRACE(SpatialIndexKindName(kind));
    SchedulerGate gate;  // background flushes wait: immutables stay
    SpatialIndexOptions o = Options(kind, SpatialIndexKindName(kind));
    o.scheduler = gate.scheduler();
    auto idx = SpatialIndex::Create(o).value();
    Rng rng(7);
    std::map<std::string, adm::Point> live;
    int next = 0;
    auto insert = [&] {
      adm::Point p{rng.NextDouble() * 1000, rng.NextDouble() * 1000};
      std::string pk = "pk" + std::to_string(next++);
      ASSERT_TRUE(idx->Insert(p, pk).ok());
      live[pk] = p;
    };
    auto remove_some = [&](int n) {
      for (int i = 0; i < n && !live.empty(); i++) {
        auto victim = live.begin();
        std::advance(victim, static_cast<long>(rng.Uniform(live.size())));
        ASSERT_TRUE(idx->Remove(victim->second, victim->first).ok());
        live.erase(victim);
      }
    };
    // Disk components: rounds well under the memory budget, each flushed.
    for (int round = 0; round < 4; round++) {
      for (int i = 0; i < 100; i++) insert();
      remove_some(10);
      ASSERT_TRUE(idx->Flush().ok());
    }
    ASSERT_GE(idx->stats().disk_components, 4u);
    // Memory: more than one budget's worth (one rotation, so an immutable
    // and the mutable component), with removes of disk-resident points.
    for (int i = 0; i < 300; i++) insert();
    remove_some(40);

    auto check = [&](const char* phase) {
      Rng qrng(11);
      for (int q = 0; q < 20; q++) {
        double x = qrng.NextDouble() * 800, y = qrng.NextDouble() * 800;
        double w = 20 + qrng.NextDouble() * 200;
        adm::Rectangle query{{x, y}, {x + w, y + w}};
        std::set<std::string> expect;
        for (const auto& [pk, p] : live) {
          if (query.Contains(p)) expect.insert(pk);
        }
        auto got_vec = idx->Query(query).value();
        std::set<std::string> got(got_vec.begin(), got_vec.end());
        EXPECT_EQ(got, expect) << phase << " query " << q;
        EXPECT_EQ(got_vec.size(), got.size()) << "duplicates returned";
      }
    };
    check("memory and disk");
    gate.Release();
    ASSERT_TRUE(idx->ForceFullMerge().ok());
    check("merged");
  }
}

// All four spatial index kinds agree with brute force — the precondition
// for the paper's apples-to-apples comparison — with inline maintenance and
// with a background MaintenanceScheduler.
struct SweepParam {
  SpatialIndexKind kind;
  bool background;
  // The test bodies read the parameter as the index kind.
  operator SpatialIndexKind() const { return kind; }
};

class SpatialIndexKindSweep
    : public SpatialIndexTest,
      public ::testing::WithParamInterface<SweepParam> {
 protected:
  SpatialIndexOptions Options(SpatialIndexKind kind, const std::string& name) {
    SpatialIndexOptions o = SpatialIndexTest::Options(kind, name);
    if (GetParam().background) {
      scheduler_ = std::make_unique<MaintenanceScheduler>(2);
      o.scheduler = scheduler_.get();
    }
    return o;
  }
  std::unique_ptr<MaintenanceScheduler> scheduler_;  // outlives the index
};

TEST_P(SpatialIndexKindSweep, MatchesBruteForceWithDeletes) {
  auto idx = SpatialIndex::Create(
                 Options(GetParam(), SpatialIndexKindName(GetParam())))
                 .value();
  Rng rng(99);
  std::vector<adm::Point> pts;
  const int n = 4000;
  for (int i = 0; i < n; i++) {
    pts.push_back({rng.NextDouble() * 1000, rng.NextDouble() * 1000});
    ASSERT_TRUE(idx->Insert(pts.back(), "pk" + std::to_string(i)).ok());
  }
  // Delete every 7th point.
  std::set<int> deleted;
  for (int i = 0; i < n; i += 7) {
    ASSERT_TRUE(idx->Remove(pts[static_cast<size_t>(i)], "pk" + std::to_string(i)).ok());
    deleted.insert(i);
  }
  ASSERT_TRUE(idx->Flush().ok());
  for (int q = 0; q < 8; q++) {
    double x = rng.NextDouble() * 900, y = rng.NextDouble() * 900;
    adm::Rectangle query{{x, y}, {x + 100, y + 100}};
    std::set<std::string> expect;
    for (int i = 0; i < n; i++) {
      if (deleted.count(i)) continue;
      if (query.Contains(pts[static_cast<size_t>(i)])) {
        expect.insert("pk" + std::to_string(i));
      }
    }
    auto got_vec = idx->Query(query).value();
    std::set<std::string> got(got_vec.begin(), got_vec.end());
    EXPECT_EQ(got, expect) << SpatialIndexKindName(GetParam()) << " query " << q;
    EXPECT_EQ(got_vec.size(), got.size()) << "duplicates returned";
  }
}

TEST_P(SpatialIndexKindSweep, SurvivesMergeAndReopenlessRestartState) {
  auto idx = SpatialIndex::Create(
                 Options(GetParam(), SpatialIndexKindName(GetParam())))
                 .value();
  for (int i = 0; i < 1000; i++) {
    adm::Point p{double(i % 100) * 10, double(i / 100) * 100};
    ASSERT_TRUE(idx->Insert(p, "pk" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(idx->ForceFullMerge().ok());
  EXPECT_LE(idx->stats().disk_components, 1u);
  auto hits = idx->Query({{0, 0}, {95, 95}}).value();
  EXPECT_EQ(hits.size(), 10u);  // row 0: x = 0,10,...,90
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpatialIndexKindSweep,
    ::testing::Values(SweepParam{SpatialIndexKind::kRTree, false},
                      SweepParam{SpatialIndexKind::kRTree, true},
                      SweepParam{SpatialIndexKind::kHilbertBTree, false},
                      SweepParam{SpatialIndexKind::kHilbertBTree, true},
                      SweepParam{SpatialIndexKind::kZOrderBTree, false},
                      SweepParam{SpatialIndexKind::kZOrderBTree, true},
                      SweepParam{SpatialIndexKind::kGrid, false},
                      SweepParam{SpatialIndexKind::kGrid, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = SpatialIndexKindName(info.param.kind);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (info.param.background ? "_background" : "_inline");
    });

}  // namespace
}  // namespace asterix::storage
