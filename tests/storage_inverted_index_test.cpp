// Tests for the LSM inverted keyword index at the storage level: each term
// is one key range of the backing LSM B+tree, removes hide postings in
// every component, and conjunctive search intersects the terms' postings.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "scheduler_gate.h"
#include "storage/lsm_inverted.h"

namespace asterix::storage {
namespace {

using Payloads = std::vector<std::string>;

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axinv_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  InvertedIndexOptions Options(MaintenanceScheduler* sched = nullptr) {
    InvertedIndexOptions o;
    o.dir = dir_;
    o.name = "kw";
    o.cache = cache_.get();
    o.mem_budget_bytes = 1 << 12;
    o.scheduler = sched;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(InvertedIndexTest, TermDoesNotMatchALongerTermItPrefixes) {
  auto idx = LsmInvertedIndex::Open(Options()).value();
  ASSERT_TRUE(idx->Insert("data", "p1").ok());
  ASSERT_TRUE(idx->Insert("database", "p2").ok());
  ASSERT_TRUE(idx->Insert("dat", "p3").ok());
  ASSERT_TRUE(idx->Insert("data", "p4").ok());
  for (const char* where : {"memory", "disk"}) {
    SCOPED_TRACE(where);
    EXPECT_EQ(idx->Search("data").value(), (Payloads{"p1", "p4"}));
    EXPECT_EQ(idx->Search("database").value(), Payloads{"p2"});
    EXPECT_EQ(idx->Search("dat").value(), Payloads{"p3"});
    EXPECT_TRUE(idx->Search("d").value().empty());
    EXPECT_TRUE(idx->Search("databases").value().empty());
    ASSERT_TRUE(idx->Flush().ok());
  }
}

TEST_F(InvertedIndexTest, RemovesHidePostingsAcrossMemoryAndDisk) {
  SchedulerGate gate;  // background flushes wait: immutables stay pending
  auto idx = LsmInvertedIndex::Open(Options(gate.scheduler())).value();
  ASSERT_TRUE(idx->InsertText("Big data systems", "p1").ok());
  ASSERT_TRUE(idx->InsertText("data feeds", "p2").ok());
  ASSERT_TRUE(idx->InsertText("big feeds", "p3").ok());
  ASSERT_TRUE(idx->InsertText("data data everywhere", "p4").ok());
  ASSERT_TRUE(idx->Flush().ok());

  // p1's remove reaches disk, p2's sits in an immutable component, p4's
  // stays in the mutable one.
  ASSERT_TRUE(idx->Remove("data", "p1").ok());
  ASSERT_TRUE(idx->Flush().ok());
  ASSERT_TRUE(idx->RemoveText("data feeds", "p2").ok());
  for (int i = 0; idx->stats().pending_immutables < 1; i++) {
    ASSERT_TRUE(idx->Insert("pad", "x" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(idx->Remove("data", "p4").ok());
  ASSERT_EQ(idx->stats().disk_components, 2u);
  ASSERT_EQ(idx->stats().pending_immutables, 1u);

  auto check = [&] {
    EXPECT_TRUE(idx->Search("data").value().empty());
    EXPECT_EQ(idx->Search("feeds").value(), Payloads{"p3"});
    EXPECT_EQ(idx->Search("big").value(), (Payloads{"p1", "p3"}));
    EXPECT_EQ(idx->Search("everywhere").value(), Payloads{"p4"});
  };
  check();
  gate.Release();
  ASSERT_TRUE(idx->Flush().ok());
  check();
  ASSERT_TRUE(idx->ForceFullMerge().ok());
  check();
  // A re-insert after the removes is visible again.
  ASSERT_TRUE(idx->Insert("data", "p1").ok());
  EXPECT_EQ(idx->Search("data").value(), Payloads{"p1"});
}

TEST_F(InvertedIndexTest, SearchAllIntersectsTerms) {
  auto idx = LsmInvertedIndex::Open(Options()).value();
  ASSERT_TRUE(idx->InsertText("a b c", "p1").ok());
  ASSERT_TRUE(idx->InsertText("a b", "p2").ok());
  ASSERT_TRUE(idx->Flush().ok());
  ASSERT_TRUE(idx->InsertText("b c", "p3").ok());
  ASSERT_TRUE(idx->InsertText("a c", "p4").ok());

  EXPECT_EQ(idx->SearchAll({"a", "b"}).value(), (Payloads{"p1", "p2"}));
  EXPECT_EQ(idx->SearchAll({"a", "b", "c"}).value(), Payloads{"p1"});
  EXPECT_EQ(idx->SearchAll({"c", "b"}).value(), (Payloads{"p1", "p3"}));
  EXPECT_EQ(idx->SearchAll({"c"}).value(), (Payloads{"p1", "p3", "p4"}));
  EXPECT_TRUE(idx->SearchAll({"a", "zzz"}).value().empty());
  EXPECT_TRUE(idx->SearchAll({}).value().empty());
  // A remove in memory of a posting on disk narrows the intersection.
  ASSERT_TRUE(idx->Remove("b", "p2").ok());
  EXPECT_EQ(idx->SearchAll({"a", "b"}).value(), Payloads{"p1"});
}

}  // namespace
}  // namespace asterix::storage
