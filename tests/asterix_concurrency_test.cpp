// Concurrency tests: concurrent writers, readers during writes, and the
// record-level locking semantics the paper's item 9 promises.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "asterix/instance.h"
#include "common/rng.h"

namespace asterix {
namespace {

using adm::Value;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axcc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    opts.lsm_mem_budget_bytes = 1 << 16;  // force flushes under load
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_
                    ->ExecuteScript(
                        "CREATE TYPE T AS { id: int, v: int, s: string };"
                        "CREATE DATASET D(T) PRIMARY KEY id;"
                        "CREATE INDEX vIdx ON D (v) TYPE BTREE")
                    .ok());
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  Value Rec(int id, int v) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("v", Value::Int(v))
        .Add("s", Value::String(std::string(50, 'x')))
        .Build();
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ConcurrencyTest, ParallelWritersDisjointKeys) {
  const int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        int id = t * kPerThread + i;
        if (!instance_->UpsertValue("D", Rec(id, id % 10)).ok()) failed = true;
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_FALSE(failed.load());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kThreads * kPerThread);
  // Secondary index consistent with the data.
  r = instance_->Execute("SELECT COUNT(*) AS n FROM D d WHERE d.v = 3").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kThreads * kPerThread / 10);
}

TEST_F(ConcurrencyTest, ContendedUpsertsOnSameKeys) {
  // All threads hammer the same small key range; locking must keep the
  // primary and secondary indexes mutually consistent.
  const int kThreads = 4, kOps = 800, kKeys = 20;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOps; i++) {
        int id = static_cast<int>(rng.Uniform(kKeys));
        if (!instance_->UpsertValue("D", Rec(id, static_cast<int>(rng.Uniform(5))))
                 .ok()) {
          failed = true;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_FALSE(failed.load());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kKeys);
  // Each key appears exactly once in the secondary index (no stale entries
  // from racing updates).
  int64_t total = 0;
  for (int v = 0; v < 5; v++) {
    auto rv = instance_
                  ->Execute("SELECT COUNT(*) AS n FROM D d WHERE d.v = " +
                            std::to_string(v))
                  .value();
    total += rv.rows[0].GetField("n").AsInt();
  }
  EXPECT_EQ(total, kKeys);
}

TEST_F(ConcurrencyTest, ReadersDuringWrites) {
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    int id = 0;
    while (!stop.load()) {
      if (!instance_->UpsertValue("D", Rec(id++ % 5000, 7)).ok()) failed = true;
    }
  });
  // Queries run against consistent snapshots while writes stream in.
  for (int q = 0; q < 30; q++) {
    auto r = instance_->Execute(
        "SELECT COUNT(*) AS n, COUNT(d.v) AS nv FROM D d");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Exactly one row even when the query wins the race against the
    // writer's first upsert (global aggregate over an empty dataset).
    ASSERT_EQ(r->rows.size(), 1u);
    // Internal consistency: every record has a v.
    EXPECT_EQ(r->rows[0].GetField("n").AsInt(),
              r->rows[0].GetField("nv").AsInt());
  }
  stop = true;
  writer.join();
  ASSERT_FALSE(failed.load());
}

TEST_F(ConcurrencyTest, GetSeesLatestCommittedWrite) {
  ASSERT_TRUE(instance_->UpsertValue("D", Rec(1, 100)).ok());
  std::thread t1([&] {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(instance_->UpsertValue("D", Rec(1, i)).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 500; i++) {
      adm::Value rec;
      auto found = instance_->GetByKey("D", Value::Int(1), &rec);
      ASSERT_TRUE(found.ok());
      ASSERT_TRUE(found.value());
      // Record is always a complete, internally consistent object.
      ASSERT_TRUE(rec.GetField("v").is_int());
      ASSERT_EQ(rec.GetField("s").AsString().size(), 50u);
    }
  });
  t1.join();
  t2.join();
}

TEST_F(ConcurrencyTest, SecondaryLookupSeesRecordAcrossUnchangedUpserts) {
  // An UPSERT that keeps the indexed field leaves the record's secondary
  // entry in place: a lookup on that field finds the record every time,
  // never in a window between removing and re-adding the entry.
  for (int id = 0; id < 50; id++) {
    ASSERT_TRUE(instance_->UpsertValue("D", Rec(id, id == 1 ? 7 : 8)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    while (!stop.load()) {
      if (!instance_->UpsertValue("D", Rec(1, 7)).ok()) failed = true;
    }
  });
  int misses = 0;
  for (int q = 0; q < 500; q++) {
    auto r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 7");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->rows.size() != 1) misses++;
  }
  stop = true;
  writer.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(misses, 0);
}

}  // namespace
}  // namespace asterix
