// Seeded Gleambook data, the ground truth the benchmark checks answers
// against, and instance set-up. The instance only ever receives the
// generator's DDL, its records and the statements the workloads build from
// them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "bench.h"

namespace gb {

/// Store shape shared by all workloads: 4 partitions (one per core of the
/// reference host), WAL without fsync, async LSM maintenance on 2 threads.
constexpr size_t kPartitions = 4;
constexpr size_t kMaintenanceThreads = 2;

class GleambookData {
 public:
  /// Users 0..users-1, then messages 0..messages-1, from one seeded stream.
  GleambookData(uint64_t seed, int64_t users, int64_t messages);

  /// Message `id`, generating (in id order) as far as needed.
  const asterix::adm::Value& Message(int64_t id);
  /// Messages generated so far.
  int64_t messages() const { return static_cast<int64_t>(messages_.size()); }
  int64_t users() const { return static_cast<int64_t>(users_.size()); }
  const std::vector<asterix::adm::Value>& user_records() const {
    return users_;
  }
  const std::vector<asterix::adm::Value>& message_records() const {
    return messages_;
  }
  const asterix::adm::Value& User(int64_t id) const { return users_[id]; }
  int64_t AuthorOf(int64_t message_id) const { return author_[message_id]; }
  /// Ids of the generated messages written by `author`, ascending.
  const std::vector<int64_t>& MessagesBy(int64_t author) const {
    return by_author_[author];
  }
  /// Number of friend ids of user `id` (COLL_COUNT(u.friendIds)).
  int64_t FriendCount(int64_t id) const;

 private:
  asterix::gleambook::Generator gen_;
  std::vector<asterix::adm::Value> users_, messages_;
  std::vector<int64_t> author_;
  std::vector<std::vector<int64_t>> by_author_;
};

struct InstanceShape {
  size_t buffer_cache_pages = 4096;
  bool load_messages = true;  // false: messages arrive later (by feed)
};

/// A loaded instance plus what loading it cost.
struct LoadedStore {
  std::unique_ptr<asterix::Instance> instance;
  double setup_s = 0;           // median over the set-ups
  std::vector<double> setups_s;  // every set-up
  uint64_t records_loaded = 0;
  uint64_t user_bytes_loaded = 0;  // serialized ADM bytes of those records
  uint64_t disk_bytes = 0;  // bytes under the instance directory after load
  /// Registry counters at the start of the kept set-up, for the write-path
  /// per-layer metrics (set-up plus measured phase).
  asterix::metrics::MetricsSnapshot before_setup;
};

/// Loads the store from scratch (DDL, upserts, checkpoint, background
/// merges drained) at least three
/// times and until the set-ups took kSetupSeconds together (at most nine
/// times), timing each, and keeps the last instance. Exits the process on
/// failure: without a store there is nothing to measure.
LoadedStore LoadStore(GleambookData* data, const InstanceShape& shape,
                      const std::string& dir);

/// "set-up: N loads of R records: a b c s" for the report.
std::string SetupNote(const LoadedStore& store);

/// Bytes of the files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// An UPSERT statement that rewrites message `m` with its own content.
std::string MessageUpsertSql(const asterix::adm::Value& m);

}  // namespace gb
