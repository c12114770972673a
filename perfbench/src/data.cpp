#include "data.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "adm/serde.h"
#include "storage/maintenance.h"

namespace gb {

using asterix::adm::Value;

namespace {
asterix::gleambook::GeneratorOptions GenOptions(uint64_t seed, int64_t users,
                                                int64_t messages) {
  asterix::gleambook::GeneratorOptions o;
  o.seed = seed;
  o.num_users = users;
  o.num_messages = messages;
  return o;
}

[[noreturn]] void Die(const std::string& what, const asterix::Status& st) {
  std::fprintf(stderr, "gleambench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}
}  // namespace

GleambookData::GleambookData(uint64_t seed, int64_t users, int64_t messages)
    : gen_(GenOptions(seed, users, messages)) {
  users_ = gen_.Users();
  by_author_.resize(static_cast<size_t>(users));
  for (int64_t i = 0; i < messages; i++) (void)Message(i);
}

const Value& GleambookData::Message(int64_t id) {
  while (messages() <= id) {
    int64_t next = messages();
    messages_.push_back(gen_.MakeMessage(next));
    int64_t author = messages_.back().GetField("authorId").AsInt();
    author_.push_back(author);
    by_author_[static_cast<size_t>(author)].push_back(next);
  }
  return messages_[static_cast<size_t>(id)];
}

int64_t GleambookData::FriendCount(int64_t id) const {
  return static_cast<int64_t>(
      users_[static_cast<size_t>(id)].GetField("friendIds").items().size());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

LoadedStore LoadStore(GleambookData* data, const InstanceShape& shape,
                      const std::string& dir) {
  // Short set-ups are noisy, so they are repeated more often.
  constexpr double kSetupSeconds = 4;
  constexpr size_t kMinSetups = 3, kMaxSetups = 9;
  LoadedStore out;
  uint64_t records = 0, bytes = 0;
  for (const auto* set : {&data->user_records(), &data->message_records()}) {
    if (set == &data->message_records() && !shape.load_messages) continue;
    records += set->size();
    for (const auto& rec : *set) bytes += asterix::adm::Serialize(rec).size();
  }
  out.records_loaded = records;
  out.user_bytes_loaded = bytes;
  double total_s = 0;
  while (out.setups_s.size() < kMinSetups ||
         (total_s < kSetupSeconds && out.setups_s.size() < kMaxSetups)) {
    out.instance.reset();  // close the previous round's store first
    std::filesystem::remove_all(dir);
    asterix::InstanceOptions o;
    o.base_dir = dir;
    o.num_partitions = kPartitions;
    o.buffer_cache_pages = shape.buffer_cache_pages;
    o.wal_sync = asterix::txn::SyncMode::kNoSync;
    o.maintenance_threads = kMaintenanceThreads;
    out.before_setup = asterix::metrics::Registry::Global().Snapshot();
    const uint64_t t0 = NowNs();
    auto opened = asterix::Instance::Open(o);
    if (!opened.ok()) Die("open instance", opened.status());
    auto inst = std::move(opened).value();
    auto ddl = inst->ExecuteScript(asterix::gleambook::Generator::Ddl(true));
    if (!ddl.ok()) Die("create schema", ddl.status());
    auto load = [&](const char* dataset, const std::vector<Value>& records) {
      for (const auto& rec : records) {
        asterix::Status st = inst->UpsertValue(dataset, rec);
        if (!st.ok()) Die(std::string("load ") + dataset, st);
      }
    };
    load("GleambookUsers", data->user_records());
    if (shape.load_messages) {
      load("GleambookMessages", data->message_records());
    }
    asterix::Status st = inst->Checkpoint();
    if (!st.ok()) Die("checkpoint", st);
    // Merges the checkpoint's flushes triggered run in the background;
    // the store is set up once they are done.
    inst->maintenance()->Drain();
    out.setups_s.push_back(SecondsSince(t0));
    total_s += out.setups_s.back();
    out.instance = std::move(inst);
  }
  out.setup_s = Median(out.setups_s);
  out.disk_bytes = DirBytes(dir);
  return out;
}

std::string SetupNote(const LoadedStore& store) {
  std::string out = "set-up: " + std::to_string(store.setups_s.size()) +
                    " loads of " + std::to_string(store.records_loaded) +
                    " records (DDL, upserts, checkpoint):";
  for (double s : store.setups_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    out += buf;
  }
  return out + " s";
}

std::string MessageUpsertSql(const Value& m) {
  char point[96];
  auto loc = m.GetField("senderLocation").AsPoint();
  std::snprintf(point, sizeof(point), "create_point(%.17g, %.17g)", loc.x,
                loc.y);
  std::string sql = "UPSERT INTO GleambookMessages ({\"messageId\": " +
                    std::to_string(m.GetField("messageId").AsInt()) +
                    ", \"authorId\": " +
                    std::to_string(m.GetField("authorId").AsInt());
  if (m.HasField("inResponseTo")) {
    sql += ", \"inResponseTo\": " +
           std::to_string(m.GetField("inResponseTo").AsInt());
  }
  // Message text is generated vocabulary words: nothing to escape.
  sql += ", \"senderLocation\": " + std::string(point) + ", \"message\": \"" +
         m.GetField("message").AsString() + "\"})";
  return sql;
}

}  // namespace gb
