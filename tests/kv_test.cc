// Tests for the durable KV substrate: WAL framing and torn-tail recovery,
// KvStore batches/checkpoints/crash-recovery, and the receipt database's
// delivery-queue computation (the paper's §4.2 reliability mechanism).

#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "kv/kvstore.h"
#include "kv/receipts.h"
#include "kv/wal.h"
#include "obs/metrics.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- WAL

TEST(WalTest, AppendAndReplay) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"one"}).ok());
  ASSERT_TRUE(wal.AppendBatch({"two"}).ok());
  ASSERT_TRUE(wal.AppendBatch({"three"}).ok());
  std::vector<std::string> seen;
  bool torn = false;
  ASSERT_TRUE(wal.Replay([&](std::string_view r) { seen.emplace_back(r); }, &torn).ok());
  EXPECT_FALSE(torn);
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two", "three"}));
}

TEST(WalTest, EmptyLogReplaysNothing) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](std::string_view) { count++; }).ok());
  EXPECT_EQ(count, 0);
}

TEST(WalTest, TornTailIsToleratedNotCorruption) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"record_one"}).ok());
  ASSERT_TRUE(wal.AppendBatch({"record_two"}).ok());
  // Simulate a crash mid-write: truncate the file by a few bytes.
  std::string data = *fs.ReadFile("/db/wal.log");
  ASSERT_TRUE(fs.WriteFile("/db/wal.log", std::string_view(data).substr(0, data.size() - 4)).ok());
  std::vector<std::string> seen;
  bool torn = false;
  ASSERT_TRUE(wal.Replay([&](std::string_view r) { seen.emplace_back(r); }, &torn).ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(seen, (std::vector<std::string>{"record_one"}));
}

TEST(WalTest, MidLogCorruptionIsError) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"record_one"}).ok());
  ASSERT_TRUE(wal.AppendBatch({"record_two"}).ok());
  std::string data = *fs.ReadFile("/db/wal.log");
  data[6] ^= 0x5A;  // flip a byte inside the first record's payload
  ASSERT_TRUE(fs.WriteFile("/db/wal.log", data).ok());
  Status s = wal.Replay([](std::string_view) {});
  EXPECT_TRUE(s.IsCorruption());
}

TEST(WalTest, TruncateRemovesLog) {
  InMemoryFileSystem fs;
  WriteAheadLog wal(&fs, "/db/wal.log");
  ASSERT_TRUE(wal.AppendBatch({"x"}).ok());
  EXPECT_GT(wal.SizeBytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());
  EXPECT_EQ(wal.SizeBytes(), 0u);
  ASSERT_TRUE(wal.Truncate().ok());  // idempotent
}

// ---------------------------------------------------------------- KvStore

KvStore::Options NoAutoCheckpoint() {
  KvStore::Options o;
  o.checkpoint_wal_bytes = 0;
  return o;
}

TEST(KvStoreTest, PutGetDelete) {
  InMemoryFileSystem fs;
  auto store = KvStore::Open(&fs, "/db");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k1", "v1").ok());
  EXPECT_EQ(*(*store)->Get("k1"), "v1");
  EXPECT_TRUE((*store)->Contains("k1"));
  ASSERT_TRUE((*store)->Delete("k1").ok());
  EXPECT_TRUE((*store)->Get("k1").status().IsNotFound());
  EXPECT_EQ((*store)->Size(), 0u);
}

TEST(KvStoreTest, SurvivesReopen) {
  InMemoryFileSystem fs;
  {
    auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("feed", "SNMP.CPU").ok());
    ASSERT_TRUE((*store)->Put("subscriber", "dallas").ok());
    ASSERT_TRUE((*store)->Delete("subscriber").ok());
  }  // "crash": no clean shutdown path exists, recovery is the only path
  auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("feed"), "SNMP.CPU");
  EXPECT_FALSE((*store)->Contains("subscriber"));
}

TEST(KvStoreTest, BatchIsAtomicAcrossTornTail) {
  InMemoryFileSystem fs;
  {
    auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("before", "1").ok());
    ASSERT_TRUE((*store)
                    ->ApplyMulti({{KvStore::Write::Put("batch_a", "x"),
                                   KvStore::Write::Put("batch_b", "y")}})
                    .ok());
  }
  // Tear the tail of the WAL: the second batch should vanish entirely.
  std::string wal = *fs.ReadFile("/db/wal.log");
  ASSERT_TRUE(fs.WriteFile("/db/wal.log",
                           std::string_view(wal).substr(0, wal.size() - 2)).ok());
  auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->recovered_torn_tail());
  EXPECT_TRUE((*store)->Contains("before"));
  EXPECT_FALSE((*store)->Contains("batch_a"));
  EXPECT_FALSE((*store)->Contains("batch_b"));
}

TEST(KvStoreTest, CheckpointThenRecover) {
  InMemoryFileSystem fs;
  {
    auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Checkpoint().ok());
    EXPECT_EQ((*store)->WalBytes(), 0u);
    // Post-checkpoint writes land in a fresh WAL.
    ASSERT_TRUE((*store)->Put("post", "ckpt").ok());
  }
  auto store = KvStore::Open(&fs, "/db", NoAutoCheckpoint());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Size(), 101u);
  EXPECT_EQ(*(*store)->Get("k42"), "42");
  EXPECT_EQ(*(*store)->Get("post"), "ckpt");
}

TEST(KvStoreTest, AutoCheckpointTriggers) {
  InMemoryFileSystem fs;
  KvStore::Options opts;
  opts.checkpoint_wal_bytes = 512;
  auto store = KvStore::Open(&fs, "/db", opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(32, 'v')).ok());
  }
  // WAL must have been truncated at least once.
  EXPECT_LT((*store)->WalBytes(), 100 * 40u);
  EXPECT_TRUE(fs.Exists("/db/checkpoint.db"));
  // And the data survives reopen.
  auto reopened = KvStore::Open(&fs, "/db", opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 100u);
}

TEST(KvStoreTest, ScanPrefixOrdered) {
  InMemoryFileSystem fs;
  auto store = KvStore::Open(&fs, "/db");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("d/sub1/3", "c").ok());
  ASSERT_TRUE((*store)->Put("d/sub1/1", "a").ok());
  ASSERT_TRUE((*store)->Put("d/sub2/2", "b").ok());
  ASSERT_TRUE((*store)->Put("a/1", "x").ok());
  auto rows = (*store)->ScanPrefix("d/sub1/");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "d/sub1/1");
  EXPECT_EQ(rows[1].first, "d/sub1/3");
}

TEST(KvStoreTest, EmptyKeyAndValue) {
  InMemoryFileSystem fs;
  auto store = KvStore::Open(&fs, "/db");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("", "").ok());
  EXPECT_EQ(*(*store)->Get(""), "");
}

// ---------------------------------------------------------------- Receipts

ArrivalReceipt MakeReceipt(const std::string& name, std::vector<FeedName> feeds,
                           TimePoint arrival) {
  ArrivalReceipt r;
  r.name = name;
  r.staged_path = "/staging/" + name;
  r.size = 100;
  r.arrival_time = arrival;
  r.data_time = arrival - kMinute;
  r.feeds = std::move(feeds);
  return r;
}

// Records one arrival as a group of one; returns the id it was assigned
// (0 if the commit failed).
FileId Arrive(ReceiptDatabase* db, const std::string& name,
              std::vector<FeedName> feeds, TimePoint arrival) {
  std::vector<ArrivalReceipt> group = {
      MakeReceipt(name, std::move(feeds), arrival)};
  if (!db->RecordArrivalGroup(&group).ok()) return 0;
  return group[0].file_id;
}

// Records one delivery receipt as a group of one.
Status Deliver(ReceiptDatabase* db, const SubscriberName& subscriber,
               FileId id, TimePoint when) {
  return db->RecordDeliveryGroup({{subscriber, id, when}});
}

TEST(ReceiptsTest, FileIdsAreDurableAndMonotonic) {
  InMemoryFileSystem fs;
  FileId last = 0;
  {
    auto db = ReceiptDatabase::Open(&fs, "/receipts");
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 5; ++i) {
      FileId id = Arrive(db->get(), "f" + std::to_string(i), {"F"}, kSecond);
      EXPECT_GT(id, last);
      last = id;
    }
  }
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  EXPECT_GT(Arrive(db->get(), "after-reopen", {"F"}, kSecond), last);
}

TEST(ReceiptsTest, ArrivalRoundTrip) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  auto r = MakeReceipt("CPU_POLL1_201009250502.txt", {"SNMP.CPU"}, 10 * kSecond);
  std::vector<ArrivalReceipt> group = {r};
  ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  ASSERT_EQ(group[0].file_id, 1u);
  auto got = (*db)->GetArrival(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->name, r.name);
  EXPECT_EQ(got->staged_path, r.staged_path);
  EXPECT_EQ(got->arrival_time, r.arrival_time);
  EXPECT_EQ(got->data_time, r.data_time);
  EXPECT_EQ(got->feeds, r.feeds);
  EXPECT_EQ((*db)->FilesInFeed("SNMP.CPU"), std::vector<FileId>{1});
}

TEST(ReceiptsTest, DeliveryQueueIsArrivalMinusDelivered) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  for (FileId id = 1; id <= 4; ++id) {
    ASSERT_EQ(Arrive(db->get(), "f" + std::to_string(id), {"SNMP.CPU"},
                     id * kSecond),
              id);
  }
  ASSERT_TRUE(Deliver(db->get(), "dallas", 1, 10 * kSecond).ok());
  ASSERT_TRUE(Deliver(db->get(), "dallas", 3, 10 * kSecond).ok());
  auto queue = (*db)->ComputeDeliveryQueue("dallas", {"SNMP.CPU"});
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].file_id, 2u);
  EXPECT_EQ(queue[1].file_id, 4u);
  // A different subscriber sees everything.
  EXPECT_EQ((*db)->ComputeDeliveryQueue("atlanta", {"SNMP.CPU"}).size(), 4u);
  EXPECT_TRUE((*db)->Delivered("dallas", 1));
  EXPECT_FALSE((*db)->Delivered("dallas", 2));
}

TEST(ReceiptsTest, QueueUnionsFeedsWithoutDuplicates) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  // File 1 belongs to both feeds a subscriber follows.
  ASSERT_EQ(Arrive(db->get(), "x", {"SNMP.CPU", "SNMP.BPS"}, kSecond), 1u);
  ASSERT_EQ(Arrive(db->get(), "y", {"SNMP.BPS"}, kSecond), 2u);
  auto queue = (*db)->ComputeDeliveryQueue("w", {"SNMP.CPU", "SNMP.BPS"});
  EXPECT_EQ(queue.size(), 2u);
}

TEST(ReceiptsTest, WindowStartFiltersOldFiles) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(Arrive(db->get(), "old", {"F"}, 1 * kHour), 1u);
  ASSERT_EQ(Arrive(db->get(), "new", {"F"}, 3 * kHour), 2u);
  auto queue = (*db)->ComputeDeliveryQueue("s", {"F"}, 2 * kHour);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].name, "new");
}

TEST(ReceiptsTest, ExpireBeforeRemovesReceiptsAndReportsPaths) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(Arrive(db->get(), "old", {"F"}, 1 * kHour), 1u);
  ASSERT_EQ(Arrive(db->get(), "new", {"F"}, 3 * kHour), 2u);
  auto expunged = (*db)->ExpireBefore(2 * kHour);
  ASSERT_TRUE(expunged.ok());
  ASSERT_EQ(expunged->size(), 1u);
  EXPECT_EQ((*expunged)[0], "/staging/old");
  EXPECT_EQ((*db)->ArrivalCount(), 1u);
  EXPECT_EQ((*db)->FilesInFeed("F"), std::vector<FileId>{2});
  // The queue no longer offers the expired file.
  EXPECT_EQ((*db)->ComputeDeliveryQueue("s", {"F"}).size(), 1u);
}

// Expiry drops a file's delivery rows too: each subscriber's, and a
// group member's catch-up row, whichever shard they live in.
class ExpiryShardsTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpiryShardsTest, ExpiryDeletesDeliveryReceiptsOfExpiredFiles) {
  InMemoryFileSystem fs;
  const std::vector<SubscriberName> subs = {"alice", "bob", "grp~m1"};
  {
    auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(),
                                    GetParam());
    ASSERT_TRUE(db.ok());
    for (FileId id = 1; id <= 10; ++id) {
      ASSERT_EQ(Arrive(db->get(), "f" + std::to_string(id), {"F"},
                       static_cast<TimePoint>(id) * kHour),
                id);
      for (const SubscriberName& sub : subs) {
        ASSERT_TRUE(Deliver(db->get(), sub, id, 11 * kHour).ok());
      }
    }
    // A delivery row whose file has no arrival receipt, as a crash between
    // expiry's two passes leaves. A call with nothing due leaves it; the
    // next call that expires a file collects it.
    ASSERT_TRUE(Deliver(db->get(), "alice", 999, 11 * kHour).ok());
    auto none = (*db)->ExpireBefore(kHour);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->empty());
    EXPECT_TRUE((*db)->Delivered("alice", 999));
    auto expired = (*db)->ExpireBefore(5 * kHour + kHour / 2);
    ASSERT_TRUE(expired.ok());
    EXPECT_EQ(expired->size(), 5u);
  }
  // Cold reopen: the deletions are durable.
  auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(),
                                  GetParam());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ArrivalCount(), 5u);
  size_t rows = 0;
  for (size_t shard = 0; shard < (*db)->shard_count(); ++shard) {
    for (const auto& [key, value] : (*db)->kv(shard)->ScanPrefix("")) {
      ++rows;
      for (FileId id : {1, 2, 3, 4, 5, 999}) {
        std::string hex = StrFormat("%016llx", (unsigned long long)id);
        EXPECT_EQ(key.find(hex), std::string::npos) << key;
      }
    }
  }
  for (const SubscriberName& sub : subs) {
    for (FileId id = 1; id <= 10; ++id) {
      EXPECT_EQ((*db)->Delivered(sub, id), id > 5) << sub << " " << id;
    }
    EXPECT_TRUE((*db)->ComputeDeliveryQueue(sub, {"F"}).empty()) << sub;
  }
  // Per kept file: a/, f/ and n/ rows plus one delivery row per name;
  // shard 0 also holds the id counter.
  EXPECT_EQ(rows, 5 * (3 + subs.size()) + 1);
}

INSTANTIATE_TEST_SUITE_P(Shards, ExpiryShardsTest, ::testing::Values(1, 4));

TEST(ReceiptsTest, ReceiptsSurviveCrash) {
  InMemoryFileSystem fs;
  {
    auto db = ReceiptDatabase::Open(&fs, "/receipts");
    ASSERT_TRUE(db.ok());
    ASSERT_EQ(Arrive(db->get(), "a", {"F"}, kSecond), 1u);
    ASSERT_TRUE(Deliver(db->get(), "s", 1, 2 * kSecond).ok());
    ASSERT_EQ(Arrive(db->get(), "b", {"F"}, kSecond), 2u);
  }
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  auto queue = (*db)->ComputeDeliveryQueue("s", {"F"});
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue[0].file_id, 2u);
}

// Property test: after any interleaving of arrivals and deliveries, the
// delivery queue equals exactly (arrived − delivered) within the window.
class ReceiptsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReceiptsPropertyTest, QueueInvariant) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts");
  ASSERT_TRUE(db.ok());
  Rng rng(GetParam());
  std::set<FileId> arrived, delivered;
  FileId next_id = 1;
  for (int step = 0; step < 200; ++step) {
    if (arrived.empty() || rng.Bernoulli(0.6)) {
      FileId id = next_id++;
      ASSERT_EQ(Arrive(db->get(), "f" + std::to_string(id), {"F"}, kSecond),
                id);
      arrived.insert(id);
    } else {
      // Deliver a random undelivered file.
      std::vector<FileId> undelivered;
      for (FileId id : arrived) {
        if (delivered.count(id) == 0) undelivered.push_back(id);
      }
      if (undelivered.empty()) continue;
      FileId id = undelivered[rng.Uniform(undelivered.size())];
      ASSERT_TRUE(Deliver(db->get(), "s", id, 2 * kSecond).ok());
      delivered.insert(id);
    }
  }
  auto queue = (*db)->ComputeDeliveryQueue("s", {"F"});
  std::set<FileId> queued;
  for (const auto& r : queue) queued.insert(r.file_id);
  std::set<FileId> expected;
  for (FileId id : arrived) {
    if (delivered.count(id) == 0) expected.insert(id);
  }
  EXPECT_EQ(queued, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReceiptsPropertyTest, ::testing::Range(1, 8));

// ------------------------------------------------------------ On-disk golden

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// The WAL bytes of the scripted sequence below: the format every commit
// routine writes. A change here breaks recovery of existing stores.
constexpr char kGoldenWalHex[] =
    "f1fe294f080101036f6e6501318b5592f10601010161017844dbd38406010101"
    "620179c9e0181c0601010163017a54ab61d9090201016401770001610b8206ed"
    "060100036f6e6565591ebf08010103736571013255c5517e66030112612f3030"
    "30303030303030303030303030312266311f2f73746167696e672f66311f462f"
    "66311f31301f313030303030301f311f4601046e2f6631103030303030303030"
    "30303030303030310114662f462f30303030303030303030303030303031009f"
    "9ccf9b7f040112612f303030303030303030303030303030322466321f2f7374"
    "6167696e672f66321f462f66321f31311f323030303030301f321f462c470104"
    "6e2f663210303030303030303030303030303030320114662f462f3030303030"
    "3030303030303030303032000114662f472f3030303030303030303030303030"
    "3032006fb75b271f010114642f732f3030303030303030303030303030303107"
    "33303030303030";

// One fsynced receipt store driven through each commit path: a
// one-record commit, a three-record group, a batch with a delete, a
// single-write delete, an arrival group and one delivery receipt. The log
// must match the pinned bytes, with one fsync per commit.
TEST(WalGoldenTest, CommitSequenceWritesPinnedBytesAndOneSyncPerCommit) {
  InMemoryFileSystem fs;
  MetricsRegistry registry;
  KvStore::Options opts;
  opts.checkpoint_wal_bytes = 0;
  opts.sync_wal = true;
  auto db = ReceiptDatabase::Open(&fs, "/db", opts);
  ASSERT_TRUE(db.ok());
  (*db)->AttachMetrics(&registry);
  KvStore* kv = (*db)->kv();
  ASSERT_TRUE(kv->Put("one", "1").ok());
  ASSERT_TRUE(kv->ApplyMulti({{KvStore::Write::Put("a", "x")},
                              {KvStore::Write::Put("b", "y")},
                              {KvStore::Write::Put("c", "z")}})
                  .ok());
  ASSERT_TRUE(kv->ApplyMulti({{KvStore::Write::Put("d", "w"),
                               KvStore::Write::Del("a")}})
                  .ok());
  ASSERT_TRUE(kv->Delete("one").ok());
  std::vector<ArrivalReceipt> group(2);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i].name = "f" + std::to_string(i + 1);
    group[i].staged_path = "/staging/" + group[i].name;
    group[i].rel_path = "F/" + group[i].name;
    group[i].size = 10 + i;
    group[i].arrival_time = static_cast<TimePoint>(i + 1) * kSecond;
    group[i].data_time = static_cast<TimePoint>(i + 1);
    group[i].feeds = {"F"};
  }
  group[1].feeds.push_back("G");
  ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  ASSERT_TRUE((*db)->RecordDeliveryGroup({{"s", 1, 3 * kSecond}}).ok());

  auto wal = fs.ReadFile("/db/wal.log");
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(Hex(*wal), kGoldenWalHex);
  // Six commits, one fsync each; ten records (the arrival group carries
  // the sequence bump plus two receipts).
  EXPECT_EQ(registry.GetCounter("bistro_wal_syncs_total", "")->value(), 6u);
  EXPECT_EQ(registry.GetCounter("bistro_wal_appends_total", "")->value(), 10u);
}

}  // namespace
}  // namespace bistro
