#include "exactly_once.h"

#include <gtest/gtest.h>

#include "kv/receipts.h"

namespace bistro {

void ExpectSinkExactlyOnce(FileSystem* fs, const FileSinkEndpoint& sink,
                           const std::string& root,
                           const std::set<std::string>& feeds,
                           const ExpectedFiles& expected,
                           const std::string& who, int seed) {
  size_t want = 0;
  for (const auto& [name, file] : expected) {
    if (feeds.count(file.feed) == 0) continue;
    ++want;
    std::string dest = root + "/" + file.feed + "/" + name;
    auto got = fs->ReadFile(dest);
    EXPECT_TRUE(got.ok()) << who << " lost " << dest << " (seed " << seed
                          << ")";
    if (got.ok()) {
      EXPECT_EQ(*got, file.content) << dest << " (seed " << seed << ")";
    }
  }
  // Redeliveries (lost acks, the crash window) must be absorbed by
  // receipts and the sink's FileId dedupe, never landed twice.
  EXPECT_EQ(sink.files_received(), want)
      << who << " delivery count off (seed " << seed << ")";
}

void ExpectDrained(BistroServer* server,
                   const std::vector<std::string>& subscribers, int seed) {
  for (const std::string& name : subscribers) {
    const SubscriberSpec* spec = server->registry()->FindSubscriber(name);
    EXPECT_NE(spec, nullptr) << name;
    if (spec == nullptr) continue;
    auto queue = server->receipts()->ComputeDeliveryQueue(
        spec->name, server->registry()->SubscribedFeeds(*spec));
    EXPECT_TRUE(queue.empty()) << name << " still has " << queue.size()
                               << " undelivered files (seed " << seed << ")";
  }
  EXPECT_TRUE(server->delivery()->dead_letters().empty())
      << "a file was dead-lettered (seed " << seed << ")";
}

std::set<std::string> AuditReceiptDb(FileSystem* fs, const std::string& db_dir,
                                     const ExpectedFiles& expected, int seed,
                                     int shards) {
  std::set<std::string> seen;
  auto db = ReceiptDatabase::Open(fs, db_dir, KvStore::Options(), shards);
  EXPECT_TRUE(db.ok()) << db.status() << " (seed " << seed << ")";
  if (!db.ok()) return seen;
  std::set<std::string> feeds;
  for (const auto& [name, file] : expected) feeds.insert(file.feed);
  for (const std::string& feed : feeds) {
    for (FileId id : (*db)->FilesInFeed(feed)) {
      auto receipt = (*db)->GetArrival(id);
      EXPECT_TRUE(receipt.ok()) << receipt.status() << " (seed " << seed
                                << ")";
      if (!receipt.ok()) continue;
      EXPECT_TRUE(seen.insert(receipt->name).second)
          << "name ingested twice: " << receipt->name << " (seed " << seed
          << ")";
      auto it = expected.find(receipt->name);
      EXPECT_NE(it, expected.end())
          << "unexpected file: " << receipt->name << " (seed " << seed << ")";
      if (it == expected.end()) continue;
      auto staged = fs->ReadFile(receipt->staged_path);
      EXPECT_TRUE(staged.ok()) << receipt->staged_path << ": "
                               << staged.status() << " (seed " << seed << ")";
      if (staged.ok()) {
        EXPECT_EQ(*staged, it->second.content)
            << receipt->name << " (seed " << seed << ")";
      }
    }
  }
  // An arrival outside the expected feeds shows up here as a surplus.
  EXPECT_EQ((*db)->ArrivalCount(), seen.size()) << "(seed " << seed << ")";
  return seen;
}

}  // namespace bistro
