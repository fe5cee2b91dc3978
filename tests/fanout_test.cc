// Fan-out subsystem tests: subscription index (and the no-full-scan
// regression probe), subscriber groups with straggler catch-up, sharded
// receipt stores (torn-tail rollback, golden equivalence vs the
// unsharded layout), the admin `subscriptions` view, and a multi-hop
// cascade (server -> pass-through relay server -> federated server)
// across a relay crash.

#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "fanout/group.h"
#include "fanout/subscription_index.h"
#include "federation/federation.h"
#include "kv/receipts.h"
#include "vfs/memfs.h"

namespace bistro {
namespace fanout {
namespace {

// ------------------------------------------------------------ helpers

Message FileMsg(FileId id, const std::string& name, const std::string& body,
                const FeedName& feed = "FED") {
  Message m;
  m.type = MessageType::kFileData;
  m.file_id = id;
  m.feed = feed;
  m.name = name;
  m.dest_path = name;
  m.payload_crc = Crc32(body);
  m.payload = SharedPayload(std::string(body));
  return m;
}

size_t CountReceiptRows(ReceiptDatabase* db, const std::string& prefix) {
  size_t n = 0;
  for (size_t i = 0; i < db->shard_count(); ++i) {
    n += db->kv(i)->CountPrefix(prefix);
  }
  return n;
}

// ------------------------------------------------- config: new blocks

TEST(FanoutConfigTest, ParsesGroupRelayAndReceiptsBlocks) {
  auto config = ParseConfig(R"(
group SNMP {
  feed CPU { pattern "CPU_%i_%Y%m%d%H%M.txt"; }
}
group analytics {
  feeds SNMP, OTHER;
  members a1, a2, a3;
  window 2d;
  straggler_after 5;
}
feed OTHER { pattern "other_%s.dat"; }
receipts { shards 8; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->groups.size(), 1u);
  const GroupSpec& g = config->groups[0];
  EXPECT_EQ(g.name, "analytics");
  EXPECT_EQ(g.feeds, (std::vector<FeedName>{"SNMP", "OTHER"}));
  EXPECT_EQ(g.members, (std::vector<std::string>{"a1", "a2", "a3"}));
  EXPECT_EQ(g.window, 2 * kDay);
  EXPECT_EQ(g.straggler_after, 5);
  EXPECT_EQ(config->receipts.shards, 8);
}

TEST(FanoutConfigTest, FormatRoundTripsFanoutBlocks) {
  auto config = ParseConfig(R"(
feed FED { pattern "fed_%i.dat"; }
group g1 { feeds FED; members m1, m2; straggler_after 2; }
receipts { shards 4; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  auto round = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(round.ok()) << round.status() << "\n" << FormatConfig(*config);
  EXPECT_EQ(*config, *round);
}

TEST(FanoutConfigTest, RejectsInvalidFanoutBlocks) {
  // A subscriber group needs members and feeds.
  EXPECT_FALSE(ParseConfig("group g { feeds F; }").ok());
  EXPECT_FALSE(ParseConfig("group g { members a; }").ok());
  // Duplicate members.
  EXPECT_FALSE(ParseConfig("group g { feeds F; members a, a; }").ok());
  // Subscriber groups cannot nest inside a feed-hierarchy group.
  EXPECT_FALSE(
      ParseConfig("group SNMP { group g { feeds F; members a; } }").ok());
  // Shard count is bounded.
  EXPECT_FALSE(ParseConfig("receipts { shards 0; }").ok());
  EXPECT_FALSE(ParseConfig("receipts { shards 512; }").ok());
}

// -------------------------------------------------- subscription index

constexpr char kIndexConfig[] = R"(
group SNMP {
  feed CPU { pattern "CPU_%i_%Y%m%d%H%M.txt"; }
  feed MEMORY { pattern "MEM_%s.csv"; }
}
subscriber warehouse { destination "/w"; feeds SNMP; method push; }
subscriber dashboard { destination "/d"; feeds SNMP.CPU; method notify; }
)";

TEST(SubscriptionIndexTest, InvertsInterestSets) {
  auto config = ParseConfig(kIndexConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  SubscriptionIndex index(registry->get());

  const auto& cpu = index.PostingsFor("SNMP.CPU");
  ASSERT_EQ(cpu.size(), 2u);
  EXPECT_EQ(cpu[0]->name, "warehouse");
  EXPECT_EQ(cpu[1]->name, "dashboard");
  const auto& mem = index.PostingsFor("SNMP.MEMORY");
  ASSERT_EQ(mem.size(), 1u);
  EXPECT_EQ(mem[0]->name, "warehouse");
  EXPECT_TRUE(index.PostingsFor("NO.SUCH.FEED").empty());
  EXPECT_EQ(index.ActiveSubscribers(),
            (std::vector<SubscriberName>{"dashboard", "warehouse"}));
}

TEST(SubscriptionIndexTest, RebuildsOnlyWhenAsked) {
  auto config = ParseConfig(kIndexConfig);
  ASSERT_TRUE(config.ok());
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok());
  SubscriptionIndex index(registry->get());
  EXPECT_EQ(index.rebuilds(), 1u);  // built at construction

  index.PostingsFor("SNMP.CPU");
  index.PostingsFor("SNMP.MEMORY");
  index.PostingsFor("SNMP.CPU");
  EXPECT_EQ(index.rebuilds(), 1u);  // one build serves many lookups
  EXPECT_EQ(index.lookups(), 3u);

  SubscriberSpec extra;
  extra.name = "archiver";
  extra.feeds = {"SNMP.MEMORY"};
  extra.method = DeliveryMethod::kPush;
  ASSERT_TRUE((*registry)->AddSubscriber(extra).ok());
  // Until the mutator rebuilds, the index serves the previous interest
  // sets (BistroServer::AddSubscriber rebuilds in the same call).
  EXPECT_EQ(index.PostingsFor("SNMP.MEMORY").size(), 1u);
  EXPECT_EQ(index.rebuilds(), 1u);
  index.Rebuild();
  const auto& mem = index.PostingsFor("SNMP.MEMORY");
  EXPECT_EQ(index.rebuilds(), 2u);
  ASSERT_EQ(mem.size(), 2u);
  EXPECT_EQ(mem[1]->name, "archiver");
  EXPECT_EQ(index.ActiveSubscribers(),
            (std::vector<SubscriberName>{"archiver", "dashboard",
                                         "warehouse"}));
}

// ------------------------------------ server fixture (groups + shards)

constexpr char kServerConfig[] = R"(
group SNMP {
  feed CPU {
    pattern "CPU_POLL%i_%Y%m%d%H%M.txt";
    normalize "%Y/%m/%d/CPU_POLL%i_%H%M.txt";
  }
}
subscriber warehouse { destination "/warehouse"; feeds SNMP; method push; }
group analytics {
  feeds SNMP;
  members a1, a2, a3;
  straggler_after 2;
}
receipts { shards 4; }
)";

class FanoutServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(FromCivil(CivilTime{2010, 9, 25}));
    loop_ = std::make_unique<EventLoop>(clock_.get());
    fs_ = std::make_unique<InMemoryFileSystem>();
    transport_ = std::make_unique<SimTransport>(loop_.get());
    invoker_ = std::make_unique<RecordingInvoker>();
    logger_ = std::make_unique<Logger>(clock_.get());
    logger_->SetMinLevel(LogLevel::kError);

    warehouse_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/warehouse");
    transport_->Register("warehouse", warehouse_.get());
    for (const char* name : {"a1", "a2", "a3"}) {
      members_[name] = std::make_unique<FileSinkEndpoint>(
          fs_.get(), std::string("/m/") + name);
    }

    config_ = *ParseConfig(kServerConfig);
    Boot();
  }

  void Boot() {
    auto server =
        BistroServer::Create(BistroServer::Options(), config_, fs_.get(),
                             transport_.get(), loop_.get(), invoker_.get(),
                             logger_.get());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
    GroupManager::Options opts;
    opts.catchup_interval = 0;  // tests drive CatchUpStragglers directly
    groups_ = std::make_unique<GroupManager>(server_.get(), fs_.get(),
                                             loop_.get(), logger_.get(), opts);
    ASSERT_TRUE(groups_
                    ->Wire(
                        config_.groups,
                        [this](const std::string& m) -> Endpoint* {
                          auto it = members_.find(m);
                          return it == members_.end() ? nullptr
                                                      : it->second.get();
                        },
                        [this](const std::string& name, Endpoint* ep) {
                          transport_->Register(name, ep);
                        })
                    .ok());
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<InMemoryFileSystem> fs_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<RecordingInvoker> invoker_;
  std::unique_ptr<Logger> logger_;
  std::unique_ptr<FileSinkEndpoint> warehouse_;
  std::map<std::string, std::unique_ptr<FileSinkEndpoint>> members_;
  ServerConfig config_;
  std::unique_ptr<BistroServer> server_;
  std::unique_ptr<GroupManager> groups_;
};

// The index is rebuilt by the calls that change the registry, once each,
// and by nothing else: deposits and punctuation only look it up.
TEST_F(FanoutServerTest, IndexRebuildsOnlyAtRegistryChanges) {
  fanout::SubscriptionIndex* index = server_->delivery()->subscription_index();
  const uint64_t booted = index->rebuilds();
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();
  server_->SourceEndOfBatch("SNMP.CPU", loop_->Now());
  loop_->RunUntilIdle();
  EXPECT_EQ(index->rebuilds(), booted);
  EXPECT_GT(index->lookups(), 0u);

  SubscriberSpec late;
  late.name = "latecomer";
  late.host = "warehouse";  // reuse a registered endpoint
  late.feeds = {"SNMP"};
  late.method = DeliveryMethod::kPush;
  ASSERT_TRUE(server_->AddSubscriber(late).ok());
  EXPECT_EQ(index->rebuilds(), booted + 1);
  // The new subscriber's backfill already ran off the rebuilt index.
  EXPECT_EQ(index->PostingsFor("SNMP.CPU").back()->name, "latecomer");
  loop_->RunUntilIdle();
  EXPECT_TRUE(server_->receipts()->Delivered("latecomer", 1));

  late.feeds = {};
  ASSERT_TRUE(server_->UpdateSubscriber(late).ok());
  EXPECT_EQ(index->rebuilds(), booted + 2);
  EXPECT_EQ(index->PostingsFor("SNMP.CPU").back()->name, "analytics");

  FeedSpec revised = server_->registry()->FindFeed("SNMP.CPU")->spec;
  revised.tardiness = 2 * kMinute;
  ASSERT_TRUE(server_->ReviseFeed(revised).ok());
  EXPECT_EQ(index->rebuilds(), booted + 3);
  loop_->RunUntilIdle();
  EXPECT_EQ(index->rebuilds(), booted + 3);
}

TEST_F(FanoutServerTest, GroupSharesOneCursorAndOneReceiptRow) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250405.txt", "cpu=2").ok());
  loop_->RunUntilIdle();

  // Every member landed both files...
  for (const char* m : {"a1", "a2", "a3"}) {
    auto got = fs_->ReadFile(std::string("/m/") + m +
                             "/SNMP.CPU/2010/09/25/CPU_POLL1_0400.txt");
    ASSERT_TRUE(got.ok()) << m << ": " << got.status();
    EXPECT_EQ(*got, "cpu=1");
    EXPECT_EQ(members_[m]->files_received(), 2u);
  }
  // ...but the receipt store holds ONE delivery row per file for the
  // whole group (plus the individual subscriber's), not one per member.
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 1));
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 2));
  EXPECT_FALSE(server_->receipts()->Delivered("a1", 1));
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics/"), 2u);
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics~"), 0u);

  GroupRelay* relay = groups_->relay("analytics");
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->files_acked(), 2u);
  EXPECT_EQ(relay->cursor(), 2u);
  EXPECT_EQ(relay->straggler_count(), 0u);
  // The group counts as ONE subscriber in the engine's queue math.
  EXPECT_TRUE(server_->receipts()
                  ->ComputeDeliveryQueue("analytics", {"SNMP.CPU"})
                  .empty());
}

TEST_F(FanoutServerTest, StragglerGetsDeltaCatchUpAndRejoins) {
  members_["a3"]->SetFailing(true);
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();

  // a3 failed straggler_after (2) consecutive times: the group acked
  // without it and tracked the miss per member.
  GroupRelay* relay = groups_->relay("analytics");
  EXPECT_EQ(relay->files_acked(), 1u);
  EXPECT_EQ(relay->straggler_count(), 1u);
  EXPECT_EQ(relay->straggler_lag(), 1u);
  EXPECT_TRUE(server_->receipts()->Delivered("analytics", 1));
  EXPECT_EQ(members_["a1"]->files_received(), 1u);
  EXPECT_EQ(members_["a3"]->files_received(), 0u);

  // Files arriving while a3 is a straggler go straight to its backlog —
  // no NACK churn on the healthy members.
  uint64_t nacks_before = relay->nacks();
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250405.txt", "cpu=2").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(relay->nacks(), nacks_before);
  EXPECT_EQ(relay->straggler_lag(), 2u);

  // Recovery: catch-up replays exactly the delta, records the
  // per-member d/<group>~<member>/ receipts, and a3 rejoins the ack set.
  members_["a3"]->SetFailing(false);
  EXPECT_EQ(groups_->CatchUpStragglers(), 2u);
  EXPECT_EQ(members_["a3"]->files_received(), 2u);
  EXPECT_EQ(relay->straggler_count(), 0u);
  EXPECT_EQ(relay->straggler_lag(), 0u);
  EXPECT_TRUE(server_->receipts()->Delivered("analytics~a3", 1));
  EXPECT_TRUE(server_->receipts()->Delivered("analytics~a3", 2));
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics~a3/"), 2u);
}

TEST_F(FanoutServerTest, RestartResyncIsAbsorbedByMemberDedupe) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();
  for (const char* m : {"a1", "a2", "a3"}) {
    EXPECT_EQ(members_[m]->files_received(), 1u);
  }

  // Server restart: receipts and staging survive on fs_, members keep
  // their own dedupe state (they are external processes).
  groups_.reset();
  server_.reset();
  Boot();
  loop_->RunUntilIdle();  // backfill finds nothing undelivered
  ASSERT_TRUE(groups_->Resync().ok());
  loop_->RunUntilIdle();

  for (const char* m : {"a1", "a2", "a3"}) {
    EXPECT_EQ(members_[m]->files_received(), 1u) << m << " re-landed a file";
    EXPECT_GE(members_[m]->duplicates(), 1u) << m << " saw no re-offer";
  }
  EXPECT_EQ(CountReceiptRows(server_->receipts(), "d/analytics/"), 1u);
}

// ------------------------------------------------- group relay (unit)

TEST(GroupRelayTest, NacksUntilStragglerThenAcksWithoutIt) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint ok1(&fs, "/ok1");
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", /*straggler_after=*/2, &logger);
  relay.AddMember("ok1", &ok1);
  relay.AddMember("bad", &bad);

  Message msg = FileMsg(1, "fed_1.dat", "x");
  EXPECT_FALSE(relay.HandleMessage(msg).ok());  // healthy-member failure
  EXPECT_EQ(relay.nacks(), 1u);
  EXPECT_EQ(relay.files_acked(), 0u);

  // The retry tips `bad` over straggler_after: group acks without it.
  EXPECT_TRUE(relay.HandleMessage(msg).ok());
  EXPECT_EQ(relay.straggler_count(), 1u);
  EXPECT_EQ(relay.cursor(), 1u);
  EXPECT_EQ(ok1.files_received(), 1u);
  EXPECT_EQ(ok1.duplicates(), 1u);  // retry absorbed by FileId dedupe

  // Catch-up drains the backlog and the member rejoins.
  bad.SetFailing(false);
  std::vector<std::pair<std::string, FileId>> deltas;
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> {
        return FileMsg(id, StrFormat("fed_%llu.dat", (unsigned long long)id),
                       "x");
      },
      [&](const std::string& member, FileId id, bool ok) {
        if (ok) deltas.emplace_back(member, id);
      });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(deltas,
            (std::vector<std::pair<std::string, FileId>>{{"bad", 1}}));
  EXPECT_EQ(bad.files_received(), 1u);
  EXPECT_EQ(relay.straggler_count(), 0u);
}

TEST(GroupRelayTest, ReofferQueuesFailuresInsteadOfNacking) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint ok1(&fs, "/ok1");
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", 3, &logger);
  relay.AddMember("ok1", &ok1);
  relay.AddMember("bad", &bad);
  relay.Reoffer(FileMsg(7, "fed_7.dat", "x"));

  EXPECT_EQ(relay.nacks(), 0u);
  EXPECT_EQ(ok1.files_received(), 1u);
  EXPECT_EQ(relay.straggler_lag(), 1u);  // queued for catch-up, not lost

  bad.SetFailing(false);
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> { return FileMsg(id, "fed_7.dat", "x"); },
      [](const std::string&, FileId, bool) {});
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(bad.files_received(), 1u);
  EXPECT_EQ(relay.straggler_lag(), 0u);
}

TEST(GroupRelayTest, CatchUpDropsFilesExpiredFromHistory) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  Logger logger(&clock);
  InMemoryFileSystem fs;
  FileSinkEndpoint bad(&fs, "/bad");
  bad.SetFailing(true);

  GroupRelay relay("g", 1, &logger);
  relay.AddMember("bad", &bad);
  relay.HandleMessage(FileMsg(1, "a.dat", "x"));
  relay.HandleMessage(FileMsg(2, "b.dat", "x"));
  EXPECT_EQ(relay.straggler_lag(), 2u);

  bad.SetFailing(false);
  size_t n = relay.CatchUp(
      [&](FileId id) -> Result<Message> {
        if (id == 1) return Status::NotFound("expired");
        return FileMsg(id, "b.dat", "x");
      },
      [](const std::string&, FileId, bool) {});
  EXPECT_EQ(n, 1u);  // the expired file is dropped, not retried forever
  EXPECT_EQ(relay.straggler_lag(), 0u);
  EXPECT_EQ(bad.files_received(), 1u);
}

// --------------------------------------------------- sharded receipts

TEST(ShardedReceiptsTest, RoutesRowsByShardAndMergesIndexes) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->shard_count(), 4u);

  std::vector<ArrivalReceipt> group(5);
  for (size_t i = 0; i < group.size(); ++i) {
    group[i].name = StrFormat("f%zu.dat", i);
    group[i].staged_path = StrFormat("/stage/f%zu.dat", i);
    group[i].feeds = {"FED"};
    group[i].arrival_time = 100 + static_cast<TimePoint>(i);
  }
  ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group[i].file_id, static_cast<FileId>(i + 1));
  }
  // Shard directories exist; rows are colocated by id hash.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        fs.ReadFile(StrFormat("/receipts/shard-%03d/wal.log", i)).ok());
  }
  // Per-feed index and name lookup merge across shards.
  EXPECT_EQ((*db)->FilesInFeed("FED"),
            (std::vector<FileId>{1, 2, 3, 4, 5}));
  auto id = (*db)->FindIdByName("f3.dat");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4u);

  // Delivery rows partition by subscriber, not file.
  ASSERT_TRUE((*db)->RecordDeliveryGroup({{"subA", 1, 200},
                                          {"subA", 2, 200},
                                          {"subB", 1, 200}})
                  .ok());
  EXPECT_TRUE((*db)->Delivered("subA", 1));
  EXPECT_TRUE((*db)->Delivered("subB", 1));
  EXPECT_FALSE((*db)->Delivered("subB", 2));
  EXPECT_EQ((*db)->ComputeDeliveryQueue("subA", {"FED"}).size(), 3u);
}

TEST(ShardedReceiptsTest, GoldenEquivalenceWithUnshardedLayout) {
  InMemoryFileSystem fs;
  auto one = ReceiptDatabase::Open(&fs, "/r1", KvStore::Options(), 1);
  auto four = ReceiptDatabase::Open(&fs, "/r4", KvStore::Options(), 4);
  ASSERT_TRUE(one.ok() && four.ok());

  auto workload = [](ReceiptDatabase* db) {
    std::vector<ArrivalReceipt> group(9);
    for (size_t i = 0; i < group.size(); ++i) {
      group[i].name = StrFormat("f%zu.dat", i);
      group[i].staged_path = StrFormat("/stage/f%zu.dat", i);
      group[i].feeds = {i % 2 == 0 ? "EVEN" : "ODD"};
      group[i].arrival_time = 100 + static_cast<TimePoint>(i);
    }
    ASSERT_TRUE(db->RecordArrivalGroup(&group).ok());
    ASSERT_TRUE(db->RecordDeliveryGroup(
                      {{"alpha", 1, 150}, {"alpha", 3, 150}, {"beta", 2, 150}})
                    .ok());
    ASSERT_TRUE(db->RecordDeliveryGroup({{"gamma", 5, 160}}).ok());
  };
  workload(one->get());
  workload(four->get());

  // Crash-restart both stores, then demand identical recovered queues.
  one->reset();
  four->reset();
  one = ReceiptDatabase::Open(&fs, "/r1", KvStore::Options(), 1);
  four = ReceiptDatabase::Open(&fs, "/r4", KvStore::Options(), 4);
  ASSERT_TRUE(one.ok() && four.ok());

  EXPECT_EQ((*one)->ArrivalCount(), (*four)->ArrivalCount());
  EXPECT_EQ((*one)->FilesInFeed("EVEN"), (*four)->FilesInFeed("EVEN"));
  EXPECT_EQ((*one)->FilesInFeed("ODD"), (*four)->FilesInFeed("ODD"));
  for (const char* sub : {"alpha", "beta", "gamma", "newcomer"}) {
    auto q1 = (*one)->ComputeDeliveryQueue(sub, {"EVEN", "ODD"});
    auto q4 = (*four)->ComputeDeliveryQueue(sub, {"EVEN", "ODD"});
    ASSERT_EQ(q1.size(), q4.size()) << sub;
    for (size_t i = 0; i < q1.size(); ++i) {
      EXPECT_EQ(q1[i].file_id, q4[i].file_id) << sub;
      EXPECT_EQ(q1[i].name, q4[i].name) << sub;
    }
  }
}

TEST(ShardedReceiptsTest, TornShardTailLosesOnlyThatShardsSuffix) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok());
  // Four group commits of two receipts each: ids 1..8, shard = id % 4.
  for (int g = 0; g < 4; ++g) {
    std::vector<ArrivalReceipt> group(2);
    for (int i = 0; i < 2; ++i) {
      group[i].name = StrFormat("g%d_%d.dat", g, i);
      group[i].staged_path = "/stage/" + group[i].name;
      group[i].feeds = {"FED"};
      group[i].arrival_time = 100 + g;
    }
    ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
  }
  db->reset();

  // Crash mid-append in shard 2: its WAL loses the trailing record (the
  // group that carried id 6); every other shard's rows are untouched.
  std::string wal = *fs.ReadFile("/receipts/shard-002/wal.log");
  ASSERT_TRUE(fs.WriteFile("/receipts/shard-002/wal.log",
                           std::string_view(wal).substr(0, wal.size() - 3))
                  .ok());

  db = ReceiptDatabase::Open(&fs, "/receipts", KvStore::Options(), 4);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->ArrivalCount(), 7u);
  EXPECT_FALSE((*db)->GetArrival(6).ok());
  for (FileId id : {1, 2, 3, 4, 5, 7, 8}) {
    EXPECT_TRUE((*db)->GetArrival(id).ok()) << "id " << id;
  }
  // The sequence lives in shard 0 and committed first: the torn group
  // burned id 6 but a new arrival can never reuse it.
  std::vector<ArrivalReceipt> next(1);
  next[0].name = "after.dat";
  next[0].feeds = {"FED"};
  ASSERT_TRUE((*db)->RecordArrivalGroup(&next).ok());
  EXPECT_GE(next[0].file_id, 9u);
}

// ------------------------------------------------------- admin console

TEST_F(FanoutServerTest, SubscriptionsCommandRendersGroups) {
  members_["a3"]->SetFailing(true);
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=1").ok());
  loop_->RunUntilIdle();

  std::string out = ExecuteAdminCommand(server_.get(), "subscriptions",
                                        nullptr, groups_.get());
  EXPECT_NE(out.find("individual subscribers: 1"), std::string::npos) << out;
  EXPECT_NE(out.find("analytics"), std::string::npos) << out;
  EXPECT_NE(out.find("3 member(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("stragglers 1 (owed 1)"), std::string::npos) << out;
  EXPECT_NE(out.find("[STRAGGLER, owes 1]"), std::string::npos) << out;

  std::string status =
      ExecuteAdminCommand(server_.get(), "status", nullptr, groups_.get());
  EXPECT_NE(
      status.find("groups: 1 group(s) covering 3 member(s), 1 straggler(s)"),
      std::string::npos)
      << status;
  std::string help = ExecuteAdminCommand(server_.get(), "help");
  EXPECT_NE(help.find("subscriptions"), std::string::npos);
}

// -------------------------------------------------- multi-hop cascade

// A -> M (a pass-through Bistro server, the paper's Fig. 1 relay) -> B
// (federated ingest) -> leaf sink. M's children are its subscribers: a
// local sink c1 that is up, and B, which is dark when the file arrives.
// The origin still gets its receipt, M crashes and reopens from its
// receipts, and once B comes up the file lands exactly once everywhere:
// the replay resends only to the child M still owes.
TEST(CascadeTest, RelayMiddleHopSurvivesDownstreamOutageAndCrash) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kError);

  auto open = [&](const std::string& root, const char* text) {
    auto config = ParseConfig(text);
    EXPECT_TRUE(config.ok()) << config.status();
    BistroServer::Options opts;
    opts.landing_root = root + "/landing";
    opts.staging_root = root + "/staging";
    opts.db_dir = root + "/db";
    auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                       &invoker, &logger);
    EXPECT_TRUE(server.ok()) << server.status();
    return server.ok() ? std::move(*server) : nullptr;
  };
  constexpr char kUpstream[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; }
subscriber hop { feeds FED; method push; host "relayB"; }
)";
  constexpr char kRelay[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; }
subscriber c1 { feeds FED; method push; }
subscriber bsrv { feeds FED; method push; }
)";
  constexpr char kDownstream[] = R"(
feed FED { pattern "fed_%i_%Y%m%d%H%M.dat"; }
subscriber leaf { feeds FED; method push; }
)";

  std::unique_ptr<BistroServer> server_a = open("/a", kUpstream);
  std::unique_ptr<BistroServer> server_m = open("/m", kRelay);
  std::unique_ptr<BistroServer> server_b = open("/b", kDownstream);
  ASSERT_TRUE(server_a && server_m && server_b);
  auto inbound_m = std::make_unique<FederationInbound>(server_m.get(), &logger);
  transport.Register("relayB", inbound_m.get());
  FederationInbound inbound_b(server_b.get(), &logger);
  FileSinkEndpoint c1(&fs, "/c1");
  FileSinkEndpoint leaf(&fs, "/leaf");
  transport.Register("c1", &c1);
  transport.Register("leaf", &leaf);
  // NOTE: "bsrv" (B's federation inbound) is NOT registered yet — the
  // downstream hop is dark when the file arrives.

  ASSERT_TRUE(
      server_a->Deposit("src", "fed_1_201009250400.dat", "payload").ok());
  loop.RunFor(10 * kSecond);
  // A considers the file delivered (M acked after its arrival receipt),
  // and M's local child has it...
  EXPECT_TRUE(server_a->receipts()->Delivered("hop", 1));
  EXPECT_EQ(c1.files_received(), 1u);
  // ...but nothing reached B yet; M still owes that child.
  EXPECT_EQ(server_b->receipts()->ArrivalCount(), 0u);
  EXPECT_FALSE(server_m->receipts()->Delivered("bsrv", 1));

  // M crashes mid-outage and reopens from the same filesystem.
  transport.Unregister("relayB");
  inbound_m.reset();
  server_m.reset();
  server_m = open("/m", kRelay);
  ASSERT_NE(server_m, nullptr);
  inbound_m = std::make_unique<FederationInbound>(server_m.get(), &logger);
  transport.Register("relayB", inbound_m.get());
  EXPECT_EQ(server_m->receipts()->ArrivalCount(), 1u);

  // B comes up and M's delivery retry reaches it.
  transport.Register("bsrv", &inbound_b);
  loop.RunFor(5 * kMinute);
  loop.RunUntilIdle();
  EXPECT_TRUE(server_a->receipts()->Delivered("hop", 1));
  EXPECT_TRUE(server_m->receipts()->Delivered("bsrv", 1));
  EXPECT_EQ(server_b->receipts()->ArrivalCount(), 1u);
  EXPECT_EQ(inbound_b.files_ingested(), 1u);
  EXPECT_EQ(inbound_b.duplicates_absorbed(), 0u);
  EXPECT_EQ(leaf.files_received(), 1u);
  // The durable receipts excluded c1 from the replay.
  EXPECT_EQ(c1.files_received(), 1u);
  EXPECT_EQ(c1.duplicates(), 0u);
  for (const char* at : {"/leaf/FED/fed_1_201009250400.dat",
                         "/c1/FED/fed_1_201009250400.dat"}) {
    auto got = fs.ReadFile(at);
    ASSERT_TRUE(got.ok()) << at << ": " << got.status();
    EXPECT_EQ(*got, "payload") << at;
  }
}

}  // namespace
}  // namespace fanout
}  // namespace bistro
