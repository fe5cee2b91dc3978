// Tests for the extension modules: the mini streaming warehouse (the
// paper's motivating subscriber), the Max-Benefit scheduling policy, and
// atomic-feed group suggestion (the paper's §5.1 future work).

#include <gtest/gtest.h>

#include "analyzer/grouping.h"
#include "common/strings.h"
#include "compress/codec.h"
#include "config/parser.h"
#include "core/server.h"
#include "sched/policy.h"
#include "vfs/memfs.h"
#include "warehouse/warehouse.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- Warehouse

Message FileFor(TimePoint data_time, const std::string& name,
                std::string rows) {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.name = name;
  msg.payload = std::move(rows);
  msg.data_time = data_time;
  return msg;
}

TEST(WarehouseTest, AggregatesRowsPerPartition) {
  StreamWarehouse wh(5 * kMinute);
  TimePoint t0 = FromCivil(CivilTime{2010, 9, 25, 4, 0, 0});
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0, "a", "router_a,cpu,10\nrouter_b,cpu,20\n")).ok());
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0 + kMinute, "b", "router_a,cpu,5\n")).ok());
  EXPECT_EQ(wh.dirty_count(), 1u);  // same partition
  EXPECT_EQ(wh.RecomputeDirty(), 1u);
  auto view = wh.View(t0 + 2 * kMinute);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->raw_files, 2u);
  EXPECT_EQ(view->rows, 3u);
  EXPECT_EQ(view->by_entity.at("router_a").first, 2u);
  EXPECT_DOUBLE_EQ(view->by_entity.at("router_a").second, 15.0);
  EXPECT_DOUBLE_EQ(view->by_entity.at("router_b").second, 20.0);
  // Uncomputed partitions report NotFound.
  EXPECT_TRUE(wh.View(t0 + kHour).status().IsNotFound());
}

TEST(WarehouseTest, PartitionBoundaries) {
  StreamWarehouse wh(5 * kMinute);
  TimePoint t0 = FromCivil(CivilTime{2010, 9, 25, 4, 0, 0});
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0 + 4 * kMinute, "a", "x,1\n")).ok());
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0 + 5 * kMinute, "b", "x,2\n")).ok());
  EXPECT_EQ(wh.dirty_count(), 2u);
  EXPECT_EQ(wh.RecomputeDirty(), 2u);
  EXPECT_DOUBLE_EQ(wh.View(t0)->by_entity.at("x").second, 1.0);
  EXPECT_DOUBLE_EQ(wh.View(t0 + 5 * kMinute)->by_entity.at("x").second, 2.0);
  EXPECT_EQ(wh.PartitionStart(t0 + 4 * kMinute), t0);
}

TEST(WarehouseTest, LateFileRecomputesOnlyItsPartition) {
  StreamWarehouse wh(5 * kMinute);
  TimePoint t0 = 0;
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0, "a", "x,1\n")).ok());
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0 + 10 * kMinute, "b", "x,2\n")).ok());
  EXPECT_EQ(wh.RecomputeDirty(), 2u);
  // A straggler for the old partition arrives (§2.2: out-of-order files).
  ASSERT_TRUE(wh.HandleMessage(FileFor(t0 + kMinute, "late", "x,7\n")).ok());
  EXPECT_EQ(wh.dirty_count(), 1u);
  EXPECT_EQ(wh.RecomputeDirty(), 1u);
  EXPECT_DOUBLE_EQ(wh.View(t0)->by_entity.at("x").second, 8.0);
  EXPECT_EQ(wh.View(t0)->recomputes, 2u);
  EXPECT_EQ(wh.View(t0 + 10 * kMinute)->recomputes, 1u);
}

TEST(WarehouseTest, ExpandsCompressedPayloadsAndSkipsBadRows) {
  StreamWarehouse wh;
  std::string rows = "router_a,cpu,42\ngarbage line\n,\n";
  std::string compressed = GetCodec(CodecKind::kLz)->Compress(rows);
  ASSERT_TRUE(wh.HandleMessage(FileFor(0, "c", compressed)).ok());
  wh.RecomputeDirty();
  auto view = wh.View(0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->rows, 1u);
  EXPECT_EQ(view->bad_rows, 2u);
}

TEST(WarehouseTest, BatchTriggerRecomputesOncePerBatch) {
  // The §2.3 argument, end to end: per-file triggers recompute the same
  // partition once per file; a count-batch trigger once per batch.
  for (bool batch : {false, true}) {
    SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
    EventLoop loop(&clock);
    InMemoryFileSystem fs;
    SimTransport transport(&loop);
    CallbackInvoker invoker;
    Logger logger(&clock);
    logger.SetMinLevel(LogLevel::kAlarm);
    std::string config_text = StrFormat(R"(
feed CPU { pattern "CPU_POLL%%i_%%Y%%m%%d%%H%%M.txt"; }
subscriber wh { feeds CPU; method push; trigger %s exec "recompute"; }
)", batch ? "batch count 4 timeout 2m" : "file");
    auto config = ParseConfig(config_text);
    ASSERT_TRUE(config.ok()) << config.status();
    StreamWarehouse warehouse(5 * kMinute);
    transport.Register("wh", &warehouse);
    invoker.Register("recompute", [&](const BatchEvent&) {
      warehouse.RecomputeDirty();
      return Status::OK();
    });
    auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                       &transport, &loop, &invoker, &logger);
    ASSERT_TRUE(server.ok());
    for (int p = 1; p <= 4; ++p) {
      ASSERT_TRUE(
          (*server)
              ->Deposit("src", StrFormat("CPU_POLL%d_201009250400.txt", p),
                        StrFormat("router_%d,cpu,%d\n", p, p * 10))
              .ok());
    }
    loop.RunUntil(clock.Now() + kSecond);
    auto view = warehouse.View(FromCivil(CivilTime{2010, 9, 25, 4, 0, 0}));
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->raw_files, 4u);
    EXPECT_EQ(view->rows, 4u);
    if (batch) {
      EXPECT_EQ(warehouse.total_recomputes(), 1u) << "batch mode";
    } else {
      EXPECT_EQ(warehouse.total_recomputes(), 4u) << "per-file mode";
    }
  }
}

// ---------------------------------------------------------------- MaxBenefit

TEST(MaxBenefitPolicyTest, PrefersSmallTransfersThenDeadline) {
  auto p = MakePolicy(PolicyKind::kMaxBenefit);
  TransferJob big;
  big.file_id = 1;
  big.size = 1000000;
  big.deadline = 10;
  TransferJob small_late;
  small_late.file_id = 2;
  small_late.size = 100;
  small_late.deadline = 500;
  TransferJob small_urgent;
  small_urgent.file_id = 3;
  small_urgent.size = 100;
  small_urgent.deadline = 50;
  p->Add(big);
  p->Add(small_late);
  p->Add(small_urgent);
  EXPECT_EQ(p->Next()->file_id, 3u);  // smallest + earliest deadline
  EXPECT_EQ(p->Next()->file_id, 2u);
  EXPECT_EQ(p->Next()->file_id, 1u);
  EXPECT_FALSE(p->Next().has_value());
}

TEST(MaxBenefitPolicyTest, NameRoundTripAndNextForFile) {
  auto parsed = PolicyKindFromName("maxbenefit");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, PolicyKind::kMaxBenefit);
  EXPECT_EQ(PolicyKindName(PolicyKind::kMaxBenefit), "maxbenefit");
  auto p = MakePolicy(PolicyKind::kMaxBenefit);
  TransferJob a;
  a.file_id = 7;
  a.size = 10;
  p->Add(a);
  EXPECT_TRUE(p->NextForFile(7).has_value());
  EXPECT_FALSE(p->NextForFile(7).has_value());
}

// ---------------------------------------------------------------- Grouping

TEST(GroupingTest, GroupsByStemWithCohesion) {
  std::vector<AtomicFeed> feeds;
  for (const char* pattern :
       {"CPU_POLL%i_%Y%m%d%H%M.txt", "CPU_UTIL%i_%Y%m%d%H%M.txt",
        "MEMORY_POLL%i_%Y%m%d%H%M.txt", "MEMORY_FREE%i_%Y%m%d%H%M.txt",
        "unrelated_%s.pdf"}) {
    AtomicFeed f;
    f.pattern = pattern;
    feeds.push_back(f);
  }
  auto groups = SuggestFeedGroups(feeds);
  ASSERT_EQ(groups.size(), 2u);
  std::set<std::string> names{groups[0].name, groups[1].name};
  EXPECT_TRUE(names.count("CPU"));
  EXPECT_TRUE(names.count("MEMORY"));
  for (const auto& g : groups) {
    EXPECT_EQ(g.member_patterns.size(), 2u);
    EXPECT_GT(g.cohesion, 0.4);
  }
}

TEST(GroupingTest, SingletonsAndEmptyStemsExcluded) {
  std::vector<AtomicFeed> feeds;
  AtomicFeed lone;
  lone.pattern = "LONELY_%i.dat";
  feeds.push_back(lone);
  AtomicFeed no_stem;
  no_stem.pattern = "%s.dat";
  feeds.push_back(no_stem);
  EXPECT_TRUE(SuggestFeedGroups(feeds).empty());
}

TEST(GroupingTest, LowCohesionStemCollisionFiltered) {
  // Same stem, totally different structure: should not group under a
  // strict cohesion bar.
  std::vector<AtomicFeed> feeds;
  AtomicFeed a;
  a.pattern = "X%i_%Y%m%d%H%M%S_%s_%s_%s.tar";
  AtomicFeed b;
  b.pattern = "X.log";
  feeds.push_back(a);
  feeds.push_back(b);
  GroupingOptions strict;
  strict.min_cohesion = 0.9;
  EXPECT_TRUE(SuggestFeedGroups(feeds, strict).empty());
}

}  // namespace
}  // namespace bistro
