// Focused tests for delivery-layer pieces not already covered by the
// server integration suite: the feed monitor, poller-fleet source model,
// archiver nodes and receipt-state disaster recovery.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/monitor.h"
#include "delivery/archiver.h"
#include "kv/receipts.h"
#include "pattern/pattern.h"
#include "sim/sources.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- Monitor

TEST(MonitorTest, LearnsPeriodAndFlagsStalls) {
  Logger logger;
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  FeedMonitor monitor(&logger, /*stall_factor=*/3.0);
  TimePoint t = 0;
  for (int i = 0; i < 10; ++i) {
    monitor.OnArrival("SNMP.CPU", 100, t);
    t += 5 * kMinute;
  }
  FeedProgress p = monitor.Progress("SNMP.CPU");
  EXPECT_EQ(p.files, 10u);
  EXPECT_EQ(p.bytes, 1000u);
  EXPECT_NEAR(static_cast<double>(p.est_period), 5.0 * kMinute,
              0.01 * kMinute);
  EXPECT_FALSE(p.stalled);

  // Quiet for 2 periods: not yet stalled. 4 periods: alarm.
  EXPECT_TRUE(monitor.CheckStalls(t + 5 * kMinute).empty());
  auto stalled = monitor.CheckStalls(t + 15 * kMinute);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "SNMP.CPU");
  EXPECT_EQ(sink->CountAtLeast(LogLevel::kAlarm), 1u);
  // Alarm fires once per stall episode, not per check.
  EXPECT_TRUE(monitor.CheckStalls(t + 30 * kMinute).empty());
  EXPECT_EQ(sink->CountAtLeast(LogLevel::kAlarm), 1u);
}

TEST(MonitorTest, ResumeAfterStallClearsFlagAndLogs) {
  Logger logger;
  FeedMonitor monitor(&logger);
  TimePoint t = 0;
  for (int i = 0; i < 5; ++i) {
    monitor.OnArrival("F", 10, t);
    t += kMinute;
  }
  monitor.CheckStalls(t + 10 * kMinute);
  EXPECT_TRUE(monitor.Progress("F").stalled);
  monitor.OnArrival("F", 10, t + 11 * kMinute);
  EXPECT_FALSE(monitor.Progress("F").stalled);
}

TEST(MonitorTest, UnknownFeedHasEmptyProgress) {
  Logger logger;
  FeedMonitor monitor(&logger);
  FeedProgress p = monitor.Progress("NOPE");
  EXPECT_EQ(p.files, 0u);
  EXPECT_TRUE(monitor.AllProgress().empty());
}

TEST(MonitorTest, SingleArrivalNeverStalls) {
  // One file gives no period estimate; the monitor must not alarm.
  Logger logger;
  FeedMonitor monitor(&logger);
  monitor.OnArrival("F", 10, 0);
  EXPECT_TRUE(monitor.CheckStalls(100 * kDay).empty());
}

// ---------------------------------------------------------------- Sources

TEST(PollerFleetTest, GeneratesExpectedFilesAndNames) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  PollerFleet::Options opts;
  opts.metric = "CPU";
  opts.num_pollers = 3;
  opts.period = 5 * kMinute;
  opts.max_delay = 0;
  opts.file_size = 100;
  std::vector<std::pair<std::string, std::string>> deposits;
  PollerFleet fleet(&loop, &rng, opts,
                    [&](const std::string& source, const std::string& name,
                        std::string content) {
                      deposits.emplace_back(source, name);
                      EXPECT_EQ(content.size(), 100u);
                    });
  TimePoint start = FromCivil(CivilTime{2010, 9, 25, 4, 0, 0});
  fleet.ScheduleInterval(start, start + 15 * kMinute);
  loop.RunUntilIdle();
  ASSERT_EQ(deposits.size(), 9u);  // 3 pollers x 3 intervals
  EXPECT_EQ(fleet.files_generated(), 9u);
  EXPECT_EQ(deposits[0].second, "CPU_POLL1_201009250400.txt");
  EXPECT_EQ(fleet.FileName(2, start + 5 * kMinute), "CPU_POLL2_201009250405.txt");
}

TEST(PollerFleetTest, DropoutSkipsFiles) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(7);
  PollerFleet::Options opts;
  opts.num_pollers = 4;
  opts.period = kMinute;
  opts.dropout_prob = 0.5;
  int count = 0;
  PollerFleet fleet(&loop, &rng, opts,
                    [&](const std::string&, const std::string&, std::string) {
                      ++count;
                    });
  fleet.ScheduleInterval(0, 100 * kMinute);
  loop.RunUntilIdle();
  EXPECT_GT(fleet.files_dropped(), 100u);
  EXPECT_EQ(static_cast<uint64_t>(count), fleet.files_generated());
  EXPECT_NEAR(count, 200, 60);  // ~50% of 400
}

TEST(PollerFleetTest, FleetGrowth) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(3);
  PollerFleet::Options opts;
  opts.num_pollers = 2;
  opts.period = kMinute;
  opts.max_delay = 0;
  opts.growth_every = 5;
  PollerFleet fleet(&loop, &rng, opts,
                    [](const std::string&, const std::string&, std::string) {});
  fleet.ScheduleInterval(0, 20 * kMinute);
  loop.RunUntilIdle();
  // Grew at intervals 5, 10, 15.
  EXPECT_EQ(fleet.current_pollers(), 5);
  EXPECT_EQ(fleet.files_generated(), 2u * 5 + 3 * 5 + 4 * 5 + 5 * 5);
}

TEST(PollerFleetTest, PunctuationAfterEachInterval) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(3);
  PollerFleet::Options opts;
  opts.num_pollers = 2;
  opts.period = kMinute;
  opts.punctuate = true;
  std::vector<TimePoint> marks;
  PollerFleet fleet(&loop, &rng, opts,
                    [](const std::string&, const std::string&, std::string) {},
                    [&](TimePoint t) { marks.push_back(t); });
  fleet.ScheduleInterval(0, 3 * kMinute);
  loop.RunUntilIdle();
  EXPECT_EQ(marks, (std::vector<TimePoint>{0, kMinute, 2 * kMinute}));
}

TEST(CorpusGeneratorTest, TruthPatternsMatchGeneratedNames) {
  Rng rng(5);
  CorpusGenerator gen(&rng);
  std::vector<CorpusGenerator::FeedTemplate> templates(3);
  templates[0].metric = "AAA";
  templates[0].style = CorpusGenerator::FeedTemplate::Style::kWideStamp;
  templates[1].metric = "BBB";
  templates[1].style = CorpusGenerator::FeedTemplate::Style::kSplitStamp;
  templates[2].metric = "CCC";
  templates[2].style = CorpusGenerator::FeedTemplate::Style::kSeparatedDate;
  auto corpus = gen.Generate(templates, 0, FromCivil(CivilTime{2010, 1, 1}));
  std::vector<Pattern> truth;
  for (const auto& t : templates) {
    auto p = Pattern::Compile(CorpusGenerator::TruthPattern(t));
    ASSERT_TRUE(p.ok());
    truth.push_back(std::move(*p));
  }
  for (const auto& l : corpus) {
    ASSERT_GE(l.truth, 0);
    EXPECT_TRUE(truth[l.truth].Matches(l.obs.name)) << l.obs.name;
  }
}

// ---------------------------------------------------------------- Archiver

TEST(ArchiverTest, StoresFilesInDatedDirectories) {
  InMemoryFileSystem fs;
  ArchiverEndpoint archiver(&fs, "/archive");
  Message msg;
  msg.type = MessageType::kFileData;
  msg.name = "CPU_POLL1_201009250400.txt";
  msg.payload = "data";
  msg.data_time = FromCivil(CivilTime{2010, 9, 25, 4, 0, 0});
  ASSERT_TRUE(archiver.HandleMessage(msg).ok());
  EXPECT_EQ(*fs.ReadFile("/archive/2010/09/25/CPU_POLL1_201009250400.txt"),
            "data");
  EXPECT_EQ(archiver.files_archived(), 1u);
  EXPECT_EQ(archiver.bytes_archived(), 4u);
  // No data_time: flat storage.
  msg.data_time = 0;
  msg.name = "static.cfg";
  ASSERT_TRUE(archiver.HandleMessage(msg).ok());
  EXPECT_TRUE(fs.Exists("/archive/static.cfg"));
  // Non-file messages are ignored without error.
  Message hb;
  hb.type = MessageType::kHeartbeat;
  ASSERT_TRUE(archiver.HandleMessage(hb).ok());
  EXPECT_EQ(archiver.files_archived(), 2u);
}

TEST(ArchiverTest, ReceiptStateShipAndRestore) {
  InMemoryFileSystem fs;
  // Build a receipt database with some state.
  {
    auto db = ReceiptDatabase::Open(&fs, "/db");
    ASSERT_TRUE(db.ok());
    for (FileId id = 1; id <= 20; ++id) {
      std::vector<ArrivalReceipt> group(1);
      group[0].name = StrFormat("f%02llu.csv", (unsigned long long)id);
      group[0].feeds = {"F"};
      group[0].arrival_time = static_cast<TimePoint>(id);
      ASSERT_TRUE((*db)->RecordArrivalGroup(&group).ok());
      ASSERT_EQ(group[0].file_id, id);
    }
    ASSERT_TRUE((*db)->RecordDeliveryGroup({{"sub", 1, 100}}).ok());
  }
  ArchiverEndpoint archiver(&fs, "/archive");
  auto shipped = ShipReceiptState(&fs, "/db", &archiver, "snap1");
  ASSERT_TRUE(shipped.ok());
  EXPECT_GT(*shipped, 0u);
  EXPECT_EQ(archiver.receipt_snapshots(), 1u);

  // Catastrophic loss of the server's database...
  InMemoryFileSystem fresh;
  ASSERT_TRUE(
      RestoreReceiptState(&fs, archiver, "snap1", &fresh, "/db").ok());
  auto db = ReceiptDatabase::Open(&fresh, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ArrivalCount(), 20u);
  EXPECT_TRUE((*db)->Delivered("sub", 1));
  EXPECT_FALSE((*db)->Delivered("sub", 2));
  // The restored DB keeps working: delivery queues are computable.
  EXPECT_EQ((*db)->ComputeDeliveryQueue("sub", {"F"}).size(), 19u);
}

TEST(ArchiverTest, RestoreMissingSnapshotFails) {
  InMemoryFileSystem fs;
  ArchiverEndpoint archiver(&fs, "/archive");
  InMemoryFileSystem fresh;
  EXPECT_FALSE(
      RestoreReceiptState(&fs, archiver, "missing", &fresh, "/db").ok());
}

}  // namespace
}  // namespace bistro
