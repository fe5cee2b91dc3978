// Tests for the feed-evolution loop (paper §2.1.3 + §5.2): multi-pattern
// feeds, analyzer-suggested revisions flowing back into the server, and
// the hybrid push-pull retrieval path.

#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ----------------------------------------------------- multi-pattern feeds

TEST(MultiPatternTest, ParserTreatsRepeatedPatternsAsAlternates) {
  auto config = ParseConfig(R"(
feed MEMORY {
  pattern "MEMORY_poller%i_%Y%m%d.gz";
  pattern "MEMORY_Poller%i_%Y%m%d.gz";
  pattern "%Y/%m/%d/MEMORY_poller%i.bz2";
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const FeedSpec& feed = config->feeds[0];
  EXPECT_EQ(feed.pattern, "MEMORY_poller%i_%Y%m%d.gz");
  ASSERT_EQ(feed.alt_patterns.size(), 2u);
  EXPECT_EQ(feed.alt_patterns[0], "MEMORY_Poller%i_%Y%m%d.gz");
}

TEST(MultiPatternTest, FormatConfigRoundTripsAlternates) {
  auto config = ParseConfig(R"(
feed F { pattern "a_%i"; pattern "b_%i"; pattern "c_%i"; }
subscriber s { feeds F; }
)");
  ASSERT_TRUE(config.ok());
  auto reparsed = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, *config);
}

TEST(MultiPatternTest, ClassifierMatchesAllPatternsOfAFeed) {
  auto config = ParseConfig(R"(
feed MEMORY {
  pattern "MEMORY_poller%i_%Y%m%d.gz";
  pattern "MEMORY_Poller%i_%Y%m%d.gz";
}
)");
  ASSERT_TRUE(config.ok());
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok());
  FeedClassifier classifier(registry->get());
  auto old_style = classifier.Classify("MEMORY_poller1_20100925.gz");
  auto new_style = classifier.Classify("MEMORY_Poller1_20100926.gz");
  ASSERT_TRUE(old_style.matched());
  ASSERT_TRUE(new_style.matched());
  // One feed, listed once, with fields extracted from whichever
  // pattern matched — the same answer as the linear oracle.
  EXPECT_EQ(old_style.feeds, std::vector<FeedName>{"MEMORY"});
  EXPECT_EQ(new_style.feeds, std::vector<FeedName>{"MEMORY"});
  EXPECT_EQ(new_style.primary_match.ints[0], 1);
  EXPECT_EQ(*new_style.primary_match.timestamp,
            FromCivil(CivilTime{2010, 9, 26}));
  auto oracle = ClassifyLinear(**registry, "MEMORY_Poller1_20100926.gz");
  EXPECT_EQ(new_style.feeds, oracle.feeds);
  EXPECT_EQ(new_style.primary_match.timestamp, oracle.primary_match.timestamp);
}

TEST(MultiPatternTest, RegisteredFeedMatchTriesAlternates) {
  auto config = ParseConfig(R"(
feed F { pattern "old_%i.log"; pattern "new_%i.log"; }
)");
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok());
  const RegisteredFeed* feed = (*registry)->FindFeed("F");
  EXPECT_TRUE(feed->Match("old_1.log").has_value());
  EXPECT_TRUE(feed->Match("new_2.log").has_value());
  EXPECT_FALSE(feed->Match("other_3.log").has_value());
}

TEST(MultiPatternTest, BadAlternateRejectedAtRegistryBuild) {
  ServerConfig config;
  FeedSpec feed;
  feed.name = "F";
  feed.pattern = "ok_%i";
  feed.alt_patterns = {"bad_%q"};
  config.feeds.push_back(feed);
  EXPECT_FALSE(FeedRegistry::Create(config).ok());
}

// --------------------------------------------- the full suggestion loop

TEST(EvolutionLoopTest, AnalyzerSuggestionHealsFalseNegatives) {
  // 1. Server with the original MEMORY definition.
  SimClock clock(FromCivil(CivilTime{2010, 9, 26}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; }
subscriber warehouse { feeds MEMORY; method push; }
)");
  ASSERT_TRUE(config.ok());
  FileSinkEndpoint warehouse(&fs, "/warehouse");
  transport.Register("warehouse", &warehouse);
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok());

  // 2. The source's software update capitalizes "Poller": files stop
  //    matching.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        (*server)
            ->Deposit("src", StrFormat("MEMORY_Poller%d_20100926.gz", i), "x")
            .ok());
  }
  loop.RunUntil(clock.Now() + kSecond);
  EXPECT_EQ((*server)->stats().files_unmatched, 3u);
  EXPECT_EQ(warehouse.files_received(), 0u);

  // 3. The analyzer inspects the unmatched stream and produces a
  //    suggestion...
  FeedAnalyzer analyzer((*server)->registry(), &logger);
  std::vector<FileObservation> unmatched = (*server)->DrainUnmatched();
  auto reports = analyzer.DetectFalseNegatives(unmatched);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].feed, "MEMORY");
  ASSERT_EQ(reports[0].suggested_spec.alt_patterns.size(), 1u);

  // 4. ...which the subscribers approve and the administrator applies.
  ASSERT_TRUE((*server)->ReviseFeed(reports[0].suggested_spec).ok());

  // 5. New files under the new convention now classify and deliver; the
  //    old convention still works too (alternates never break old files).
  ASSERT_TRUE(
      (*server)->Deposit("src", "MEMORY_Poller4_20100926.gz", "new").ok());
  ASSERT_TRUE(
      (*server)->Deposit("src", "MEMORY_poller5_20100926.gz", "old").ok());
  loop.RunUntil(clock.Now() + kSecond);
  EXPECT_EQ(warehouse.files_received(), 2u);
  EXPECT_EQ((*server)->stats().files_unmatched, 3u);  // unchanged
}

// --------------------------------------------------- hybrid push-pull

TEST(HybridPullTest, NotifiedSubscriberRetrievesBytes) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber puller { feeds CPU; method notify; }
)");
  ASSERT_TRUE(config.ok());
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint puller(&sub_fs, "/pulled");
  transport.Register("puller", &puller);
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok());

  // The subscriber's hook pulls content when notified — at its own pace.
  std::vector<FileId> notified;
  puller.SetMessageHook([&](const Message& msg) {
    if (msg.type == MessageType::kFileNotify) notified.push_back(msg.file_id);
  });
  ASSERT_TRUE(
      (*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "payload").ok());
  loop.RunUntil(clock.Now() + kSecond);
  ASSERT_EQ(notified.size(), 1u);

  auto content = (*server)->Retrieve(notified[0]);
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(*content, "payload");

  // After the window expires, retrieval reports NotFound.
  EXPECT_TRUE((*server)->Retrieve(999).status().IsNotFound());
}

TEST(HybridPullTest, RetrieveFailsAfterExpiry) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method notify; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/x");
  transport.Register("s", &sink);
  BistroServer::Options opts;
  opts.history_window = kHour;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  loop.RunUntil(clock.Now() + kSecond);
  EXPECT_TRUE((*server)->Retrieve(1).ok());
  clock.Advance(2 * kHour);
  (*server)->RunMaintenance();
  EXPECT_TRUE((*server)->Retrieve(1).status().IsNotFound());
}

}  // namespace
}  // namespace bistro
