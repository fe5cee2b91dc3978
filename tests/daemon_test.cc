// Tests for the analyzer daemon (continuous monitoring), the message
// stream decoder, and the admin status report.

#include <gtest/gtest.h>

#include "analyzer/daemon.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "net/stream.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- Stream

Message FileMsg(FileId id, const std::string& name) {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = id;
  msg.name = name;
  msg.payload = "payload-" + std::to_string(id);
  return msg;
}

TEST(MessageStreamTest, DecodesWholeStream) {
  std::vector<Message> messages = {FileMsg(1, "a"), FileMsg(2, "b"),
                                   FileMsg(3, "c")};
  MessageStreamDecoder decoder;
  ASSERT_TRUE(decoder.Feed(EncodeMessageStream(messages)).ok());
  for (const Message& expected : messages) {
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(MessageStreamTest, DecodesAcrossArbitraryChunkBoundaries) {
  std::vector<Message> messages;
  for (FileId id = 1; id <= 20; ++id) {
    messages.push_back(FileMsg(id, StrFormat("file%02llu.csv",
                                             (unsigned long long)id)));
  }
  std::string wire = EncodeMessageStream(messages);
  for (size_t chunk : {1u, 3u, 7u, 64u, 1000u}) {
    MessageStreamDecoder decoder;
    for (size_t pos = 0; pos < wire.size(); pos += chunk) {
      ASSERT_TRUE(
          decoder.Feed(std::string_view(wire).substr(pos, chunk)).ok());
    }
    size_t count = 0;
    while (auto msg = decoder.Next()) {
      EXPECT_EQ(*msg, messages[count]);
      ++count;
    }
    EXPECT_EQ(count, messages.size()) << "chunk=" << chunk;
  }
}

TEST(MessageStreamTest, CorruptionPoisonsStream) {
  std::string wire = EncodeMessageStream({FileMsg(1, "a"), FileMsg(2, "b")});
  // Flip a byte inside the first frame's body (past its length prefix and
  // CRC header) so the CRC check must catch it.
  wire[8] ^= 0x20;
  MessageStreamDecoder decoder;
  Status s = decoder.Feed(wire);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Further feeds keep failing (sticky error).
  EXPECT_FALSE(decoder.Feed("more").ok());
}

TEST(MessageStreamTest, PartialFrameWaitsForMore) {
  std::string wire = EncodeMessageStream({FileMsg(1, "abc")});
  MessageStreamDecoder decoder;
  ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(0, 3)).ok());
  EXPECT_EQ(decoder.pending(), 0u);
  EXPECT_GT(decoder.buffered_bytes(), 0u);
  ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(3)).ok());
  EXPECT_EQ(decoder.pending(), 1u);
}

// ---------------------------------------------------------------- Daemon

struct DaemonFixture {
  SimClock clock{FromCivil(CivilTime{2010, 9, 26})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  SimTransport transport{&loop};
  CallbackInvoker invoker;
  Logger logger{&clock};
  std::unique_ptr<BistroServer> server;

  explicit DaemonFixture(const char* config_text) {
    logger.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(config_text);
    EXPECT_TRUE(config.ok()) << config.status();
    auto s = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                  &transport, &loop, &invoker, &logger);
    EXPECT_TRUE(s.ok()) << s.status();
    server = std::move(*s);
  }
};

TEST(AnalyzerDaemonTest, PeriodicPassesGenerateSuggestions) {
  DaemonFixture fx(R"(feed KNOWN { pattern "known_%i.dat"; })");
  AnalyzerDaemon::Options opts;
  opts.interval = 10 * kMinute;
  opts.analyzer.discovery.min_support = 3;
  AnalyzerDaemon daemon(fx.server.get(), &fx.loop, &fx.logger, opts);
  daemon.Start();
  // A new, unknown subfeed starts arriving.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.server
                    ->Deposit("src",
                              StrFormat("NEWSTAT_POLL%d_201009260%d00.csv",
                                        1 + i % 2, i),
                              "x")
                    .ok());
  }
  fx.loop.RunUntil(fx.clock.Now() + 11 * kMinute);
  EXPECT_EQ(daemon.passes(), 1u);
  ASSERT_EQ(daemon.new_feed_suggestions().size(), 1u);
  EXPECT_EQ(daemon.new_feed_suggestions()[0].feed.pattern,
            "NEWSTAT_POLL%i_%Y%m%d%H%M.csv");
  // A second pass keeps the accumulated history (reports regenerate).
  fx.loop.RunUntil(fx.clock.Now() + 11 * kMinute);
  EXPECT_EQ(daemon.passes(), 2u);
  EXPECT_EQ(daemon.new_feed_suggestions().size(), 1u);
}

TEST(AnalyzerDaemonTest, SeparatesFalseNegativesFromNewFeeds) {
  DaemonFixture fx(R"(feed MEMORY { pattern "MEMORY_poller%i_%Y%m%d.gz"; })");
  AnalyzerDaemon::Options opts;
  opts.analyzer.discovery.min_support = 3;
  AnalyzerDaemon daemon(fx.server.get(), &fx.loop, &fx.logger, opts);
  // Three case-mutated MEMORY files (false negatives) and four files of
  // a genuinely new feed.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(fx.server
                    ->Deposit("src",
                              StrFormat("MEMORY_Poller%d_20100926.gz", i), "x")
                    .ok());
  }
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(
        fx.server
            ->Deposit("src", StrFormat("GPSFEED_unit%d_20100926.csv", i), "x")
            .ok());
  }
  daemon.RunOnce();
  ASSERT_EQ(daemon.false_negatives().size(), 1u);
  EXPECT_EQ(daemon.false_negatives()[0].feed, "MEMORY");
  // The FN files are NOT also reported as a new feed.
  ASSERT_EQ(daemon.new_feed_suggestions().size(), 1u);
  EXPECT_EQ(daemon.new_feed_suggestions()[0].feed.pattern,
            "GPSFEED_unit%i_%Y%m%d.csv");
}

TEST(AnalyzerDaemonTest, RescannedUnmatchedFilesAreNotDoubleCounted) {
  // Unmatched files stay in the landing zone (quarantined for analysis),
  // so every ScanLandingZone re-observes them. The analyzer corpus must
  // dedupe the replays by FileId or each scan tick would inflate the
  // corpus and the reported file counts.
  DaemonFixture fx(R"(feed KNOWN { pattern "known_%i.dat"; })");
  AnalyzerDaemon::Options opts;
  opts.analyzer.discovery.min_support = 3;
  AnalyzerDaemon daemon(fx.server.get(), &fx.loop, &fx.logger, opts);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        fx.server
            ->Deposit("src", StrFormat("MYSTERY_%d_20100926.csv", i), "x")
            .ok());
  }
  daemon.RunOnce();
  EXPECT_EQ(daemon.corpus_size(), 3u);
  for (int pass = 0; pass < 3; ++pass) {
    auto rescanned = fx.server->ScanLandingZone();
    ASSERT_TRUE(rescanned.ok()) << rescanned.status();
    ASSERT_EQ(*rescanned, 3u);  // the quarantined files really are re-fed
    daemon.RunOnce();
    EXPECT_EQ(daemon.corpus_size(), 3u);
    ASSERT_EQ(daemon.new_feed_suggestions().size(), 1u);
    EXPECT_EQ(daemon.new_feed_suggestions()[0].feed.file_count, 3u);
  }
}

TEST(AnalyzerDaemonTest, FalsePositiveReportsFromMatchedSamples) {
  DaemonFixture fx(R"(feed BROAD { pattern "%s_%Y%m%d.csv"; })");
  AnalyzerDaemon::Options opts;
  opts.analyzer.fp_max_support = 0.2;
  AnalyzerDaemon daemon(fx.server.get(), &fx.loop, &fx.logger, opts);
  for (int i = 0; i < 40; ++i) {
    daemon.ObserveMatched("BROAD", StrFormat("BPS_pollerx_201009%02d.csv",
                                             1 + i % 28),
                          0);
  }
  for (int i = 0; i < 3; ++i) {
    daemon.ObserveMatched("BROAD",
                          StrFormat("FOREIGN_%d_20100926.csv", i), 0);
  }
  daemon.RunOnce();
  ASSERT_EQ(daemon.false_positives().size(), 1u);
  EXPECT_EQ(daemon.false_positives()[0].feed, "BROAD");
  EXPECT_EQ(daemon.false_positives()[0].outlier.file_count, 3u);
}

// ---------------------------------------------------------------- Admin

TEST(StatusReportTest, RendersPipelineAndFeedState) {
  DaemonFixture fx(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; pattern "CPU-POLL%i-%Y%m%d%H%M.txt"; }
subscriber warehouse { feeds CPU; method push; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint warehouse(&sub_fs, "/w");
  fx.transport.Register("warehouse", &warehouse);
  ASSERT_TRUE(
      fx.server->Deposit("p", "CPU_POLL1_201009260400.txt", "x").ok());
  fx.loop.RunUntil(fx.clock.Now() + kSecond);
  std::string report = RenderStatusReport(fx.server.get());
  EXPECT_NE(report.find("received 1"), std::string::npos) << report;
  EXPECT_NE(report.find("CPU"), std::string::npos);
  EXPECT_NE(report.find("(+1 alternates)"), std::string::npos);
  EXPECT_NE(report.find("warehouse"), std::string::npos);
  EXPECT_NE(report.find("online"), std::string::npos);
  // Offline state shows up.
  fx.server->delivery()->SetOffline("warehouse", true);
  report = RenderStatusReport(fx.server.get());
  EXPECT_NE(report.find("OFFLINE"), std::string::npos);
}

}  // namespace
}  // namespace bistro
