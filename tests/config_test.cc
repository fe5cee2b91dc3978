// Tests for the Bistro configuration language and feed registry:
// parsing, error reporting, FormatConfig round-trips, hierarchy expansion
// and subscription resolution.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "config/parser.h"
#include "config/registry.h"

namespace bistro {
namespace {

constexpr char kSnmpConfig[] = R"(
# SNMP measurement feeds (paper Section 3.1 example hierarchy)
group SNMP {
  group CPU {
    feed POLLER1 { pattern "CPU_POLL1_%Y%m%d%H%M.txt"; }
    feed POLLER2 { pattern "CPU_POLL2_%Y%m%d%H%M.txt"; }
  }
  feed BPS {
    pattern "BPS_%s_%Y%m%d%H.csv";
    normalize "%Y/%m/%d/BPS_%s_%H.csv";
    compress lz;
    tardiness 30s;
  }
  feed MEMORY {
    pattern "MEMORY_POLLER%i_%Y%m%d%H_%M.csv";
    decompress;
  }
}

subscriber dallas_warehouse {
  host "dallas.example.com";
  destination "/data/incoming";
  feeds SNMP.CPU, SNMP.BPS;
  method push;
  trigger batch count 3 timeout 5m exec "load_partition.sh";
  window 2d;
}

subscriber atlanta_marketing {
  host "atlanta.example.com";
  feeds SNMP;
  method notify;
  trigger file exec "notify.sh" remote;
}
)";

TEST(ConfigParseTest, ParsesFullExample) {
  auto config = ParseConfig(kSnmpConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->feeds.size(), 4u);
  EXPECT_EQ(config->feeds[0].name, "SNMP.CPU.POLLER1");
  EXPECT_EQ(config->feeds[1].name, "SNMP.CPU.POLLER2");
  EXPECT_EQ(config->feeds[2].name, "SNMP.BPS");
  EXPECT_EQ(config->feeds[3].name, "SNMP.MEMORY");

  const FeedSpec& bps = config->feeds[2];
  EXPECT_EQ(bps.pattern, "BPS_%s_%Y%m%d%H.csv");
  EXPECT_EQ(bps.normalize.rename_template, "%Y/%m/%d/BPS_%s_%H.csv");
  EXPECT_EQ(bps.normalize.action, CompressionAction::kCompress);
  EXPECT_EQ(bps.normalize.codec, CodecKind::kLz);
  EXPECT_EQ(bps.tardiness, 30 * kSecond);
  EXPECT_EQ(config->feeds[3].normalize.action, CompressionAction::kDecompress);
  EXPECT_EQ(config->feeds[0].tardiness, kDefaultTardiness);

  ASSERT_EQ(config->subscribers.size(), 2u);
  const SubscriberSpec& dallas = config->subscribers[0];
  EXPECT_EQ(dallas.name, "dallas_warehouse");
  EXPECT_EQ(dallas.host, "dallas.example.com");
  EXPECT_EQ(dallas.destination, "/data/incoming");
  EXPECT_EQ(dallas.feeds, (std::vector<FeedName>{"SNMP.CPU", "SNMP.BPS"}));
  EXPECT_EQ(dallas.method, DeliveryMethod::kPush);
  EXPECT_EQ(dallas.trigger.batch.mode, BatchSpec::Mode::kCountOrTime);
  EXPECT_EQ(dallas.trigger.batch.count, 3);
  EXPECT_EQ(dallas.trigger.batch.timeout, 5 * kMinute);
  EXPECT_EQ(dallas.trigger.command, "load_partition.sh");
  EXPECT_FALSE(dallas.trigger.remote);
  EXPECT_EQ(dallas.window, 2 * kDay);

  const SubscriberSpec& atlanta = config->subscribers[1];
  EXPECT_EQ(atlanta.method, DeliveryMethod::kNotify);
  EXPECT_EQ(atlanta.trigger.batch.mode, BatchSpec::Mode::kPerFile);
  EXPECT_TRUE(atlanta.trigger.remote);
}

TEST(ConfigParseTest, EmptyConfigIsValid) {
  auto config = ParseConfig("");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->feeds.empty());
  EXPECT_TRUE(config->subscribers.empty());
}

TEST(ConfigParseTest, ErrorsCarryLineNumbers) {
  auto config = ParseConfig("feed F {\n  pattern \"ok_%Y\";\n  bogus 7;\n}");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 3"), std::string::npos)
      << config.status();
}

TEST(ConfigParseTest, ErrorsPointAtTheOffendingToken) {
  auto config = ParseConfig("feed F {\n  pattern \"ok_%Y\";\n  bogus 7;\n}");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().message(),
            "config line 3:3: unknown key 'bogus' in feed F\n"
            "    bogus 7;\n"
            "    ^");
  auto bound = ParseConfig("delivery { window -1; }");
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().message(),
            "config line 1:19: window must be int \u2265 0\n"
            "  delivery { window -1; }\n"
            "                    ^");
  auto missing = ParseConfig("feed F { tardiness 5s; }");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(StartsWith(missing.status().message(),
                         "config line 1:8: feed F has no pattern"))
      << missing.status();
}

// Values the spec struct cannot hold, and negative durations, are refused
// rather than wrapped or silently accepted.
TEST(ConfigParseTest, RejectsValuesOutsideTheirDeclaredRange) {
  EXPECT_FALSE(ParseConfig("ingest { workers 4294967296; }").ok());
  EXPECT_FALSE(ParseConfig("feed F { pattern \"f_%i\"; tardiness -5s; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { probe_interval -1s; }").ok());
  EXPECT_FALSE(ParseConfig("receipts { shards 257; }").ok());
  EXPECT_TRUE(ParseConfig("receipts { shards 256; }").ok());
  // Durations read inside hand-written value syntax are checked too.
  auto timeout =
      ParseConfig("subscriber s { feeds F; trigger batch timeout -5s; }");
  ASSERT_FALSE(timeout.ok());
  EXPECT_TRUE(StartsWith(timeout.status().message(),
                         "config line 1:47: duration must not be negative"))
      << timeout.status();
  // A required key given an empty value is as good as missing.
  EXPECT_FALSE(ParseConfig(R"(feed F { pattern ""; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address ""; })").ok());
}

// List keys accumulate: a second `feeds` line adds to the first rather
// than replacing it, and the merged list round-trips as one line.
TEST(ConfigParseTest, RepeatedListKeysAppend) {
  auto config = ParseConfig(R"(
subscriber s { feeds A; feeds B, C; }
group g { feeds A; members m1; members m2; }
relay r { children c1; children c2; }
peer p { address "h:1"; feeds A; feeds B; }
plan A { route s; route g; enrich provenance; enrich checksum; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  using V = std::vector<std::string>;
  EXPECT_EQ(config->subscribers[0].feeds, (V{"A", "B", "C"}));
  EXPECT_EQ(config->groups[0].members, (V{"m1", "m2"}));
  EXPECT_EQ(config->relays[0].children, (V{"c1", "c2"}));
  EXPECT_EQ(config->peers[0].feeds, (V{"A", "B"}));
  EXPECT_EQ(config->plans[0].route, (V{"s", "g"}));
  EXPECT_EQ(config->plans[0].enrich, (V{"provenance", "checksum"}));
  auto reparsed = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, *config);
}

TEST(ConfigParseTest, RejectsBadPatternAtParseTime) {
  auto config = ParseConfig(R"(feed F { pattern "bad_%q"; })");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigParseTest, RejectsFeedWithoutPattern) {
  EXPECT_FALSE(ParseConfig("feed F { tardiness 5s; }").ok());
}

TEST(ConfigParseTest, RejectsSubscriberWithoutFeeds) {
  EXPECT_FALSE(ParseConfig(R"(subscriber s { host "h"; })").ok());
}

TEST(ConfigParseTest, RejectsUnterminatedConstructs) {
  EXPECT_FALSE(ParseConfig("feed F { pattern \"x\";").ok());
  EXPECT_FALSE(ParseConfig("group G { feed F { pattern \"x\"; }").ok());
  EXPECT_FALSE(ParseConfig(R"(feed F { pattern "unterminated)").ok());
}

TEST(ConfigParseTest, RejectsBatchTriggerWithoutOptions) {
  EXPECT_FALSE(
      ParseConfig(R"(subscriber s { feeds F; trigger batch exec "x"; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(subscriber s { feeds F; trigger batch count -3; })").ok());
}

TEST(ConfigParseTest, PunctuationTrigger) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%Y%m%d"; }
subscriber s { feeds F; trigger punctuation exec "go.sh"; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->subscribers[0].trigger.batch.mode,
            BatchSpec::Mode::kPunctuation);
}

TEST(ConfigParseTest, CommentsAndWhitespaceIgnored)
{
  auto config = ParseConfig("# leading comment\n\n  feed F{pattern \"x_%i\";}#trailing\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->feeds.size(), 1u);
}

TEST(ConfigParseTest, DeliveryTuningBlock) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
delivery {
  retry_backoff_min 2s;
  retry_backoff_max 1m;
  retry_multiplier 2.5;
  retry_jitter off;
  max_attempts 7;
  offline_after 5;
  probe_interval 45s;
  window 8;
  coalesce_bytes 65536;
  cache_bytes 1048576;
  receipt_group 32;
  receipt_flush_interval 250ms;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const DeliveryTuningSpec& d = config->delivery;
  EXPECT_EQ(d.retry_backoff_min, 2 * kSecond);
  EXPECT_EQ(d.retry_backoff_max, kMinute);
  EXPECT_EQ(d.retry_multiplier, 2.5);
  EXPECT_EQ(d.retry_jitter, false);
  EXPECT_EQ(d.max_attempts, 7);
  EXPECT_EQ(d.offline_after, 5);
  EXPECT_EQ(d.probe_interval, 45 * kSecond);
  EXPECT_EQ(d.window, 8);
  EXPECT_EQ(d.coalesce_bytes, 65536);
  EXPECT_EQ(d.cache_bytes, 1048576);
  EXPECT_EQ(d.receipt_group, 32);
  EXPECT_EQ(d.receipt_flush_interval, 250 * kMillisecond);
}

TEST(ConfigParseTest, DeliveryRetryBackoffLegacyKeyIsAlias) {
  // The pre-exponential-backoff key keeps working and sets the floor.
  auto config = ParseConfig("delivery { retry_backoff 9s; }");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->delivery.retry_backoff_min, 9 * kSecond);
}

TEST(ConfigParseTest, DeliveryBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("delivery { retry_multiplier 0.5; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { max_attempts 0; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { retry_jitter maybe; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { window -1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { coalesce_bytes -1; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { cache_bytes -4; }").ok());
  EXPECT_FALSE(ParseConfig("delivery { receipt_group 0; }").ok());
}

TEST(ConfigParseTest, AnalyzerTuningBlock) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
analyzer {
  workers 2;
  max_corpus 50000;
  shards 8;
  cycle_interval 5m;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const AnalyzerTuningSpec& a = config->analyzer;
  EXPECT_EQ(a.workers, 2);
  EXPECT_EQ(a.max_corpus, 50000);
  EXPECT_EQ(a.shards, 8);
  EXPECT_EQ(a.cycle_interval, 5 * kMinute);
  // Unset keys stay unset (the engine keeps its compiled-in defaults).
  auto partial = ParseConfig("analyzer { workers 0; }");
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->analyzer.workers, 0);
  EXPECT_FALSE(partial->analyzer.max_corpus.has_value());
  EXPECT_NE(partial->analyzer, AnalyzerTuningSpec{});
}

TEST(ConfigParseTest, AnalyzerBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("analyzer { workers -1; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { max_corpus 0; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { shards 0; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { cycle_interval 0s; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig("analyzer { workers 1; ").ok());  // unterminated
}

TEST(ConfigParseTest, ServerBlock) {
  auto config = ParseConfig(R"(
server {
  listen "0.0.0.0:4400";
  max_frame_bytes 8388608;
  outbound_queue_bytes 33554432;
  reconnect_backoff_min 100ms;
  reconnect_backoff_max 5s;
  ack_timeout 20s;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const ServerNetSpec& s = config->server;
  EXPECT_EQ(s.listen, "0.0.0.0:4400");
  EXPECT_EQ(s.max_frame_bytes, 8388608);
  EXPECT_EQ(s.outbound_queue_bytes, 33554432);
  EXPECT_EQ(s.reconnect_backoff_min, 100 * kMillisecond);
  EXPECT_EQ(s.reconnect_backoff_max, 5 * kSecond);
  EXPECT_EQ(s.ack_timeout, 20 * kSecond);
  // Unset tuning keys stay unset (transport keeps compiled-in defaults).
  auto partial = ParseConfig(R"(server { listen "127.0.0.1:0"; })");
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->server.max_frame_bytes.has_value());
  EXPECT_NE(partial->server, ServerNetSpec{});
}

TEST(ConfigParseTest, ServerBlockRejectsBadValues) {
  EXPECT_FALSE(ParseConfig("server { max_frame_bytes 0; }").ok());
  EXPECT_FALSE(ParseConfig("server { outbound_queue_bytes -1; }").ok());
  EXPECT_FALSE(ParseConfig("server { reconnect_backoff_min 0s; }").ok());
  EXPECT_FALSE(ParseConfig("server { ack_timeout 0s; }").ok());
  EXPECT_FALSE(ParseConfig("server { frobnicate 1; }").ok());
  EXPECT_FALSE(ParseConfig(R"(server { listen "x:y"; )").ok());  // unterminated
}

TEST(ConfigParseTest, PeerBlocks) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
feed SNMP.MEM { pattern "mem_%i"; }
peer east { address "10.0.0.2:4400"; feeds SNMP.CPU, SNMP.MEM; window 1h; }
peer west { address "10.0.0.3:4400"; shard 1 of 4; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->peers.size(), 2u);
  const PeerSpec& east = config->peers[0];
  EXPECT_EQ(east.name, "east");
  EXPECT_EQ(east.address, "10.0.0.2:4400");
  EXPECT_EQ(east.feeds, (std::vector<FeedName>{"SNMP.CPU", "SNMP.MEM"}));
  EXPECT_EQ(east.window, kHour);
  EXPECT_EQ(east.shard_count, 0);
  const PeerSpec& west = config->peers[1];
  EXPECT_TRUE(west.feeds.empty());
  EXPECT_EQ(west.shard_index, 1);
  EXPECT_EQ(west.shard_count, 4);
}

TEST(ConfigParseTest, PeerRejectsBadValues) {
  // No address.
  EXPECT_FALSE(ParseConfig("peer p { feeds F; }").ok());
  // Explicit feeds and sharding are alternative routing policies.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; feeds F; shard 0 of 2; })").ok());
  // Shard index out of [0, count).
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; shard 2 of 2; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; shard 0 of 0; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; frobnicate 1; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; )").ok());  // unterminated
}

TEST(ConfigParseTest, PeerHealthAndFailoverKeys) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
peer east {
  address "10.0.0.2:4400"; shard 0 of 4; replicas 2;
  failover west; probe_interval 2s; suspect_after 2; down_after 5;
}
peer west { address "10.0.0.3:4400"; shard 1 of 4; replicas 2; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  const PeerSpec& east = config->peers[0];
  EXPECT_EQ(east.replicas, 2);
  EXPECT_EQ(east.failover, "west");
  EXPECT_EQ(east.probe_interval, 2 * kSecond);
  EXPECT_EQ(east.suspect_after, 2);
  EXPECT_EQ(east.down_after, 5);
  const PeerSpec& west = config->peers[1];
  EXPECT_EQ(west.replicas, 2);
  EXPECT_TRUE(west.failover.empty());
  EXPECT_FALSE(west.probe_interval.has_value());
}

TEST(ConfigParseTest, PeerHealthAndFailoverRejectBadValues) {
  // replicas needs sharding, and can't exceed the shard count.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; replicas 2; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; shard 0 of 2; replicas 3; })")
          .ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; replicas 0; })").ok());
  // A failover target must be another configured peer.
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; failover ghost; })").ok());
  EXPECT_FALSE(ParseConfig(R"(peer p { address "h:1"; failover p; })").ok());
  // Threshold ordering and positivity.
  EXPECT_FALSE(ParseConfig(
                   R"(peer p { address "h:1"; suspect_after 5; down_after 2; })")
                   .ok());
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; suspect_after 0; })").ok());
  EXPECT_FALSE(
      ParseConfig(R"(peer p { address "h:1"; probe_interval 0s; })").ok());
}

TEST(ConfigFormatTest, ServerAndPeerBlocksRoundTrip) {
  auto config = ParseConfig(R"(
feed SNMP.CPU { pattern "cpu_%i"; }
server { listen "127.0.0.1:4400"; ack_timeout 15s; max_frame_bytes 1048576; }
peer east { address "10.0.0.2:4400"; feeds SNMP.CPU; window 30m; failover west; probe_interval 2s; suspect_after 2; down_after 4; }
peer west { address "10.0.0.3:4400"; shard 0 of 2; replicas 2; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, AnalyzerBlockRoundTrips) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
analyzer { workers 4; max_corpus 200000; shards 32; cycle_interval 90s; }
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, DeliveryBlockRoundTrips) {
  auto config = ParseConfig(R"(
feed F { pattern "f_%i"; }
delivery {
  retry_backoff_min 3s; retry_multiplier 4; retry_jitter on;
  window 4; coalesce_bytes 32768; cache_bytes 0; receipt_group 8;
  receipt_flush_interval 75ms;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config) << formatted;
}

TEST(ConfigFormatTest, ClassifierBlockRoundTrips) {
  for (const char* mode : {"automaton", "trie", "linear"}) {
    auto config = ParseConfig(StrFormat(
        "feed F { pattern \"f_%%i\"; }\nclassifier { mode %s; }\n", mode));
    ASSERT_TRUE(config.ok()) << config.status();
    ASSERT_TRUE(config->classifier.mode.has_value());
    EXPECT_EQ(*config->classifier.mode, mode);
    std::string formatted = FormatConfig(*config);
    auto reparsed = ParseConfig(formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
    EXPECT_EQ(*reparsed, *config) << formatted;
  }
  EXPECT_FALSE(ParseConfig("classifier { mode hash; }").ok());
  EXPECT_FALSE(ParseConfig("classifier { workers 2; }").ok());
}

TEST(ConfigFormatTest, RoundTripsThroughParse) {
  auto config = ParseConfig(kSnmpConfig);
  ASSERT_TRUE(config.ok());
  std::string formatted = FormatConfig(*config);
  auto reparsed = ParseConfig(formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
  EXPECT_EQ(*reparsed, *config);
}

TEST(ConfigFormatTest, QuotesEscaped) {
  ServerConfig config;
  FeedSpec feed;
  feed.name = "F";
  feed.pattern = "weird_%s";
  config.feeds.push_back(feed);
  SubscriberSpec sub;
  sub.name = "s";
  sub.feeds = {"F"};
  sub.trigger.command = "run \"quoted\" \\ back";
  sub.trigger.batch.mode = BatchSpec::Mode::kTime;
  sub.trigger.batch.timeout = 90 * kSecond;
  config.subscribers.push_back(sub);
  auto reparsed = ParseConfig(FormatConfig(config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, config);
}

// ---------------------------------------------------------------- Registry

std::unique_ptr<FeedRegistry> MustRegistry(std::string_view text) {
  auto config = ParseConfig(text);
  EXPECT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  EXPECT_TRUE(registry.ok()) << registry.status();
  return std::move(*registry);
}

TEST(RegistryTest, ExpandGroupToLeaves) {
  auto registry = MustRegistry(kSnmpConfig);
  EXPECT_EQ(registry->Expand("SNMP.CPU"),
            (std::vector<FeedName>{"SNMP.CPU.POLLER1", "SNMP.CPU.POLLER2"}));
  EXPECT_EQ(registry->Expand("SNMP.BPS"),
            std::vector<FeedName>{"SNMP.BPS"});
  EXPECT_EQ(registry->Expand("SNMP").size(), 4u);
  EXPECT_TRUE(registry->Expand("UNKNOWN").empty());
  // Prefix must respect dot boundaries: "SNMP.CP" is not a group.
  EXPECT_TRUE(registry->Expand("SNMP.CP").empty());
}

TEST(RegistryTest, SubscribedFeedsDeduplicates) {
  auto registry = MustRegistry(R"(
group G {
  feed A { pattern "a_%i"; }
  feed B { pattern "b_%i"; }
}
subscriber s { feeds G, G.A; }
)");
  auto feeds = registry->SubscribedFeeds(*registry->FindSubscriber("s"));
  EXPECT_EQ(feeds, (std::vector<FeedName>{"G.A", "G.B"}));
}

TEST(RegistryTest, SubscribersOfResolvesGroups) {
  auto registry = MustRegistry(kSnmpConfig);
  auto subs = registry->SubscribersOf("SNMP.CPU.POLLER1");
  ASSERT_EQ(subs.size(), 2u);  // dallas (via SNMP.CPU) and atlanta (via SNMP)
  auto bps_subs = registry->SubscribersOf("SNMP.BPS");
  ASSERT_EQ(bps_subs.size(), 2u);
  auto memory_subs = registry->SubscribersOf("SNMP.MEMORY");
  ASSERT_EQ(memory_subs.size(), 1u);
  EXPECT_EQ(memory_subs[0]->name, "atlanta_marketing");
}

TEST(RegistryTest, RejectsDuplicateFeed) {
  auto config = ParseConfig(R"(
feed F { pattern "a_%i"; }
feed F { pattern "b_%i"; }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, RejectsFeedNameThatIsAlsoGroup) {
  auto config = ParseConfig(R"(
feed SNMP { pattern "a_%i"; }
group SNMP { feed CPU { pattern "b_%i"; } }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, RejectsUnknownSubscription) {
  auto config = ParseConfig(R"(
feed F { pattern "a_%i"; }
subscriber s { feeds NOPE; }
)");
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(FeedRegistry::Create(*config).ok());
}

TEST(RegistryTest, UpdateFeedReplacesPattern) {
  auto registry = MustRegistry(R"(feed F { pattern "old_%i"; })");
  EXPECT_TRUE(registry->FindFeed("F")->pattern.Matches("old_1"));
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  EXPECT_FALSE(registry->FindFeed("F")->pattern.Matches("old_1"));
  EXPECT_TRUE(registry->FindFeed("F")->pattern.Matches("new_1"));
}

TEST(RegistryTest, AddSubscriberAtRuntime) {
  auto registry = MustRegistry(R"(feed F { pattern "a_%i"; })");
  SubscriberSpec sub;
  sub.name = "late_joiner";
  sub.feeds = {"F"};
  ASSERT_TRUE(registry->AddSubscriber(sub).ok());
  EXPECT_EQ(registry->SubscribersOf("F").size(), 1u);
  EXPECT_TRUE(registry->AddSubscriber(sub).IsAlreadyExists());
  SubscriberSpec bad;
  bad.name = "bad";
  bad.feeds = {"MISSING"};
  EXPECT_FALSE(registry->AddSubscriber(bad).ok());
}

}  // namespace
}  // namespace bistro
