// Integration tests: the full BistroServer pipeline — landing zone ->
// classify -> receipts -> normalize -> stage -> schedule -> deliver ->
// receipts -> triggers — plus failure/backfill, feed revision, window
// expiry, hybrid push-pull, punctuation, and Bistro-to-Bistro chaining.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

constexpr char kConfig[] = R"(
group SNMP {
  feed CPU {
    pattern "CPU_POLL%i_%Y%m%d%H%M.txt";
    normalize "%Y/%m/%d/CPU_POLL%i_%H%M.txt";
    tardiness 60s;
  }
  feed MEMORY {
    pattern "MEMORY_%s_%Y%m%d.csv";
    compress lz;
  }
}
subscriber warehouse {
  destination "/warehouse";
  feeds SNMP;
  method push;
  trigger batch count 2 timeout 5m exec "load";
}
subscriber dashboard {
  destination "/dash";
  feeds SNMP.CPU;
  method notify;
}
)";

// The registry of a running server is read-only to everyone else: its
// mutators are BistroServer's AddSubscriber, UpdateSubscriber and
// ReviseFeed, which rebuild the tables derived from it.
static_assert(std::is_same_v<decltype(std::declval<BistroServer&>().registry()),
                             const FeedRegistry*>);

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_unique<SimClock>(FromCivil(CivilTime{2010, 9, 25}));
    loop_ = std::make_unique<EventLoop>(clock_.get());
    fs_ = std::make_unique<InMemoryFileSystem>();
    transport_ = std::make_unique<SimTransport>(loop_.get());
    invoker_ = std::make_unique<RecordingInvoker>();
    logger_ = std::make_unique<Logger>(clock_.get());
    sink_ = std::make_shared<MemorySink>();
    logger_->AddSink(sink_);
    logger_->SetMinLevel(LogLevel::kWarning);

    warehouse_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/warehouse");
    dashboard_ = std::make_unique<FileSinkEndpoint>(fs_.get(), "/dash");
    transport_->Register("warehouse", warehouse_.get());
    transport_->Register("dashboard", dashboard_.get());

    auto config = ParseConfig(kConfig);
    ASSERT_TRUE(config.ok()) << config.status();
    auto server =
        BistroServer::Create(BistroServer::Options(), *config, fs_.get(),
                             transport_.get(), loop_.get(), invoker_.get(),
                             logger_.get());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<InMemoryFileSystem> fs_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<RecordingInvoker> invoker_;
  std::unique_ptr<Logger> logger_;
  std::shared_ptr<MemorySink> sink_;
  std::unique_ptr<FileSinkEndpoint> warehouse_;
  std::unique_ptr<FileSinkEndpoint> dashboard_;
  std::unique_ptr<BistroServer> server_;
};

TEST_F(ServerTest, EndToEndPushDelivery) {
  ASSERT_TRUE(
      server_->Deposit("poller1", "CPU_POLL1_201009250400.txt", "cpu=42")
          .ok());
  loop_->RunUntilIdle();

  // Warehouse got the normalized file under its feed-rooted path.
  auto data = fs_->ReadFile("/warehouse/SNMP.CPU/2010/09/25/CPU_POLL1_0400.txt");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, "cpu=42");
  // Dashboard (notify method) got a notification, not bytes.
  EXPECT_EQ(dashboard_->notifications(), 1u);
  EXPECT_EQ(dashboard_->files_received(), 0u);
  // Landing zone was emptied (the landing-zone invariant).
  auto landing = fs_->ListRecursive("/bistro/landing");
  ASSERT_TRUE(landing.ok());
  EXPECT_TRUE(landing->empty());
  // Receipts recorded.
  EXPECT_EQ(server_->receipts()->ArrivalCount(), 1u);
  EXPECT_TRUE(server_->receipts()->Delivered("warehouse", 1));
  EXPECT_EQ(server_->stats().files_classified, 1u);
}

TEST_F(ServerTest, CompressionAppliedInStaging) {
  std::string payload(10000, 'm');
  ASSERT_TRUE(
      server_->Deposit("poller1", "MEMORY_routerA_20100925.csv", payload).ok());
  loop_->RunUntilIdle();
  // Staged copy is compressed.
  auto staged = fs_->ReadFile(
      "/bistro/staging/SNMP.MEMORY/MEMORY_routerA_20100925.csv");
  ASSERT_TRUE(staged.ok());
  EXPECT_LT(staged->size(), payload.size() / 10);
  // Subscriber receives the compressed frame and can expand it.
  auto received = fs_->ReadFile("/warehouse/SNMP.MEMORY/MEMORY_routerA_20100925.csv");
  ASSERT_TRUE(received.ok());
  auto expanded = AutoDecompress(*received);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*expanded, payload);
}

TEST_F(ServerTest, UnmatchedFilesQuarantinedForAnalyzer) {
  ASSERT_TRUE(server_->Deposit("poller1", "mystery_file.bin", "???").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(server_->stats().files_unmatched, 1u);
  auto unmatched = server_->DrainUnmatched();
  ASSERT_EQ(unmatched.size(), 1u);
  EXPECT_EQ(unmatched[0].name, "mystery_file.bin");
  EXPECT_NE(unmatched[0].id, 0u);  // stable id for analyzer dedupe
  // Not delivered to anyone.
  EXPECT_EQ(warehouse_->files_received(), 0u);
  // Still in the landing zone (quarantine).
  EXPECT_TRUE(fs_->Exists("/bistro/landing/poller1/mystery_file.bin"));
}

TEST_F(ServerTest, CountBatchTriggerFires) {
  // Use RunUntil (not RunUntilIdle): under simulated time RunUntilIdle
  // would fast-forward straight through the 5-minute batch timeout.
  ASSERT_TRUE(
      server_->Deposit("p", "CPU_POLL1_201009250400.txt", "a").ok());
  loop_->RunUntil(clock_->Now() + kSecond);
  EXPECT_TRUE(invoker_->invocations().empty());
  ASSERT_TRUE(
      server_->Deposit("p", "CPU_POLL2_201009250400.txt", "b").ok());
  loop_->RunUntil(clock_->Now() + kSecond);
  ASSERT_EQ(invoker_->invocations().size(), 1u);
  const auto& inv = invoker_->invocations()[0];
  EXPECT_EQ(inv.command, "load");
  EXPECT_EQ(inv.batch.files.size(), 2u);
  EXPECT_EQ(inv.batch.subscriber, "warehouse");
}

TEST_F(ServerTest, BatchTimeoutFiresViaEventLoop) {
  ASSERT_TRUE(
      server_->Deposit("p", "CPU_POLL1_201009250400.txt", "a").ok());
  // Deliver, but stop short of the 5-minute batch timeout.
  loop_->RunUntil(clock_->Now() + kSecond);
  EXPECT_TRUE(invoker_->invocations().empty());
  // The batcher scheduled a timeout tick 5 minutes after open.
  loop_->RunUntil(clock_->Now() + 6 * kMinute);
  ASSERT_EQ(invoker_->invocations().size(), 1u);
  EXPECT_EQ(invoker_->invocations()[0].batch.reason,
            BatchEvent::Reason::kTimeout);
}

TEST_F(ServerTest, FailingSubscriberGoesOfflineAndBackfills) {
  warehouse_->SetFailing(true);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(server_
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  // RunUntil, not RunUntilIdle: offline probes re-post forever while the
  // subscriber is down, so the loop never goes idle.
  loop_->RunUntil(clock_->Now() + 2 * kMinute);
  EXPECT_TRUE(server_->delivery()->IsOffline("warehouse"));
  EXPECT_EQ(warehouse_->files_received(), 0u);
  // Dashboard kept receiving notifications: no cross-subscriber damage.
  EXPECT_EQ(dashboard_->notifications(), 4u);
  // An offline warning was logged.
  EXPECT_GE(sink_->CountAtLeast(LogLevel::kWarning), 1u);

  // Subscriber recovers; the periodic probe finds it and backfills.
  warehouse_->SetFailing(false);
  loop_->RunUntil(clock_->Now() + 10 * kMinute);
  EXPECT_FALSE(server_->delivery()->IsOffline("warehouse"));
  EXPECT_EQ(warehouse_->files_received(), 4u);
  EXPECT_GE(server_->delivery_stats().backfilled, 4u);
  for (FileId id = 1; id <= 4; ++id) {
    EXPECT_TRUE(server_->receipts()->Delivered("warehouse", id));
  }
}

TEST_F(ServerTest, NewSubscriberGetsHistory) {
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(server_
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  loop_->RunUntilIdle();
  InMemoryFileSystem late_fs;
  FileSinkEndpoint late_sink(&late_fs, "/late");
  transport_->Register("latecomer", &late_sink);
  SubscriberSpec spec;
  spec.name = "latecomer";
  spec.feeds = {"SNMP.CPU"};
  ASSERT_TRUE(server_->AddSubscriber(spec).ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(late_sink.files_received(), 3u);
}

TEST_F(ServerTest, SubscriberWindowLimitsBackfill) {
  ASSERT_TRUE(server_->Deposit("p", "CPU_POLL1_201009250400.txt", "old").ok());
  loop_->RunUntilIdle();
  clock_->Advance(3 * kHour);
  ASSERT_TRUE(server_->Deposit("p", "CPU_POLL1_201009250700.txt", "new").ok());
  loop_->RunUntilIdle();
  InMemoryFileSystem late_fs;
  FileSinkEndpoint late_sink(&late_fs, "/late");
  transport_->Register("recent_only", &late_sink);
  SubscriberSpec spec;
  spec.name = "recent_only";
  spec.feeds = {"SNMP.CPU"};
  spec.window = kHour;  // only wants the last hour
  ASSERT_TRUE(server_->AddSubscriber(spec).ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(late_sink.files_received(), 1u);
}

TEST_F(ServerTest, UpdateSubscriberChangesDeliveryAtOnce) {
  ASSERT_TRUE(server_->Deposit("p", "MEMORY_routerA_20100925.csv", "m1").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(dashboard_->notifications(), 0u);  // dashboard follows CPU only

  SubscriberSpec spec = *server_->registry()->FindSubscriber("dashboard");
  spec.feeds = {"SNMP.CPU", "SNMP.MEMORY"};
  ASSERT_TRUE(server_->UpdateSubscriber(spec).ok());
  ASSERT_TRUE(server_->Deposit("p", "MEMORY_routerB_20100925.csv", "m2").ok());
  loop_->RunUntilIdle();
  // The next MEMORY file goes to the dashboard; the earlier one is not
  // backfilled.
  EXPECT_EQ(dashboard_->notifications(), 1u);
  EXPECT_TRUE(server_->receipts()->Delivered("dashboard", 2));
  EXPECT_FALSE(server_->receipts()->Delivered("dashboard", 1));

  SubscriberSpec unknown = spec;
  unknown.name = "nobody";
  EXPECT_TRUE(server_->UpdateSubscriber(unknown).IsNotFound());
  spec.feeds = {"NO.SUCH.FEED"};
  EXPECT_EQ(server_->UpdateSubscriber(spec).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ReviseFeedRedeliversUnderNewDefinition) {
  // A file arrives that matches nothing (capital P — the §5.2 scenario).
  ASSERT_TRUE(server_->Deposit("p", "MEMORY_RouterB_20100925.bad", "x").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(server_->stats().files_unmatched, 1u);
  // Revise MEMORY's pattern so future arrivals match.
  FeedSpec revised = server_->registry()->FindFeed("SNMP.MEMORY")->spec;
  revised.pattern = "MEMORY_%s_%Y%m%d.bad";
  revised.normalize = NormalizeSpec{};
  ASSERT_TRUE(server_->ReviseFeed(revised).ok());
  ASSERT_TRUE(server_->Deposit("p", "MEMORY_RouterC_20100925.bad", "y").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(warehouse_->files_received(), 1u);
}

// "Contains this id" patterns: their subset construction grows
// exponentially, so 25 of them break FeedAutomaton's compile budget and
// go to its residual list, and the default 300 are more than the list
// takes (kMaxResidualPatterns).
std::vector<std::string> ContainsIdPatterns(int n = 300) {
  std::vector<std::string> patterns;
  for (int i = 0; i < n; ++i) {
    patterns.push_back(StrFormat("%%s_DEV%d_%%s", i));
  }
  return patterns;
}

TEST_F(ServerTest, ReviseFeedIntoResidualListWarnsAndDelivers) {
  FeedSpec revised = server_->registry()->FindFeed("SNMP.MEMORY")->spec;
  std::vector<std::string> patterns = ContainsIdPatterns(25);
  revised.pattern = patterns[0];
  revised.alt_patterns.assign(patterns.begin() + 1, patterns.end());
  ASSERT_TRUE(server_->ReviseFeed(revised).ok());
  std::vector<LogRecord> records = sink_->TakeRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "classifier");
  EXPECT_NE(records[0].message.find("25 pattern(s) of 1 feed(s)"),
            std::string::npos)
      << records[0].message;
  EXPECT_NE(records[0].message.find("SNMP.MEMORY"), std::string::npos);
  // The residual feed still classifies and delivers.
  ASSERT_TRUE(server_->Deposit("p", "router_DEV3_20100925.csv", "m").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(server_->stats().files_unmatched, 0u);
  EXPECT_EQ(warehouse_->files_received(), 1u);
}

TEST_F(ServerTest, ReviseFeedOverCompileBudgetKeepsPreviousDefinition) {
  auto table = server_->classifier()->automaton();
  FeedSpec revised = server_->registry()->FindFeed("SNMP.MEMORY")->spec;
  std::vector<std::string> patterns = ContainsIdPatterns();
  revised.pattern = patterns[0];
  revised.alt_patterns.assign(patterns.begin() + 1, patterns.end());
  Status status = server_->ReviseFeed(revised);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_NE(status.message().find("SNMP.MEMORY"), std::string::npos);
  // The revision never happened: same definition and table.
  EXPECT_EQ(server_->registry()->FindFeed("SNMP.MEMORY")->spec.pattern,
            "MEMORY_%s_%Y%m%d.csv");
  EXPECT_TRUE(server_->registry()->FindFeed("SNMP.MEMORY")->spec.alt_patterns
                  .empty());
  EXPECT_EQ(server_->classifier()->automaton(), table);
  ASSERT_TRUE(
      server_->Deposit("p", "MEMORY_routerA_20100925.csv", "m").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(server_->stats().files_classified, 1u);
  EXPECT_EQ(server_->stats().files_unmatched, 0u);
}

TEST_F(ServerTest, ReviseFeedRefusesGroupPrefixEitherWay) {
  auto table = server_->classifier()->automaton();
  FeedSpec under = server_->registry()->FindFeed("SNMP.CPU")->spec;
  under.name = "SNMP.CPU.X";
  under.pattern = "CPUX_%i.txt";
  FeedSpec over = under;
  over.name = "SNMP";
  over.pattern = "SNMP_%i.txt";
  for (const FeedSpec& spec : {under, over}) {
    Status status = server_->ReviseFeed(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec.name;
    EXPECT_NE(status.message().find("group prefix"), std::string::npos)
        << status;
    EXPECT_EQ(server_->registry()->FindFeed(spec.name), nullptr);
  }
  // Registry, classifier and delivery are as they were: the dashboard's
  // SNMP.CPU still names one feed, and the new names match nothing.
  EXPECT_EQ(server_->registry()->feeds().size(), 2u);
  EXPECT_EQ(server_->registry()->Expand("SNMP.CPU"),
            std::vector<FeedName>{"SNMP.CPU"});
  EXPECT_EQ(server_->classifier()->automaton(), table);
  ASSERT_TRUE(server_->Deposit("p", "CPUX_1.txt", "x").ok());
  ASSERT_TRUE(server_->Deposit("p", "SNMP_1.txt", "y").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ(server_->stats().files_classified, 0u);
  EXPECT_EQ(server_->stats().files_unmatched, 2u);
}

TEST(ServerCreateTest, RefusesFeedTableOverCompileBudget) {
  std::string text;
  std::vector<std::string> patterns = ContainsIdPatterns();
  for (size_t i = 0; i < patterns.size(); ++i) {
    text += StrFormat("feed F%zu { pattern \"%s\"; }\n", i,
                      patterns[i].c_str());
  }
  auto config = ParseConfig(text);
  ASSERT_TRUE(config.ok()) << config.status();
  SimClock clock(0);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kResourceExhausted)
      << server.status();
  EXPECT_NE(server.status().message().find("compile budget"),
            std::string::npos);
}

TEST(ServerCreateTest, LoadsResidualFeedsWithWarning) {
  // 25 contains-id feeds break the compile budget but fit the residual
  // list: the server starts, warns naming them, and the admin command and
  // the gauge report them.
  std::string text;
  for (int i = 0; i < 25; ++i) {
    text += StrFormat("feed DEV%02d { pattern \"%%s_DEV%d_%%s\"; }\n", i, i);
  }
  auto config = ParseConfig(text);
  ASSERT_TRUE(config.ok()) << config.status();
  SimClock clock(0);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  size_t warnings = 0;
  for (const LogRecord& record : sink->TakeRecords()) {
    if (record.level != LogLevel::kWarning) continue;
    ++warnings;
    EXPECT_EQ(record.component, "classifier");
    EXPECT_NE(record.message.find("25 pattern(s) of 25 feed(s)"),
              std::string::npos)
        << record.message;
    EXPECT_NE(record.message.find("DEV00"), std::string::npos)
        << record.message;
  }
  EXPECT_EQ(warnings, 1u);
  std::string admin = ExecuteAdminCommand(server->get(), "classifier");
  EXPECT_NE(admin.find("residual: 25 pattern(s) of 25 feed(s)"),
            std::string::npos)
      << admin;
  EXPECT_EQ((*server)
                ->metrics()
                ->GetGauge("bistro_classifier_residual_patterns", "")
                ->value(),
            25);
}

TEST_F(ServerTest, MaintenanceExpiresOldHistory) {
  // Recreate server with a 1h window.
  BistroServer::Options opts;
  opts.history_window = kHour;
  opts.landing_root = "/b2/landing";
  opts.staging_root = "/b2/staging";
  opts.db_dir = "/b2/db";
  auto config = ParseConfig(kConfig);
  ASSERT_TRUE(config.ok());
  auto server = BistroServer::Create(opts, *config, fs_.get(),
                                     transport_.get(), loop_.get(),
                                     invoker_.get(), logger_.get());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  loop_->RunUntilIdle();
  EXPECT_EQ((*server)->receipts()->ArrivalCount(), 1u);
  clock_->Advance(2 * kHour);
  (*server)->RunMaintenance();
  EXPECT_EQ((*server)->receipts()->ArrivalCount(), 0u);
  EXPECT_EQ((*server)->stats().files_expired, 1u);
  // Staged file gone.
  auto staged = fs_->ListRecursive("/b2/staging");
  ASSERT_TRUE(staged.ok());
  EXPECT_TRUE(staged->empty());
}

TEST_F(ServerTest, PunctuationTriggersSubscriber) {
  // Add a punctuation-mode subscriber.
  InMemoryFileSystem pfs;
  FileSinkEndpoint psink(&pfs, "/p");
  transport_->Register("puncsub", &psink);
  SubscriberSpec spec;
  spec.name = "puncsub";
  spec.feeds = {"SNMP.CPU"};
  spec.trigger.batch.mode = BatchSpec::Mode::kPunctuation;
  spec.trigger.command = "punc_load";
  ASSERT_TRUE(server_->AddSubscriber(spec).ok());
  ASSERT_TRUE(server_->Deposit("p", "CPU_POLL1_201009250400.txt", "a").ok());
  ASSERT_TRUE(server_->Deposit("p", "CPU_POLL2_201009250400.txt", "b").ok());
  loop_->RunUntilIdle();
  size_t before = invoker_->invocations().size();
  server_->SourceEndOfBatch("SNMP.CPU", 0);
  loop_->RunUntilIdle();
  bool punc_fired = false;
  for (size_t i = before; i < invoker_->invocations().size(); ++i) {
    if (invoker_->invocations()[i].command == "punc_load") {
      punc_fired = true;
      EXPECT_EQ(invoker_->invocations()[i].batch.files.size(), 2u);
    }
  }
  EXPECT_TRUE(punc_fired);
}

TEST_F(ServerTest, ScanLandingZonePicksUpNonCooperatingSources) {
  // A source writes directly into the landing zone without notifying.
  ASSERT_TRUE(fs_->WriteFile("/bistro/landing/legacy/CPU_POLL9_201009250400.txt",
                             "data")
                  .ok());
  auto n = server_->ScanLandingZone();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  loop_->RunUntilIdle();
  EXPECT_TRUE(
      fs_->Exists("/warehouse/SNMP.CPU/2010/09/25/CPU_POLL9_0400.txt"));
}

TEST_F(ServerTest, ServerChainsAsSubscriber) {
  // Downstream server with its own subscriber.
  BistroServer::Options opts;
  opts.landing_root = "/down/landing";
  opts.staging_root = "/down/staging";
  opts.db_dir = "/down/db";
  auto config = ParseConfig(R"(
feed RELAYED { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber end_user { feeds RELAYED; method push; }
)");
  ASSERT_TRUE(config.ok());
  auto downstream = BistroServer::Create(opts, *config, fs_.get(),
                                         transport_.get(), loop_.get(),
                                         invoker_.get(), logger_.get());
  ASSERT_TRUE(downstream.ok());
  InMemoryFileSystem end_fs;
  FileSinkEndpoint end_sink(&end_fs, "/end");
  transport_->Register("end_user", &end_sink);
  // Register the downstream server as an endpoint + subscriber upstream.
  transport_->Register("downstream_server", downstream->get());
  SubscriberSpec relay;
  relay.name = "downstream_server";
  relay.feeds = {"SNMP.CPU"};
  ASSERT_TRUE(server_->AddSubscriber(relay).ok());

  ASSERT_TRUE(server_->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  loop_->RunUntilIdle();
  // The file flowed: upstream -> downstream server -> end user.
  EXPECT_EQ((*downstream)->stats().files_classified, 1u);
  EXPECT_EQ(end_sink.files_received(), 1u);
}

TEST_F(ServerTest, ReceiptsSurviveServerRestart) {
  warehouse_->SetFailing(true);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(server_
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  loop_->RunUntil(clock_->Now() + 2 * kMinute);
  EXPECT_EQ(warehouse_->files_received(), 0u);
  // "Crash" the server; recreate over the same filesystem/db. Stale probe
  // events in the loop are neutralized by the engine's lifetime guard.
  server_.reset();
  warehouse_->SetFailing(false);
  auto config = ParseConfig(kConfig);
  ASSERT_TRUE(config.ok());
  auto server = BistroServer::Create(BistroServer::Options(), *config,
                                     fs_.get(), transport_.get(), loop_.get(),
                                     invoker_.get(), logger_.get());
  ASSERT_TRUE(server.ok()) << server.status();
  loop_->RunUntilIdle();
  // Startup backfill delivered the undelivered history.
  EXPECT_EQ(warehouse_->files_received(), 4u);
}

}  // namespace
}  // namespace bistro
