// End-to-end tests for declarative ingestion plans against a full
// BistroServer: multi-tenant quota shedding with landing-zone recovery,
// archival sampling next to an unsampled real-time feed, A/B duplicate
// delivery with independent exactly-once receipts, SLO-class delivery
// priority under contention, worker-stage enrichment/transform, and the
// operator console's `plans` view.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "ingest/plan.h"
#include "sim/network.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

/// A self-contained simulated world: in-process transport, file-sink
/// subscribers, one server booted from an inline config.
struct World {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  SimTransport transport{&loop};
  RecordingInvoker invoker;
  Logger logger{&clock};
  std::map<std::string, std::unique_ptr<FileSinkEndpoint>> sinks;
  std::unique_ptr<BistroServer> server;

  World() { logger.SetMinLevel(LogLevel::kAlarm); }

  FileSinkEndpoint* AddSink(const std::string& name, const std::string& root) {
    auto sink = std::make_unique<FileSinkEndpoint>(&fs, root);
    FileSinkEndpoint* raw = sink.get();
    transport.Register(name, raw);
    sinks[name] = std::move(sink);
    return raw;
  }

  Status Boot(const std::string& config_text,
              DeliveryScheduler* scheduler = nullptr,
              BistroServer::Options options = BistroServer::Options()) {
    auto config = ParseConfig(config_text);
    if (!config.ok()) return config.status();
    auto created =
        BistroServer::Create(std::move(options), *config, &fs, &transport,
                             &loop, &invoker, &logger, scheduler);
    if (!created.ok()) return created.status();
    server = std::move(*created);
    return Status::OK();
  }

  size_t LandingCount() {
    auto listing = fs.ListRecursive("/bistro/landing");
    return listing.ok() ? listing->size() : 0;
  }
};

TEST(PlanE2e, InvalidPlanFailsServerCreate) {
  World w;
  Status s = w.Boot(R"(
feed LOG { pattern "log_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/out"; feeds LOG; method push; }
plan NOSUCH { sample 50; }
)");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ingestion plans"), std::string::npos);
  EXPECT_NE(s.message().find("NOSUCH"), std::string::npos);
}

// Scenario 1 — multi-tenant quota: one plan block budgets a whole feed
// group; over-quota files are shed to the landing zone and recovered by
// a rescan once the token bucket refills.
TEST(PlanE2e, QuotaShedsToLandingZoneAndRecovers) {
  World w;
  FileSinkEndpoint* warehouse = w.AddSink("warehouse", "/warehouse");
  ASSERT_TRUE(w.Boot(R"(
group TENANT {
  feed SYSLOG { pattern "syslog_%i_%Y%m%d%H%M.txt"; }
  feed AUDIT { pattern "audit_%i_%Y%m%d%H%M.txt"; }
}
subscriber warehouse { destination "/warehouse"; feeds TENANT; method push; }
plan TENANT { quota 2 per 1m; }
)")
                  .ok());

  // Two syslog files spend the tenant's whole budget; the audit file is
  // refused by the *shared* bucket even though its feed saw no traffic.
  ASSERT_TRUE(w.server->Deposit("src", "syslog_1_201009250400.txt", "a").ok());
  ASSERT_TRUE(w.server->Deposit("src", "syslog_2_201009250400.txt", "b").ok());
  ASSERT_TRUE(w.server->Deposit("src", "audit_1_201009250400.txt", "c").ok());
  w.loop.RunUntilIdle();

  EXPECT_EQ(warehouse->files_received(), 2u);
  EXPECT_EQ(w.LandingCount(), 1u);
  EXPECT_TRUE(w.fs.Exists("/bistro/landing/src/audit_1_201009250400.txt"));
  EXPECT_EQ(w.server->plans()->stats().quota_shed, 1u);

  // A minute later the bucket has refilled; the landing-zone rescan
  // (the non-cooperating-source path) admits the deferred file.
  w.loop.RunUntil(w.clock.Now() + kMinute);
  auto scanned = w.server->ScanLandingZone();
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  w.loop.RunUntilIdle();

  EXPECT_EQ(warehouse->files_received(), 3u);
  EXPECT_EQ(w.LandingCount(), 0u);
  auto delivered = w.fs.ReadFile("/warehouse/TENANT.AUDIT/audit_1_201009250400.txt");
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  EXPECT_EQ(*delivered, "c");
}

// Scenario 2 — archival sampling: ARCHIVE and REALTIME share a filename
// pattern, so every file classifies into both; the plan samples the
// archive feed down to 40% while the real-time feed keeps everything.
// The keep set is a deterministic hash, recomputed here exactly.
TEST(PlanE2e, ArchivalSamplingNextToFullRealtimeFeed) {
  World w;
  FileSinkEndpoint* archive = w.AddSink("archive_sink", "/archive");
  FileSinkEndpoint* realtime = w.AddSink("realtime_sink", "/rt");
  ASSERT_TRUE(w.Boot(R"(
feed ARCHIVE { pattern "evt_%i_%Y%m%d%H%M.txt"; }
feed REALTIME { pattern "evt_%i_%Y%m%d%H%M.txt"; }
subscriber archive_sink { destination "/archive"; feeds ARCHIVE; method push; }
subscriber realtime_sink { destination "/rt"; feeds REALTIME; method push; }
plan ARCHIVE { sample 40; }
)")
                  .ok());

  constexpr int kFiles = 20;
  size_t kept = 0;
  for (int i = 1; i <= kFiles; ++i) {
    const std::string name = StrFormat("evt_%d_201009250400.txt", i);
    if (PlanSampleKeeps("ARCHIVE", name, 4000)) ++kept;
    ASSERT_TRUE(w.server->Deposit("src", name, "x").ok());
  }
  w.loop.RunUntilIdle();
  ASSERT_GT(kept, 0u);          // the fixed hash keeps some...
  ASSERT_LT(kept, size_t{kFiles});  // ...and drops some of these 20 names

  EXPECT_EQ(realtime->files_received(), static_cast<uint64_t>(kFiles));
  EXPECT_EQ(archive->files_received(), kept);
  EXPECT_EQ(w.server->plans()->stats().sampled_out,
            static_cast<uint64_t>(kFiles) - kept);
  // Per-file: presence in the archive matches the published hash rule.
  // A file's staged path follows its *primary* (first surviving) feed,
  // so archive-kept files reach the realtime sink under ARCHIVE/ while
  // sampled-out files re-derive their primary match and land under
  // REALTIME/ — the plan filter refreshed the staging fields.
  for (int i = 1; i <= kFiles; ++i) {
    const std::string name = StrFormat("evt_%d_201009250400.txt", i);
    const bool kept_in_archive = PlanSampleKeeps("ARCHIVE", name, 4000);
    EXPECT_EQ(w.fs.Exists("/archive/ARCHIVE/" + name), kept_in_archive)
        << name;
    const std::string rt_dir = kept_in_archive ? "ARCHIVE" : "REALTIME";
    EXPECT_TRUE(w.fs.Exists("/rt/" + rt_dir + "/" + name)) << name;
  }
  // Sampling never strands files in the landing zone: each file was
  // admitted into REALTIME even when sampled out of ARCHIVE.
  EXPECT_EQ(w.LandingCount(), 0u);
}

// A file sampled out of *every* feed it matches is discarded outright
// (the hash is deterministic — a rescan could never admit it), so the
// landing zone does not fill with permanently rejected files.
TEST(PlanE2e, FullySampledOutFileIsDiscardedFromLanding) {
  World w;
  w.AddSink("sink", "/out");
  ASSERT_TRUE(w.Boot(R"(
feed EVENTS { pattern "evt_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/out"; feeds EVENTS; method push; }
plan EVENTS { sample 40; }
)")
                  .ok());
  std::string dropped;
  for (int i = 1; dropped.empty() && i < 200; ++i) {
    std::string name = StrFormat("evt_%d_201009250400.txt", i);
    if (!PlanSampleKeeps("EVENTS", name, 4000)) dropped = name;
  }
  ASSERT_FALSE(dropped.empty());
  ASSERT_TRUE(w.server->Deposit("src", dropped, "x").ok());
  w.loop.RunUntilIdle();
  EXPECT_EQ(w.LandingCount(), 0u);
  EXPECT_EQ(w.sinks["sink"]->files_received(), 0u);
  EXPECT_EQ(w.server->plans()->stats().sampled_out, 1u);
}

// Scenario 3 — A/B duplicate delivery: each file goes to exactly one
// split arm (deterministic name hash), arms keep independent
// exactly-once receipts, and a non-arm subscriber of the same feed
// still receives every file.
TEST(PlanE2e, AbSplitDeliversEachFileToExactlyOneArm) {
  World w;
  FileSinkEndpoint* arm_a = w.AddSink("arm_a", "/a");
  FileSinkEndpoint* arm_b = w.AddSink("arm_b", "/b");
  FileSinkEndpoint* audit = w.AddSink("audit", "/audit");
  ASSERT_TRUE(w.Boot(R"(
feed CLICKS { pattern "click_%i_%Y%m%d%H%M.txt"; }
subscriber arm_a { destination "/a"; feeds CLICKS; method push; }
subscriber arm_b { destination "/b"; feeds CLICKS; method push; }
subscriber audit { destination "/audit"; feeds CLICKS; method push; }
plan CLICKS { split 50 to arm_a, 50 to arm_b; }
)")
                  .ok());

  const std::vector<PlanSplitArm> arms{{50, "arm_a"}, {50, "arm_b"}};
  constexpr int kFiles = 12;
  for (int i = 1; i <= kFiles; ++i) {
    ASSERT_TRUE(
        w.server->Deposit("src", StrFormat("click_%d_201009250400.txt", i), "x")
            .ok());
  }
  w.loop.RunUntilIdle();

  // Every file went to exactly one arm; together the arms saw them all.
  EXPECT_EQ(arm_a->files_received() + arm_b->files_received(),
            static_cast<uint64_t>(kFiles));
  EXPECT_GT(arm_a->files_received(), 0u);
  EXPECT_GT(arm_b->files_received(), 0u);
  // The audit subscriber is not an arm: it gets the full stream.
  EXPECT_EQ(audit->files_received(), static_cast<uint64_t>(kFiles));

  // Exactly-once receipts are independent per arm: the chosen arm has a
  // delivery receipt, the other arm has none (FileIds are assigned in
  // deposit order, 1-based).
  for (int i = 1; i <= kFiles; ++i) {
    const std::string name = StrFormat("click_%d_201009250400.txt", i);
    const PlanSplitArm* chosen = PlanSplitArmFor(arms, name);
    ASSERT_NE(chosen, nullptr);
    const std::string other = chosen->to == "arm_a" ? "arm_b" : "arm_a";
    const FileId id = static_cast<FileId>(i);
    EXPECT_TRUE(w.server->receipts()->Delivered(chosen->to, id)) << name;
    EXPECT_FALSE(w.server->receipts()->Delivered(other, id)) << name;
    EXPECT_TRUE(w.server->receipts()->Delivered("audit", id)) << name;
  }
  EXPECT_EQ(w.server->plans()->stats().split_routed,
            static_cast<uint64_t>(kFiles));
  EXPECT_EQ(w.server->plans()->stats().route_filtered,
            static_cast<uint64_t>(kFiles));
}

// Scenario 4 — SLO classes: with one transfer slot and a slow link, an
// interactive-class file submitted *after* two bulk-class files is
// dequeued first, because EDF sees its deadline pulled in 4x while the
// bulk deadlines are relaxed 4x.
TEST(PlanE2e, InteractiveSloOvertakesEarlierBulkFiles) {
  SimClock clock(FromCivil(CivilTime{2010, 9, 25}));
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  Rng rng(42);
  SimNetwork network(&rng);
  SimTransport transport(&loop, &network);
  RecordingInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kAlarm);

  network.SetLink("sink", LinkSpec::Slow());  // transfers take real sim time
  FileSinkEndpoint sink(&fs, "/recv");
  transport.Register("sink", &sink);
  std::vector<std::string> order;
  sink.SetMessageHook([&](const Message& msg) {
    if (msg.type == MessageType::kFileData) order.push_back(msg.name);
  });

  auto config = ParseConfig(R"(
feed FAST { pattern "fast_%i_%Y%m%d%H%M.txt"; tardiness 60s; }
feed BULK { pattern "bulk_%i_%Y%m%d%H%M.txt"; tardiness 60s; }
subscriber sink { destination "/recv"; feeds FAST, BULK; method push; }
plan FAST { slo interactive; }
plan BULK { slo bulk; }
)");
  ASSERT_TRUE(config.ok()) << config.status();

  // One partition, one slot: every job queues behind the link.
  PartitionedScheduler::Options sched_options;
  sched_options.num_partitions = 1;
  sched_options.slots_per_partition = 1;
  PartitionedScheduler scheduler(sched_options);

  auto created = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                      &transport, &loop, &invoker, &logger,
                                      &scheduler);
  ASSERT_TRUE(created.ok()) << created.status();
  auto server = std::move(*created);

  // bulk_1 grabs the only slot; bulk_2 and bulk_3 queue; then the
  // interactive file arrives last.
  ASSERT_TRUE(server->Deposit("src", "bulk_1_201009250400.txt", "b1").ok());
  ASSERT_TRUE(server->Deposit("src", "bulk_2_201009250400.txt", "b2").ok());
  ASSERT_TRUE(server->Deposit("src", "bulk_3_201009250400.txt", "b3").ok());
  ASSERT_TRUE(server->Deposit("src", "fast_1_201009250400.txt", "f1").ok());
  loop.RunUntilIdle();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "bulk_1_201009250400.txt");  // already in flight
  // The interactive file overtook both queued bulk files.
  EXPECT_EQ(order[1], "fast_1_201009250400.txt");
  EXPECT_EQ(sink.files_received(), 4u);
}

// Enrichment runs in the worker stage before staging: the delivered
// bytes carry a checksum header over a provenance header over the
// payload, in declaration order.
TEST(PlanE2e, EnrichmentPrependsProvenanceAndChecksumHeaders) {
  World w;
  w.AddSink("sink", "/out");
  ASSERT_TRUE(w.Boot(R"(
feed RAW { pattern "raw_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/out"; feeds RAW; method push; }
plan RAW { enrich provenance, checksum; }
)")
                  .ok());
  ASSERT_TRUE(
      w.server->Deposit("src", "raw_1_201009250400.txt", "hello\n").ok());
  w.loop.RunUntilIdle();

  auto delivered = w.fs.ReadFile("/out/RAW/raw_1_201009250400.txt");
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  // Outermost header is the checksum (applied last), covering
  // everything after its own line.
  ASSERT_EQ(delivered->rfind("#bistro-crc32 ", 0), 0u) << *delivered;
  const size_t eol = delivered->find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string body = delivered->substr(eol + 1);
  const uint32_t declared = static_cast<uint32_t>(
      std::stoul(delivered->substr(14, eol - 14), nullptr, 16));
  EXPECT_EQ(declared, Crc32(body));
  // Inside: the provenance header, then the untouched payload.
  EXPECT_EQ(body.rfind("#bistro-provenance feed=RAW file=raw_1_", 0), 0u)
      << body;
  EXPECT_NE(body.find("arrival="), std::string::npos);
  EXPECT_EQ(body.substr(body.find('\n') + 1), "hello\n");
  EXPECT_EQ(w.server->plans()->stats().enriched, 2u);
}

// A plan transform overrides the feed's normalize policy: the feed
// declares no compression, the plan compresses, and the subscriber can
// expand what it received.
TEST(PlanE2e, TransformOverridesFeedNormalizePolicy) {
  World w;
  w.AddSink("sink", "/out");
  ASSERT_TRUE(w.Boot(R"(
feed RAW { pattern "raw_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/out"; feeds RAW; method push; }
plan RAW { transform lz; }
)")
                  .ok());
  const std::string payload(10000, 'z');
  ASSERT_TRUE(
      w.server->Deposit("src", "raw_1_201009250400.txt", payload).ok());
  w.loop.RunUntilIdle();

  auto staged = w.fs.ReadFile("/bistro/staging/RAW/raw_1_201009250400.txt");
  ASSERT_TRUE(staged.ok()) << staged.status();
  EXPECT_LT(staged->size(), payload.size() / 10);
  auto delivered = w.fs.ReadFile("/out/RAW/raw_1_201009250400.txt");
  ASSERT_TRUE(delivered.ok()) << delivered.status();
  auto expanded = AutoDecompress(*delivered);
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  EXPECT_EQ(*expanded, payload);
  EXPECT_EQ(w.server->plans()->stats().transformed, 1u);
}

// The operator console's `plans` command renders the compiled table.
TEST(PlanE2e, AdminPlansCommandRendersCompiledTable) {
  World w;
  w.AddSink("warehouse", "/warehouse");
  ASSERT_TRUE(w.Boot(R"(
group TENANT {
  feed SYSLOG { pattern "syslog_%i_%Y%m%d%H%M.txt"; }
  feed AUDIT { pattern "audit_%i_%Y%m%d%H%M.txt"; }
}
subscriber warehouse { destination "/warehouse"; feeds TENANT; method push; }
plan TENANT { quota 2 per 1m; slo bulk; }
)")
                  .ok());
  const std::string out = ExecuteAdminCommand(w.server.get(), "plans");
  EXPECT_NE(out.find("Ingestion plans"), std::string::npos) << out;
  EXPECT_NE(out.find("TENANT.SYSLOG"), std::string::npos) << out;
  EXPECT_NE(out.find("TENANT.AUDIT"), std::string::npos) << out;
  EXPECT_NE(out.find("bulk"), std::string::npos) << out;
  EXPECT_NE(out.find("quota"), std::string::npos) << out;
  EXPECT_NE(out.find("governed feeds: 2 (1 rebuild(s))"), std::string::npos)
      << out;
  // The command is listed in help, and a plan-less server still answers.
  EXPECT_NE(ExecuteAdminCommand(w.server.get(), "help").find("plans"),
            std::string::npos);
}

constexpr char kTenantConfig[] = R"(
group TENANT {
  feed SYSLOG { pattern "syslog_%i_%Y%m%d%H%M.txt"; }
  feed AUDIT { pattern "audit_%i_%Y%m%d%H%M.txt"; }
}
subscriber ops { destination "/ops"; feeds TENANT; method push; }
subscriber archive { destination "/archive"; feeds TENANT; method push; }
plan TENANT { route ops; slo bulk; }
)";

// A feed revision recompiles the plan table in the same call: a new feed
// under a planned group is governed as soon as ReviseFeed returns.
TEST(PlanE2e, ReviseFeedBringsNewFeedUnderItsPlanAtOnce) {
  World w;
  FileSinkEndpoint* ops = w.AddSink("ops", "/ops");
  FileSinkEndpoint* archive = w.AddSink("archive", "/archive");
  ASSERT_TRUE(w.Boot(kTenantConfig).ok());
  PlanRuntime* plans = w.server->plans();
  EXPECT_EQ(plans->snapshot()->Find("TENANT.TRACE"), nullptr);

  FeedSpec trace;
  trace.name = "TENANT.TRACE";
  trace.pattern = "trace_%i_%Y%m%d%H%M.txt";
  ASSERT_TRUE(w.server->ReviseFeed(trace).ok());
  const FeedPlan* fp = plans->snapshot()->Find("TENANT.TRACE");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->selector, "TENANT");
  EXPECT_EQ(fp->slo, "bulk");
  EXPECT_EQ(plans->stats().governed_feeds, 3u);
  EXPECT_EQ(plans->TardinessFor("TENANT.TRACE", kMinute), 4 * kMinute);

  // The next trace file follows the plan's route: ops only.
  ASSERT_TRUE(w.server->Deposit("src", "trace_1_201009250400.txt", "t").ok());
  w.loop.RunUntilIdle();
  EXPECT_EQ(ops->files_received(), 1u);
  EXPECT_EQ(archive->files_received(), 0u);
  EXPECT_EQ(plans->stats().route_filtered, 1u);
}

// "Contains this id" patterns: past FeedAutomaton's compile budget and
// more than its residual list takes, so the classifier refuses them.
FeedSpec OverBudgetFeed(const FeedName& name) {
  FeedSpec spec;
  spec.name = name;
  spec.pattern = "%s_DEV0_%s";
  for (int i = 1; i < 300; ++i) {
    spec.alt_patterns.push_back(StrFormat("%%s_DEV%d_%%s", i));
  }
  return spec;
}

// A revision the classifier refuses after the plan table was rebuilt for
// it is refused whole: registry, classifier table and plan table are the
// ones from before the call.
TEST(PlanE2e, RefusedRevisionKeepsRegistryClassifierAndPlanTable) {
  World w;
  w.AddSink("ops", "/ops");
  w.AddSink("archive", "/archive");
  ASSERT_TRUE(w.Boot(kTenantConfig).ok());
  const auto dfa = w.server->classifier()->automaton();
  const auto plan_table = w.server->plans()->snapshot();

  for (const char* name : {"TENANT.AUDIT", "TENANT.BULK"}) {
    Status refused = w.server->ReviseFeed(OverBudgetFeed(name));
    EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted) << refused;
    EXPECT_EQ(w.server->classifier()->automaton(), dfa);
    EXPECT_EQ(w.server->plans()->snapshot(), plan_table);
    EXPECT_EQ(w.server->plans()->stats().governed_feeds, 2u);
  }
  EXPECT_EQ(w.server->registry()->FindFeed("TENANT.BULK"), nullptr);
  EXPECT_EQ(w.server->registry()->FindFeed("TENANT.AUDIT")->spec.pattern,
            "audit_%i_%Y%m%d%H%M.txt");
  EXPECT_EQ(w.server->delivery()->subscription_index()->PostingsFor(
                "TENANT.BULK").size(),
            0u);
}

// Plans depend only on feed definitions. While ingest workers stage
// files of a planned feed (reading the plan table), the loop thread adds
// and updates subscribers: the plan table is never recompiled, and the
// workers read nothing those calls write (the CI tsan job runs this).
TEST(PlanE2e, SubscriberChangesDuringThreadedIngestLeaveThePlanTableAlone) {
  World w;
  FileSinkEndpoint* sink = w.AddSink("sink", "/sink");
  BistroServer::Options options;
  options.ingest.workers = 2;
  ASSERT_TRUE(w.Boot(R"(
feed A { pattern "a_%i_%Y%m%d%H%M.txt"; }
feed B { pattern "b_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/sink"; feeds A; method push; }
plan A { slo bulk; }
)",
                     nullptr, options)
                  .ok());
  ASSERT_TRUE(w.server->ingest()->threaded());
  const uint64_t plan_rebuilds = w.server->plans()->stats().rebuilds;
  EXPECT_EQ(plan_rebuilds, 1u);
  fanout::SubscriptionIndex* index = w.server->delivery()->subscription_index();
  const uint64_t index_rebuilds = index->rebuilds();

  constexpr int kChanges = 150;
  for (int i = 0; i < kChanges; ++i) {
    ASSERT_TRUE(w.server
                    ->Deposit("src", StrFormat("a_%d_201009250400.txt", i),
                              "payload")
                    .ok());
    SubscriberSpec sub;
    sub.name = StrFormat("late%d", i);
    sub.host = "sink";
    sub.feeds = {"B"};
    sub.method = DeliveryMethod::kPush;
    ASSERT_TRUE(w.server->AddSubscriber(sub).ok());
    sub.feeds = {};
    ASSERT_TRUE(w.server->UpdateSubscriber(sub).ok());
  }
  w.server->ingest()->WaitIdle();
  w.loop.RunUntilIdle();

  EXPECT_EQ(sink->files_received(), static_cast<size_t>(kChanges));
  EXPECT_EQ(w.server->plans()->stats().rebuilds, plan_rebuilds);
  EXPECT_EQ(index->rebuilds(), index_rebuilds + 2 * kChanges);
}

TEST(PlanE2e, PlansCommandWithoutPlansExplainsItself) {
  World w;
  w.AddSink("sink", "/out");
  ASSERT_TRUE(w.Boot(R"(
feed RAW { pattern "raw_%i_%Y%m%d%H%M.txt"; }
subscriber sink { destination "/out"; feeds RAW; method push; }
)")
                  .ok());
  EXPECT_EQ(w.server->plans(), nullptr);
  const std::string out = ExecuteAdminCommand(w.server.get(), "plans");
  EXPECT_FALSE(out.empty());
}

}  // namespace
}  // namespace bistro
