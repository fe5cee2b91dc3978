// Chaos end-to-end property test: the full simulated pipeline runs under
// a randomized, seeded fault plan — injected write errors, torn writes,
// fsync failures, transient send failures, payload corruption, lost acks,
// a scheduled link flap, a degraded link, AND a mid-run crash/restart of
// the server — and must still converge to the Bistro delivery guarantee:
//
//   every deposited file that matches a feed reaches every subscriber of
//   that feed exactly once (no loss, no double-landing), the recomputed
//   delivery queues drain empty, the receipt database reopened cold holds
//   each file once with its bytes intact, and the injected-fault /
//   dead-letter counters are visible in the Prometheus export.
//
// Sources retry failed deposits (a cooperating source re-notifies when
// the server errors) and stash deposits attempted while the server is
// down, mirroring how real feeds behave across a feed-manager outage.
//
// Every scenario runs in one shared world (ChaosWorld) and states only
// what differs. The CI chaos job shifts the seed window via
// BISTRO_CHAOS_SEED_BASE so different matrix legs explore different
// fault plans.

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "exactly_once.h"
#include "fanout/group.h"
#include "fault/faulty_transport.h"
#include "fault/faulty_vfs.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "federation/federation.h"
#include "obs/export.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

int SeedBase() {
  const char* env = std::getenv("BISTRO_CHAOS_SEED_BASE");
  return env == nullptr ? 0 : std::atoi(env);
}

/// One scenario's seed derivations. Each scenario keeps its own, so a
/// (scenario, seed) pair always replays the same fault plan.
struct ScenarioSeeds {
  uint64_t scenario;  // fault probabilities and traffic
  uint64_t plan;      // the injector's per-operation draws
  uint64_t net;       // the simulated WAN
};

constexpr char kTwoFeeds[] = R"(
feed FEEDA { pattern "feeda_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
)";

constexpr char kThreeSubscribers[] = R"(
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber sub1 { feeds FEEDA; method push; }
subscriber sub2 { feeds FEEDB; method push; }
)";

/// A subscriber-side file sink on its own filesystem.
struct Sink {
  InMemoryFileSystem fs;
  FileSinkEndpoint endpoint{&fs, "/recv"};
};

/// The world every chaos scenario shares:
///  - a seeded fault plan: moderate, seed-scaled probabilities on every
///    path (landing, staging, receipt DB) and every send, sub0's link
///    down from +10m to +25m, and optionally sub1's link 2x slower;
///  - a sim clock and loop, a faulty FS over memfs, and a faulty
///    transport over a simulated WAN;
///  - crash-consistent server options with patient retries;
///  - cooperating sources: retry a failed deposit after 10 s, stash
///    deposits while the server is down and re-deposit after restart (a
///    failed Deposit leaves no arrival receipt, so this cannot
///    double-deliver);
///  - ~80 matching files over one simulated hour, a crash at +30m (the
///    server dies and unsynced bytes evaporate) and a reboot at +32m that
///    recovers from the crash-consistent receipt database.
///
/// Use: construct, add sinks and adjust `opts`, Start(), post any
/// scenario-specific events, Run(), then audit.
class ChaosWorld {
 public:
  ChaosWorld(int seed, const ScenarioSeeds& seeds, bool degrade_sub1)
      : seed(seed),
        scenario_rng(seeds.scenario),
        injector(MakePlan(seeds.plan, degrade_sub1), &registry),
        fs(&base_fs, &injector),
        net_rng(seeds.net),
        network(&net_rng),
        sim_transport(&loop, &network),
        transport(&sim_transport, &loop, &injector),
        logger(&clock) {
    // The plan goes into the test report, so a failing seed's exact plan
    // can be replayed from the XML output.
    ::testing::Test::RecordProperty("fault_plan",
                                    FormatFaultPlan(injector.plan()));
    logger.SetMinLevel(LogLevel::kAlarm);
    opts.kv.sync_wal = true;
    opts.sync_staging = true;
    opts.metrics = &registry;
    opts.delivery.retry_backoff = 2 * kSecond;
    opts.delivery.retry_backoff_max = 30 * kSecond;
    opts.delivery.probe_interval = 20 * kSecond;
    opts.delivery.max_attempts = 100000;  // chaos must not drop files
    opts.delivery.backoff_seed = static_cast<uint64_t>(seed) + 1;
  }

  /// A sink on the wire under `name`, on a fast link.
  void AddSink(const std::string& name) {
    NewSink(name);
    network.SetLink(name, LinkSpec::Fast());
    sim_transport.Register(name, &sinks[name]->endpoint);
  }

  /// A sink the scenario wires itself (group members).
  void NewSink(const std::string& name) {
    sinks[name] = std::make_unique<Sink>();
  }

  /// Parses the config, arms the plan's link events and boots the server.
  void Start(const std::string& config_text) {
    auto parsed = ParseConfig(config_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    config = std::move(*parsed);
    injector.Arm(&loop, &network);
    ASSERT_NO_FATAL_FAILURE(Boot(false));
    ASSERT_NE(server, nullptr);
  }

  /// Posts the traffic, the crash and the reboot, and runs the loop far
  /// past the traffic so retries, probes and backfills settle.
  void Run() {
    const int num_files = 60 + static_cast<int>(scenario_rng.Uniform(40));
    for (int i = 0; i < num_files; ++i) {
      TimePoint t = start + static_cast<Duration>(scenario_rng.Uniform(kHour));
      int f = static_cast<int>(scenario_rng.Uniform(2));
      CivilTime c = ToCivil(t);
      std::string name =
          StrFormat("feed%c_%d_%04d%02d%02d%02d%02d.dat", 'a' + f, i, c.year,
                    c.month, c.day, c.hour, c.minute);
      std::string content =
          scenario_rng.AlnumString(20 + scenario_rng.Uniform(400));
      expected[name] = {StrFormat("FEED%c", 'A' + f), content};
      loop.PostAt(t, [this, name, content] { Deposit(name, content); });
    }
    loop.PostAt(start + 30 * kMinute, [this] {
      if (on_crash) on_crash();
      server.reset();
      ASSERT_TRUE(fs.SimulateCrash().ok());
    });
    loop.PostAt(start + 32 * kMinute, [this] {
      Boot(true);
      std::vector<std::pair<std::string, std::string>> pending;
      pending.swap(stashed);
      for (auto& [name, content] : pending) {
        Deposit(std::move(name), std::move(content));
      }
    });
    loop.RunUntil(start + 6 * kHour);
  }

  /// The run converged: a server is up, no deposit is left stashed, and
  /// the plan injected something.
  void ExpectConverged() {
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(stashed.empty());
    EXPECT_GT(injector.injected(), 0u)
        << "fault plan injected nothing (seed " << seed << ")";
  }

  /// Sinks + Drained for the three-subscriber config.
  void AuditThreeSubscribers() {
    const std::vector<std::set<std::string>> feeds = {
        {"FEEDA", "FEEDB"}, {"FEEDA"}, {"FEEDB"}};
    for (int s = 0; s < 3; ++s) {
      std::string name = StrFormat("sub%d", s);
      ExpectSinkExactlyOnce(&sinks[name]->fs, sinks[name]->endpoint, "/recv",
                            feeds[s], expected, name, seed);
    }
    ExpectDrained(server.get(), {"sub0", "sub1", "sub2"}, seed);
  }

  /// Receipt DB: tears the server down (as a crash would, minus the lost
  /// bytes) and audits its receipt database cold.
  void AuditReceiptsCold() {
    int shards = static_cast<int>(server->receipts()->shard_count());
    if (on_crash) on_crash();
    server.reset();
    EXPECT_EQ(AuditReceiptDb(&base_fs, opts.db_dir, expected, seed, shards)
                  .size(),
              expected.size())
        << "a file was lost before its arrival receipt (seed " << seed << ")";
  }

  const int seed;
  const TimePoint start = FromCivil(CivilTime{2010, 9, 25});
  Rng scenario_rng;
  SimClock clock{start};
  EventLoop loop{&clock};
  MetricsRegistry registry;
  InMemoryFileSystem base_fs;
  FaultInjector injector;
  FaultyFileSystem fs;
  Rng net_rng;
  SimNetwork network;
  SimTransport sim_transport;
  FaultyTransport transport;
  CallbackInvoker invoker;
  Logger logger;
  ServerConfig config;
  BistroServer::Options opts;
  std::map<std::string, std::unique_ptr<Sink>> sinks;
  std::unique_ptr<BistroServer> server;
  ExpectedFiles expected;
  /// Cooperating sources deposit atomically: a failed Deposit removes its
  /// torn or unsynced landing leftover before retrying, so a landing-zone
  /// rescan never ingests a partial deposit.
  bool atomic_deposits = false;
  /// Runs after each server boot (`rebooting` after the crash).
  std::function<void(bool rebooting)> on_boot;
  /// Runs before the server dies, at the crash and before the cold audit.
  std::function<void()> on_crash;

 private:
  FaultPlan MakePlan(uint64_t plan_seed, bool degrade_sub1) {
    FaultPlan plan;
    plan.seed = plan_seed;
    plan.vfs.write_error_prob = scenario_rng.NextDouble() * 0.03;
    plan.vfs.torn_write_prob = scenario_rng.NextDouble() * 0.03;
    plan.vfs.sync_error_prob = scenario_rng.NextDouble() * 0.02;
    plan.vfs.scope = "";  // everything: landing, staging, receipt DB
    plan.net.send_failure_prob = scenario_rng.NextDouble() * 0.15;
    plan.net.corrupt_prob = scenario_rng.NextDouble() * 0.08;
    plan.net.ack_loss_prob = scenario_rng.NextDouble() * 0.05;
    plan.net.flaps.push_back({"sub0", start + 10 * kMinute,
                              start + 25 * kMinute});
    if (degrade_sub1) plan.net.degrades.push_back({"sub1", 2.0});
    return plan;
  }

  void Boot(bool rebooting) {
    auto created = BistroServer::Create(opts, config, &fs, &transport, &loop,
                                        &invoker, &logger);
    ASSERT_TRUE(created.ok()) << created.status();
    server = std::move(*created);
    if (on_boot) on_boot(rebooting);
  }

  void Deposit(std::string name, std::string content) {
    if (server == nullptr) {
      stashed.emplace_back(std::move(name), std::move(content));
      return;
    }
    if (server->Deposit("src", name, content).ok()) return;
    if (atomic_deposits) (void)fs.Delete(opts.landing_root + "/src/" + name);
    loop.PostAfter(10 * kSecond, [this, name, content] {
      Deposit(name, content);
    });
  }

  std::vector<std::pair<std::string, std::string>> stashed;
};

class ChaosE2ETest : public ::testing::TestWithParam<int> {
 protected:
  int Seed() const { return SeedBase() + GetParam(); }
};

TEST_P(ChaosE2ETest, ExactlyOnceDeliveryUnderFaultsAndCrash) {
  const uint64_t s = static_cast<uint64_t>(Seed());
  ChaosWorld w(Seed(), {s * 31337 + 7, s * 97 + 5, s * 101 + 3},
               /*degrade_sub1=*/true);
  for (const char* sub : {"sub0", "sub1", "sub2"}) w.AddSink(sub);
  ASSERT_NO_FATAL_FAILURE(w.Start(std::string(kTwoFeeds) + kThreeSubscribers));
  w.Run();

  ASSERT_NO_FATAL_FAILURE(w.ExpectConverged());
  w.AuditThreeSubscribers();
  // Observability: the injected faults and the dead-letter counter are in
  // the same scrape as the delivery metrics.
  std::string scrape = ExportPrometheus(&w.registry);
  EXPECT_NE(scrape.find("bistro_fault_"), std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_dead_letter_total"), std::string::npos);
  w.AuditReceiptsCold();
}

// Same world, same fault plan, same crash — but the ingest pipeline runs
// with real worker threads and group-committed receipts. The exactly-once
// guarantee must hold unchanged. Two differences in the harness follow
// from the threaded ack contract (Deposit acks at admission):
//
//  - recovery of files that fail *after* admission (a stage write error,
//    a failed group commit, a queue dropped by the crash) is the
//    landing-zone rescan's job, so the harness scans periodically the way
//    bistrod does — the source is never re-notified;
//  - the cooperating source deposits atomically, so a rescan can never
//    ingest a partial deposit.
//
// The crash drops the worker queues with the process; admitted but
// uncommitted files persist only as their (fsynced) landing copies.
TEST_P(ChaosE2ETest, ThreadedPipelineExactlyOnceUnderFaultsAndCrash) {
  const uint64_t s = static_cast<uint64_t>(Seed());
  ChaosWorld w(Seed(), {s * 52711 + 11, s * 89 + 13, s * 103 + 9},
               /*degrade_sub1=*/false);
  for (const char* sub : {"sub0", "sub1", "sub2"}) w.AddSink(sub);
  w.opts.ingest.workers = 3;
  w.opts.ingest.queue_depth = 64;
  w.opts.ingest.batch = 8;
  w.opts.ingest.overload_policy = OverloadPolicy::kBlock;
  w.atomic_deposits = true;
  ASSERT_NO_FATAL_FAILURE(w.Start(std::string(kTwoFeeds) + kThreeSubscribers));

  // Periodic landing-zone rescan (bistrod's --scan-interval): the only
  // recovery path for post-admission failures in threaded mode.
  std::function<void()> periodic_scan = [&] {
    if (w.server != nullptr) (void)w.server->ScanLandingZone();
    if (w.loop.Now() < w.start + 5 * kHour) {
      w.loop.PostAfter(97 * kSecond, periodic_scan);
    }
  };
  w.loop.PostAfter(97 * kSecond, periodic_scan);
  w.Run();

  // Settle: drain the worker threads, rescan for anything a fault pushed
  // back to the landing zone, and let retries/backfills play out.
  for (int round = 0; round < 60; ++round) {
    ASSERT_NE(w.server, nullptr);
    w.server->ingest()->WaitIdle();
    (void)w.server->ScanLandingZone();
    w.server->ingest()->WaitIdle();
    w.loop.RunUntil(w.loop.Now() + kMinute);
  }

  ASSERT_NO_FATAL_FAILURE(w.ExpectConverged());
  EXPECT_EQ(w.server->ingest()->stats().in_flight, 0u);
  w.AuditThreeSubscribers();
  // The pipeline's counters ride the same scrape as everything else.
  std::string scrape = ExportPrometheus(&w.registry);
  EXPECT_NE(scrape.find("bistro_ingest_admitted_total"), std::string::npos);
  EXPECT_NE(scrape.find("bistro_ingest_committed_total"), std::string::npos);
  w.AuditReceiptsCold();
}

// Same world, same crash — with the fan-out fast path fully enabled:
// pipelined send windows (> 1 in flight per subscriber, pipelined acks on
// the simulated links), small-file frame coalescing, and group-committed
// delivery receipts. None of it may weaken exactly-once: a crash can only
// lose a *suffix* of a buffered receipt group, and the resulting
// redeliveries must be absorbed by the subscriber-side FileId dedupe.
TEST_P(ChaosE2ETest, FastPathExactlyOnceUnderFaultsAndCrash) {
  const uint64_t s = static_cast<uint64_t>(Seed());
  ChaosWorld w(Seed(), {s * 40087 + 19, s * 83 + 29, s * 107 + 17},
               /*degrade_sub1=*/true);
  w.network.SetPipelinedAcks(true);  // windows > 1 overlap ack latency
  for (const char* sub : {"sub0", "sub1", "sub2"}) w.AddSink(sub);
  w.opts.delivery.window = 4;
  w.opts.delivery.coalesce_bytes = 4096;
  w.opts.delivery.receipt_group = 8;
  w.opts.delivery.receipt_flush_interval = 200 * kMillisecond;
  ASSERT_NO_FATAL_FAILURE(w.Start(std::string(kTwoFeeds) + kThreeSubscribers));
  w.Run();

  ASSERT_NO_FATAL_FAILURE(w.ExpectConverged());
  w.AuditThreeSubscribers();
  // No receipt may linger in the buffer once the run quiesces.
  EXPECT_EQ(w.server->delivery()->buffered_receipts(), 0u);
  // The grouped-receipt path actually ran.
  EXPECT_GT(w.server->delivery_stats().receipt_group_flushes, 0u);
  std::string scrape = ExportPrometheus(&w.registry);
  EXPECT_NE(scrape.find("bistro_delivery_coalesced_files_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_receipt_group_flushes_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("bistro_delivery_cache_hits_total"),
            std::string::npos);
  w.AuditReceiptsCold();
}

// A member endpoint that is hard-down for a fixed window of the run:
// deterministic per seed, long enough to drive the group's straggler
// machinery (consecutive failures -> excluded from the ack set -> missed
// files tracked -> catch-up replay after recovery).
class OutageEndpoint : public Endpoint {
 public:
  OutageEndpoint(Endpoint* inner, EventLoop* loop, TimePoint down_at,
                 TimePoint up_at)
      : inner_(inner), loop_(loop), down_at_(down_at), up_at_(up_at) {}

  Status HandleMessage(const Message& msg) override {
    if (msg.type == MessageType::kFileData && loop_->Now() >= down_at_ &&
        loop_->Now() < up_at_) {
      ++rejected_;
      return Status::Unavailable("member outage");
    }
    return inner_->HandleMessage(msg);
  }

  uint64_t rejected() const { return rejected_; }

 private:
  Endpoint* inner_;
  EventLoop* loop_;
  TimePoint down_at_;
  TimePoint up_at_;
  uint64_t rejected_ = 0;
};

// Same world, same fault plan, same crash — with the million-subscriber
// fan-out stack enabled end to end: a subscriber group (one delivery
// cursor + one receipt row shared by three members, straggler catch-up
// for a member that is hard-down across the crash), a relay in front of
// two leaves, and the receipt database hash-sharded four ways. The relay
// is a second, pass-through Bistro server (the paper's Fig. 1 cascade):
// it takes the origin's push through a FederationInbound and its leaves
// are its own subscribers. Exactly-once must hold at every terminal
// endpoint: group members, relay leaves and the plain subscriber all
// land each matching file exactly once, and the group still holds only
// ONE delivery receipt row per file.
TEST_P(ChaosE2ETest, FanoutGroupsRelaysShardsExactlyOnceUnderFaultsAndCrash) {
  const uint64_t s = static_cast<uint64_t>(Seed());
  ChaosWorld w(Seed(), {s * 68111 + 23, s * 79 + 31, s * 109 + 21},
               /*degrade_sub1=*/false);
  // Terminal endpoints: the plain subscriber, three group members (m2 is
  // hard-down from +5m to +40m, spanning the crash), two relay leaves.
  w.AddSink("sub0");
  w.network.SetLink("grp1", LinkSpec::Fast());
  w.network.SetLink("relayR", LinkSpec::Fast());
  for (const char* m : {"m0", "m1", "m2"}) w.NewSink(m);
  OutageEndpoint m2_flaky(&w.sinks["m2"]->endpoint, &w.loop,
                          w.start + 5 * kMinute, w.start + 40 * kMinute);
  for (const char* l : {"leaf0", "leaf1"}) w.AddSink(l);

  // The relay server shares the world's faulty filesystem and transport
  // and its crash-consistent options, with its own roots and registry.
  auto relay_config = ParseConfig(R"(
feed FEEDB { pattern "feedb_%i_%Y%m%d%H%M.dat"; tardiness 2m; }
subscriber leaf0 { feeds FEEDB; method push; }
subscriber leaf1 { feeds FEEDB; method push; }
)");
  ASSERT_TRUE(relay_config.ok()) << relay_config.status();
  MetricsRegistry relay_registry;
  BistroServer::Options relay_opts = w.opts;
  relay_opts.landing_root = "/relay/landing";
  relay_opts.staging_root = "/relay/staging";
  relay_opts.db_dir = "/relay/db";
  relay_opts.metrics = &relay_registry;

  // The relay server and the group manager live and die with the origin.
  // The relay reopens from its receipts, on the same faulty transport.
  std::unique_ptr<BistroServer> relay;
  std::unique_ptr<FederationInbound> relay_inbound;
  std::unique_ptr<fanout::GroupManager> groups;
  w.on_boot = [&](bool rebooting) {
    auto opened = BistroServer::Create(relay_opts, *relay_config, &w.fs,
                                       &w.transport, &w.loop, &w.invoker,
                                       &w.logger);
    ASSERT_TRUE(opened.ok()) << opened.status();
    relay = std::move(*opened);
    relay_inbound = std::make_unique<FederationInbound>(relay.get(), &w.logger);
    w.sim_transport.Register("relayR", relay_inbound.get());
    fanout::GroupManager::Options group_options;
    group_options.catchup_interval = 45 * kSecond;
    groups = std::make_unique<fanout::GroupManager>(
        w.server.get(), &w.fs, &w.loop, &w.logger, group_options);
    auto member = [&](const std::string& m) -> Endpoint* {
      if (m == "m2") return &m2_flaky;
      return &w.sinks[m]->endpoint;
    };
    auto wire = [&](const std::string& name, Endpoint* ep) {
      w.sim_transport.Register(name, ep);
    };
    ASSERT_TRUE(groups->Wire(w.config.groups, member, wire).ok());
    // In-memory straggler state died with the process: re-offer the
    // group's delivered history; member dedupe absorbs the repeats.
    if (rebooting) {
      ASSERT_TRUE(groups->Resync().ok());
    }
  };
  w.on_crash = [&] {
    // Take the relay's and the group's addresses off the wire so
    // in-flight messages bounce, then destroy them.
    w.sim_transport.Unregister("relayR");
    w.sim_transport.Unregister("grp1");
    groups.reset();
    relay_inbound.reset();
    relay.reset();
  };
  ASSERT_NO_FATAL_FAILURE(w.Start(std::string(kTwoFeeds) + R"(
subscriber sub0 { feeds FEEDA, FEEDB; method push; }
subscriber relaysub { feeds FEEDB; method push; host "relayR"; }
group grp1 {
  feeds FEEDA;
  members m0, m1, m2;
  straggler_after 3;
}
receipts { shards 4; }
)"));
  EXPECT_EQ(w.server->receipts()->shard_count(), 4u);
  w.Run();

  ASSERT_NO_FATAL_FAILURE(w.ExpectConverged());
  ASSERT_NE(relay, nullptr);
  EXPECT_GT(m2_flaky.rejected(), 0u)
      << "member outage window saw no traffic (seed " << w.seed << ")";
  // The plain subscriber sees both feeds, every group member (including
  // the one down for 35 simulated minutes across the crash) every FEEDA
  // file, and both relay leaves every FEEDB file — each exactly once.
  auto audit_sink = [&](const std::string& name,
                        const std::set<std::string>& feeds) {
    ExpectSinkExactlyOnce(&w.sinks[name]->fs, w.sinks[name]->endpoint,
                          "/recv", feeds, w.expected, name, w.seed);
  };
  audit_sink("sub0", {"FEEDA", "FEEDB"});
  for (const char* m : {"m0", "m1", "m2"}) audit_sink(m, {"FEEDA"});
  for (const char* l : {"leaf0", "leaf1"}) audit_sink(l, {"FEEDB"});

  // Group state converged: no straggler, no owed files, and the receipt
  // audit shows ONE shared d/ row per file for the whole group.
  fanout::GroupRelay* group_relay = groups->relay("grp1");
  ASSERT_NE(group_relay, nullptr);
  EXPECT_EQ(group_relay->straggler_count(), 0u);
  EXPECT_EQ(group_relay->straggler_lag(), 0u);
  size_t group_rows = 0;
  for (size_t i = 0; i < w.server->receipts()->shard_count(); ++i) {
    group_rows += w.server->receipts()->kv(i)->ScanPrefix("d/grp1/").size();
  }
  ExpectedFiles feedb;
  for (const auto& [name, file] : w.expected) {
    if (file.feed == "FEEDB") feedb[name] = file;
  }
  EXPECT_EQ(group_rows, w.expected.size() - feedb.size())
      << "group receipt rows != FEEDA files (seed " << w.seed << ")";

  // Both servers' queues recompute empty; nothing dead-lettered.
  ExpectDrained(w.server.get(), {"sub0", "relaysub", "grp1"}, w.seed);
  ExpectDrained(relay.get(), {"leaf0", "leaf1"}, w.seed);
  // Both receipt databases, cold: the relay's holds every FEEDB file once.
  w.AuditReceiptsCold();
  EXPECT_EQ(
      AuditReceiptDb(&w.base_fs, relay_opts.db_dir, feedb, w.seed).size(),
      feedb.size())
      << "the relay lost a file before its arrival receipt (seed " << w.seed
      << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosE2ETest, ::testing::Range(0, 5));

}  // namespace
}  // namespace bistro
