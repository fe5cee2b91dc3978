// Unit tests for declarative ingestion plans: the config grammar and
// FormatConfig round-trip, the plan compiler's validation surface
// (unknown selectors/targets, replication vs the peer fleet, quota
// ambiguity), selector-specificity lowering, deterministic token
// buckets, sampling/split hash choices, and the runtime's lazy
// version-keyed rebuild.

#include <gtest/gtest.h>

#include <algorithm>

#include "config/parser.h"
#include "config/registry.h"
#include "ingest/plan.h"

namespace bistro {
namespace {

// A registry + plan fixture shared by the compiler tests: two feeds
// under one group, one standalone feed, two subscribers, one peer.
constexpr char kBase[] = R"(
group TENANT {
  feed SYSLOG { pattern "syslog_%i_%Y%m%d%H%M.txt"; }
  feed AUDIT { pattern "audit_%i_%Y%m%d%H%M.txt"; }
}
feed CLICKS { pattern "click_%i_%Y%m%d%H%M.txt"; tardiness 2m; }
subscriber warehouse { destination "/warehouse"; feeds TENANT, CLICKS; method push; }
subscriber dashboard { destination "/dash"; feeds CLICKS; method push; }
peer backup { address "backup:4242"; feeds CLICKS; }
)";

Result<ServerConfig> ParseWithPlans(const std::string& plans) {
  return ParseConfig(std::string(kBase) + plans);
}

struct Compiled {
  std::unique_ptr<FeedRegistry> registry;
  Result<std::shared_ptr<const CompiledPlans>> result =
      Status::FailedPrecondition("not compiled");
};

Compiled Compile(const std::string& plans) {
  Compiled out;
  auto config = ParseWithPlans(plans);
  EXPECT_TRUE(config.ok()) << config.status();
  if (!config.ok()) return out;
  auto registry = FeedRegistry::Create(*config);
  EXPECT_TRUE(registry.ok()) << registry.status();
  if (!registry.ok()) return out;
  out.registry = std::move(*registry);
  out.result = CompilePlans(config->plans, *out.registry,
                            PlanContextFromConfig(*config));
  return out;
}

// ------------------------------------------------------------------ grammar

TEST(PlanParse, FullGrammar) {
  auto config = ParseWithPlans(R"(
plan TENANT {
  quota 100 per 5m;
  quota_bytes 1000000 per 5m;
  slo bulk;
}
plan CLICKS {
  route warehouse, dashboard;
  split 75 to warehouse, 25 to dashboard;
  replicate 1;
  sample 12.5;
  transform lz;
  enrich provenance, checksum;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->plans.size(), 2u);

  const PlanSpec& tenant = config->plans[0];
  EXPECT_EQ(tenant.feed, "TENANT");
  ASSERT_TRUE(tenant.quota_files.has_value());
  EXPECT_EQ(*tenant.quota_files, 100);
  ASSERT_TRUE(tenant.quota_bytes.has_value());
  EXPECT_EQ(*tenant.quota_bytes, 1000000);
  EXPECT_EQ(tenant.quota_interval, 5 * kMinute);
  EXPECT_EQ(tenant.slo.value_or(""), "bulk");

  const PlanSpec& clicks = config->plans[1];
  EXPECT_EQ(clicks.route, (std::vector<std::string>{"warehouse", "dashboard"}));
  ASSERT_EQ(clicks.split.size(), 2u);
  EXPECT_EQ(clicks.split[0].percent, 75);
  EXPECT_EQ(clicks.split[0].to, "warehouse");
  EXPECT_EQ(clicks.split[1].percent, 25);
  EXPECT_EQ(clicks.split[1].to, "dashboard");
  EXPECT_EQ(clicks.replicate.value_or(0), 1);
  EXPECT_DOUBLE_EQ(clicks.sample.value_or(0), 12.5);
  EXPECT_EQ(clicks.transform.value_or(""), "lz");
  EXPECT_EQ(clicks.enrich, (std::vector<std::string>{"provenance", "checksum"}));
}

TEST(PlanParse, QuotaDefaultsToOneMinuteInterval) {
  auto config = ParseWithPlans("plan CLICKS { quota 7; }");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->plans[0].quota_interval, kDefaultQuotaInterval);
  EXPECT_EQ(kDefaultQuotaInterval, kMinute);
}

TEST(PlanParse, RejectsBadBlocks) {
  // Split arms must sum to exactly 100.
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { split 60 to warehouse, 30 to "
                              "dashboard; }")
                   .ok());
  // An arm may be listed once.
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { split 50 to warehouse, 50 to "
                              "warehouse; }")
                   .ok());
  // Two blocks for one selector are ambiguous.
  EXPECT_FALSE(
      ParseWithPlans("plan CLICKS { sample 50; } plan CLICKS { slo bulk; }")
          .ok());
  // A plan that declares nothing is a config typo, not a no-op.
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { }").ok());
  // Enumerated values are validated at parse time.
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { slo realtime; }").ok());
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { transform gzip; }").ok());
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { enrich lineage; }").ok());
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { sample 0; }").ok());
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { sample 101; }").ok());
  EXPECT_FALSE(ParseWithPlans("plan CLICKS { quota 0; }").ok());
}

TEST(PlanParse, FormatConfigRoundTrips) {
  auto config = ParseWithPlans(R"(
plan TENANT { quota 100 per 5m; slo bulk; }
plan CLICKS {
  route warehouse;
  split 75 to warehouse, 25 to dashboard;
  sample 12.5;
  transform lz;
  quota_bytes 4096 per 30s;
  enrich provenance;
}
)");
  ASSERT_TRUE(config.ok()) << config.status();
  auto reparsed = ParseConfig(FormatConfig(*config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(reparsed->plans.size(), config->plans.size());
  for (size_t i = 0; i < config->plans.size(); ++i) {
    EXPECT_EQ(reparsed->plans[i], config->plans[i]) << "plan " << i;
  }
}

// ----------------------------------------------------------------- compiler

TEST(PlanCompile, LowersGroupPrefixOntoEveryMemberFeed) {
  Compiled c = Compile("plan TENANT { quota 10; slo bulk; }");
  ASSERT_TRUE(c.result.ok()) << c.result.status();
  const CompiledPlans& plans = **c.result;
  EXPECT_EQ(plans.feeds.size(), 2u);
  const FeedPlan* syslog = plans.Find("TENANT.SYSLOG");
  const FeedPlan* audit = plans.Find("TENANT.AUDIT");
  ASSERT_NE(syslog, nullptr);
  ASSERT_NE(audit, nullptr);
  EXPECT_EQ(plans.Find("CLICKS"), nullptr);
  // One bucket for the whole subtree: the group quota is a shared budget.
  ASSERT_NE(syslog->quota, nullptr);
  EXPECT_EQ(syslog->quota.get(), audit->quota.get());
  EXPECT_EQ(syslog->deadline_scale_num, 4);
  EXPECT_EQ(syslog->deadline_scale_den, 1);
}

TEST(PlanCompile, MoreSpecificSelectorWinsPerAttribute) {
  Compiled c = Compile(
      "plan TENANT { slo bulk; sample 50; }\n"
      "plan TENANT.AUDIT { slo interactive; }");
  ASSERT_TRUE(c.result.ok()) << c.result.status();
  const FeedPlan* audit = (*c.result)->Find("TENANT.AUDIT");
  ASSERT_NE(audit, nullptr);
  // The exact-feed plan overrode the SLO...
  EXPECT_EQ(audit->slo, "interactive");
  EXPECT_EQ(audit->deadline_scale_den, 4);
  // ...but the group plan's sampling still applies (per-attribute merge).
  EXPECT_EQ(audit->sample_keep_bp, 5000);
  const FeedPlan* syslog = (*c.result)->Find("TENANT.SYSLOG");
  ASSERT_NE(syslog, nullptr);
  EXPECT_EQ(syslog->slo, "bulk");
}

TEST(PlanCompile, RejectsUnknownSelector) {
  Compiled c = Compile("plan NOSUCH { sample 50; }");
  ASSERT_FALSE(c.result.ok());
  EXPECT_NE(c.result.status().message().find("NOSUCH"), std::string::npos);
}

TEST(PlanCompile, RejectsUnknownRouteAndSplitTargets) {
  Compiled route = Compile("plan CLICKS { route nobody; }");
  ASSERT_FALSE(route.result.ok());
  EXPECT_NE(route.result.status().message().find("unknown target nobody"),
            std::string::npos);
  Compiled split = Compile("plan CLICKS { split 100 to nobody; }");
  EXPECT_FALSE(split.result.ok());
}

TEST(PlanCompile, RejectsReplicationAboveThePeerFleet) {
  // kBase configures exactly one peer.
  Compiled ok = Compile("plan CLICKS { replicate 1; }");
  EXPECT_TRUE(ok.result.ok()) << ok.result.status();
  Compiled over = Compile("plan CLICKS { replicate 2; }");
  ASSERT_FALSE(over.result.ok());
  EXPECT_NE(over.result.status().message().find("only 1 peers"),
            std::string::npos);
}

TEST(PlanCompile, RejectsConflictingQuotas) {
  // Both the group plan and the exact-feed plan budget TENANT.AUDIT:
  // which bucket admits a file would depend on evaluation order.
  Compiled c = Compile(
      "plan TENANT { quota 10; }\n"
      "plan TENANT.AUDIT { quota 5; }");
  ASSERT_FALSE(c.result.ok());
  EXPECT_NE(c.result.status().message().find("conflicting quota"),
            std::string::npos);
  // Non-quota attributes on the specific plan compose fine.
  Compiled fine = Compile(
      "plan TENANT { quota 10; }\n"
      "plan TENANT.AUDIT { slo interactive; }");
  EXPECT_TRUE(fine.result.ok()) << fine.result.status();
}

TEST(PlanCompile, RouteAcceptsGroupsAndPeers) {
  Compiled c = Compile("plan CLICKS { route backup; }");
  EXPECT_TRUE(c.result.ok()) << c.result.status();
}

// -------------------------------------------------------------- determinism

TEST(QuotaBucketTest, RefillsFractionallyAndStartsFull) {
  const TimePoint t0 = FromCivil(CivilTime{2010, 9, 25});
  QuotaBucket bucket(2, 0, kMinute);
  // Starts full: two admissions, then refusal.
  EXPECT_TRUE(bucket.TryAdmit(t0, 100));
  EXPECT_TRUE(bucket.TryAdmit(t0, 100));
  EXPECT_FALSE(bucket.TryAdmit(t0, 100));
  // Half an interval refills half the capacity: one token.
  EXPECT_TRUE(bucket.TryAdmit(t0 + 30 * kSecond, 100));
  EXPECT_FALSE(bucket.TryAdmit(t0 + 30 * kSecond, 100));
  // A full idle interval tops the bucket back up, never beyond capacity.
  EXPECT_TRUE(bucket.TryAdmit(t0 + 10 * kMinute, 100));
  EXPECT_TRUE(bucket.TryAdmit(t0 + 10 * kMinute, 100));
  EXPECT_FALSE(bucket.TryAdmit(t0 + 10 * kMinute, 100));
}

TEST(QuotaBucketTest, ByteBudgetRefusesAtomically) {
  const TimePoint t0 = FromCivil(CivilTime{2010, 9, 25});
  QuotaBucket bucket(0, 1000, kMinute);
  EXPECT_TRUE(bucket.TryAdmit(t0, 600));
  // A refusal must not consume tokens: the 600-byte budget that remains
  // after the refused 500-byte file still admits a 400-byte one.
  EXPECT_FALSE(bucket.TryAdmit(t0, 500));
  EXPECT_TRUE(bucket.TryAdmit(t0, 400));
  EXPECT_FALSE(bucket.TryAdmit(t0, 1));
}

TEST(PlanHashTest, SamplingIsDeterministicAndMonotone) {
  int kept_half = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "file_" + std::to_string(i) + ".txt";
    // Pure function of (feed, name, bp).
    EXPECT_EQ(PlanSampleKeeps("F", name, 5000), PlanSampleKeeps("F", name, 5000));
    // keep-at-bp is monotone: a file kept at 30% is kept at any higher rate.
    if (PlanSampleKeeps("F", name, 3000)) {
      EXPECT_TRUE(PlanSampleKeeps("F", name, 9000));
    }
    EXPECT_TRUE(PlanSampleKeeps("F", name, 10000));
    if (PlanSampleKeeps("F", name, 5000)) ++kept_half;
  }
  // The hash spreads names roughly uniformly (exact value is pinned by
  // the FNV-1a formula, so this cannot flake).
  EXPECT_GT(kept_half, 400);
  EXPECT_LT(kept_half, 600);
}

TEST(PlanHashTest, SplitRoutesEveryFileToExactlyOneArm) {
  std::vector<PlanSplitArm> arms{{70, "a"}, {30, "b"}};
  int to_a = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "file_" + std::to_string(i) + ".txt";
    const PlanSplitArm* arm = PlanSplitArmFor(arms, name);
    ASSERT_NE(arm, nullptr);
    EXPECT_EQ(arm, PlanSplitArmFor(arms, name));  // deterministic
    if (arm->to == "a") ++to_a;
  }
  EXPECT_GT(to_a, 600);
  EXPECT_LT(to_a, 800);
  // A single 100% arm takes everything.
  std::vector<PlanSplitArm> all{{100, "only"}};
  EXPECT_EQ(PlanSplitArmFor(all, "anything")->to, "only");
  EXPECT_EQ(PlanSplitArmFor({}, "anything"), nullptr);
}

// ------------------------------------------------------------------ runtime

TEST(PlanRuntimeTest, RebuildsOnlyWhenAsked) {
  auto config = ParseWithPlans("plan TENANT { slo bulk; }");
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();

  PlanRuntime runtime(config->plans, registry->get(),
                      PlanContextFromConfig(*config));
  EXPECT_EQ(runtime.snapshot(), nullptr);  // nothing before the first build
  ASSERT_TRUE(runtime.Rebuild().ok());
  auto before = runtime.snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->feeds.size(), 2u);
  EXPECT_EQ(runtime.stats().rebuilds, 1u);

  // A new feed under the governed prefix changes nothing by itself: a
  // lookup never compiles.
  FeedSpec extra;
  extra.name = "TENANT.TRACE";
  extra.pattern = "trace_%i_%Y%m%d%H%M.txt";
  ASSERT_TRUE((*registry)->UpdateFeed(extra).ok());
  EXPECT_EQ(runtime.snapshot().get(), before.get());
  EXPECT_EQ(runtime.stats().rebuilds, 1u);

  // The explicit rebuild (what ReviseFeed calls) brings it under the plan.
  ASSERT_TRUE(runtime.Rebuild().ok());
  auto after = runtime.snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->feeds.size(), 3u);
  const FeedPlan* trace = after->Find("TENANT.TRACE");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->slo, "bulk");
  EXPECT_EQ(runtime.stats().rebuilds, 2u);
  EXPECT_EQ(runtime.stats().governed_feeds, 3u);

  // Publish puts an earlier table back (a refused revision's undo).
  runtime.Publish(before);
  EXPECT_EQ(runtime.snapshot().get(), before.get());
  EXPECT_EQ(runtime.stats().governed_feeds, 2u);
}

TEST(PlanRuntimeTest, QuotaBucketSurvivesRecompilation) {
  const TimePoint t0 = FromCivil(CivilTime{2010, 9, 25});
  auto config = ParseWithPlans("plan TENANT { quota 2 per 1m; }");
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  PlanRuntime runtime(config->plans, registry->get(),
                      PlanContextFromConfig(*config));
  ASSERT_TRUE(runtime.Rebuild().ok());

  auto bucket = runtime.snapshot()->Find("TENANT.SYSLOG")->quota;
  ASSERT_NE(bucket, nullptr);
  EXPECT_TRUE(bucket->TryAdmit(t0, 1));
  EXPECT_TRUE(bucket->TryAdmit(t0, 1));
  EXPECT_FALSE(bucket->TryAdmit(t0, 1));

  // Revise the registry; the rebuilt table must reuse the drained bucket —
  // a feed revision never refunds admission tokens.
  FeedSpec extra;
  extra.name = "TENANT.TRACE";
  extra.pattern = "trace_%i_%Y%m%d%H%M.txt";
  ASSERT_TRUE((*registry)->UpdateFeed(extra).ok());
  ASSERT_TRUE(runtime.Rebuild().ok());
  auto rebuilt = runtime.snapshot();
  ASSERT_NE(rebuilt->Find("TENANT.TRACE"), nullptr);
  EXPECT_EQ(rebuilt->Find("TENANT.SYSLOG")->quota.get(), bucket.get());
  EXPECT_EQ(rebuilt->Find("TENANT.TRACE")->quota.get(), bucket.get());
  EXPECT_FALSE(bucket->TryAdmit(t0, 1));
}

TEST(PlanRuntimeTest, FailedRebuildPublishesNothing) {
  // The selector matches nothing yet: Rebuild refuses (the Create-time
  // error surface) and publishes no table.
  auto config = ParseWithPlans("plan FUTURE { slo bulk; }");
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  PlanRuntime runtime(config->plans, registry->get(),
                      PlanContextFromConfig(*config));
  Status refused = runtime.Rebuild();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
  EXPECT_NE(refused.message().find("FUTURE"), std::string::npos);
  EXPECT_EQ(runtime.snapshot(), nullptr);
  EXPECT_EQ(runtime.stats().rebuilds, 0u);

  // Once the registry learns the feed, the next Rebuild succeeds; until
  // then a lookup still serves no table.
  FeedSpec feed;
  feed.name = "FUTURE";
  feed.pattern = "future_%i_%Y%m%d%H%M.txt";
  ASSERT_TRUE((*registry)->UpdateFeed(feed).ok());
  EXPECT_EQ(runtime.snapshot(), nullptr);
  ASSERT_TRUE(runtime.Rebuild().ok());
  auto snap = runtime.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_NE(snap->Find("FUTURE"), nullptr);
  EXPECT_EQ(runtime.stats().rebuilds, 1u);
}

TEST(PlanRuntimeTest, FilterArrivalDefersOnQuotaAndDiscardsOnSampling) {
  const TimePoint t0 = FromCivil(CivilTime{2010, 9, 25});
  auto config = ParseWithPlans(
      "plan TENANT.SYSLOG { quota 1 per 1m; }\n"
      "plan TENANT.AUDIT { sample 50; }");
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  PlanRuntime runtime(config->plans, registry->get(),
                      PlanContextFromConfig(*config));
  ASSERT_TRUE(runtime.Rebuild().ok());

  auto classify = [](const std::string& feed) {
    Classification c;
    c.feeds = {feed};
    return c;
  };
  IncomingFile file;
  file.name = "syslog_1_201009250400.txt";
  file.size = 10;

  Classification c = classify("TENANT.SYSLOG");
  EXPECT_EQ(runtime.FilterArrival(file, t0, &c),
            PlanRuntime::ArrivalDecision::kAdmit);
  // Second file: the 1-per-minute budget is spent — defer, not discard
  // (tokens refill, so a landing-zone rescan can admit it later).
  c = classify("TENANT.SYSLOG");
  EXPECT_EQ(runtime.FilterArrival(file, t0, &c),
            PlanRuntime::ArrivalDecision::kDefer);
  c = classify("TENANT.SYSLOG");
  EXPECT_EQ(runtime.FilterArrival(file, t0 + kMinute, &c),
            PlanRuntime::ArrivalDecision::kAdmit);

  // Sampling: find one kept and one dropped name; the dropped one is
  // discarded outright (the hash never changes, retrying is pointless).
  std::string kept, dropped;
  for (int i = 0; i < 200 && (kept.empty() || dropped.empty()); ++i) {
    std::string name = "audit_" + std::to_string(i) + "_201009250400.txt";
    (PlanSampleKeeps("TENANT.AUDIT", name, 5000) ? kept : dropped) = name;
  }
  ASSERT_FALSE(kept.empty());
  ASSERT_FALSE(dropped.empty());
  IncomingFile audit;
  audit.size = 10;
  audit.name = kept;
  c = classify("TENANT.AUDIT");
  EXPECT_EQ(runtime.FilterArrival(audit, t0, &c),
            PlanRuntime::ArrivalDecision::kAdmit);
  audit.name = dropped;
  c = classify("TENANT.AUDIT");
  EXPECT_EQ(runtime.FilterArrival(audit, t0, &c),
            PlanRuntime::ArrivalDecision::kDiscard);
  EXPECT_EQ(runtime.stats().sampled_out, 1u);
  EXPECT_EQ(runtime.stats().quota_shed, 1u);
}

TEST(PlanRuntimeTest, TardinessScalesByDeclaredSlo) {
  auto config = ParseWithPlans(
      "plan TENANT.SYSLOG { slo interactive; }\n"
      "plan TENANT.AUDIT { slo bulk; }");
  ASSERT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  ASSERT_TRUE(registry.ok()) << registry.status();
  PlanRuntime runtime(config->plans, registry->get(),
                      PlanContextFromConfig(*config));
  ASSERT_TRUE(runtime.Rebuild().ok());
  EXPECT_EQ(runtime.TardinessFor("TENANT.SYSLOG", kMinute), 15 * kSecond);
  EXPECT_EQ(runtime.TardinessFor("TENANT.AUDIT", kMinute), 4 * kMinute);
  // Ungoverned feeds keep their own deadline bound.
  EXPECT_EQ(runtime.TardinessFor("CLICKS", kMinute), kMinute);
}

}  // namespace
}  // namespace bistro
