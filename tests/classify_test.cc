// Tests for the feed classifier: correctness of file-to-feed matching,
// multi-feed membership, unmatched routing, and equivalence of the
// compiled automaton with the linear oracle.

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"

namespace bistro {
namespace {

std::unique_ptr<FeedRegistry> MustRegistry(std::string_view text) {
  auto config = ParseConfig(text);
  EXPECT_TRUE(config.ok()) << config.status();
  auto registry = FeedRegistry::Create(*config);
  EXPECT_TRUE(registry.ok()) << registry.status();
  return std::move(*registry);
}

constexpr char kConfig[] = R"(
group SNMP {
  feed CPU    { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
  feed MEMORY { pattern "MEMORY_POLLER%i_%Y%m%d%H_%M.csv.gz"; }
  feed BPS    { pattern "BPS_%s_%Y%m%d%H.csv"; }
}
feed ALL_TXT  { pattern "%s.txt"; }
)";

TEST(ClassifierTest, MatchesPaperExamples) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("MEMORY_POLLER1_2010092504_51.csv.gz");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.feeds, std::vector<FeedName>{"SNMP.MEMORY"});
  EXPECT_EQ(c.primary_match.ints[0], 1);
  ASSERT_TRUE(c.primary_match.timestamp.has_value());
  EXPECT_EQ(*c.primary_match.timestamp,
            FromCivil(CivilTime{2010, 9, 25, 4, 51, 0}));
}

TEST(ClassifierTest, FileCanBelongToMultipleFeeds) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("CPU_POLL2_201009250503.txt");
  ASSERT_TRUE(c.matched());
  // Matches both SNMP.CPU and the catch-all ALL_TXT.
  EXPECT_EQ(c.feeds.size(), 2u);
}

TEST(ClassifierTest, UnmatchedFilesReported) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("random_junk.dat");
  EXPECT_FALSE(c.matched());
  EXPECT_EQ(classifier.stats().unmatched, 1u);
  EXPECT_EQ(classifier.stats().files, 1u);
}

TEST(ClassifierTest, IndexAndLinearAgreeOnRandomNames) {
  auto registry = MustRegistry(kConfig);
  // The compiled index against the linear oracle.
  FeedClassifier indexed(registry.get());
  Rng rng(99);
  std::vector<std::string> names = {
      "CPU_POLL1_201009250502.txt",
      "MEMORY_POLLER2_2010092510_02.csv.gz",
      "BPS_routerA_2010093011.csv",
      "readme.txt",
      "BPS_.csv",
      "",
      "CPU_POLL_201009250502.txt",
  };
  for (int i = 0; i < 200; ++i) {
    names.push_back(rng.AlnumString(rng.Uniform(30)));
    names.push_back("CPU_POLL" + std::to_string(rng.Uniform(100)) + "_" +
                    "201009250" + std::to_string(rng.Uniform(10)) + "0" +
                    std::to_string(rng.Uniform(6)) + ".txt");
  }
  for (const auto& name : names) {
    auto ci = indexed.Classify(name);
    auto cl = ClassifyLinear(*registry, name);
    EXPECT_EQ(ci.feeds, cl.feeds) << name;
  }
}

TEST(ClassifierTest, RebuildPicksUpFeedRevisions) {
  auto registry = MustRegistry(R"(feed F { pattern "old_%i.log"; })");
  FeedClassifier classifier(registry.get());
  EXPECT_TRUE(classifier.Classify("old_1.log").matched());
  EXPECT_FALSE(classifier.Classify("new_1.log").matched());
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i.log";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  classifier.Rebuild();
  EXPECT_FALSE(classifier.Classify("old_1.log").matched());
  EXPECT_TRUE(classifier.Classify("new_1.log").matched());
}

TEST(ClassifierTest, EmptyPrefixPatternsAlwaysChecked) {
  auto registry = MustRegistry(R"(
feed CATCHALL { pattern "%s.gz"; }
feed SPECIFIC { pattern "exact_%i.gz"; }
)");
  FeedClassifier classifier(registry.get());
  auto c = classifier.Classify("exact_7.gz");
  EXPECT_EQ(c.feeds.size(), 2u);
  auto c2 = classifier.Classify("anything.gz");
  EXPECT_EQ(c2.feeds, std::vector<FeedName>{"CATCHALL"});
}

TEST(ClassifierTest, AutomatonAgreesWithLinearOnRandomNames) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier automaton(registry.get());
  Rng rng(7);
  std::vector<std::string> names = {
      "CPU_POLL1_201009250502.txt",
      "MEMORY_POLLER2_2010092510_02.csv.gz",
      "BPS_routerA_2010093011.csv",
      "readme.txt",
      "BPS_.csv",
      "",
      "CPU_POLL_201009250502.txt",
      "CPU_POLL1_201013250502.txt",  // month 13: digit classes must reject
      "CPU_POLL1_201009250562.txt",  // minute 62
  };
  for (int i = 0; i < 300; ++i) {
    names.push_back(rng.AlnumString(rng.Uniform(30)));
    names.push_back("CPU_POLL" + std::to_string(rng.Uniform(100)) + "_" +
                    "201009250" + std::to_string(rng.Uniform(10)) + "0" +
                    std::to_string(rng.Uniform(6)) + ".txt");
  }
  for (const auto& name : names) {
    auto ca = automaton.Classify(name);
    auto cl = ClassifyLinear(*registry, name);
    EXPECT_EQ(ca.feeds, cl.feeds) << name;
    EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
    EXPECT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
    EXPECT_EQ(ca.primary_match.timestamp, cl.primary_match.timestamp) << name;
  }
}

TEST(ClassifierTest, AutomatonSkipsCandidateChecks) {
  // The fused scan decides membership in one pass: no per-pattern match
  // attempts are charged for either accepted or rejected names (the one
  // extraction probe on the primary pattern is not a candidate check).
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  ASSERT_TRUE(classifier.Classify("CPU_POLL1_201009250502.txt").matched());
  ASSERT_FALSE(classifier.Classify("random_junk.dat").matched());
  EXPECT_EQ(classifier.stats().candidate_checks, 0u);
}

TEST(ClassifierTest, ClassifyKeepsSnapshotUntilRebuild) {
  // Classify never recompiles: a registry revision shows only after the
  // reviser calls Rebuild, which swaps in a new table.
  auto registry = MustRegistry(R"(feed F { pattern "old_%i.log"; })");
  FeedClassifier classifier(registry.get());
  EXPECT_TRUE(classifier.Classify("old_1.log").matched());
  const auto before = classifier.automaton();
  FeedSpec revised = registry->FindFeed("F")->spec;
  revised.pattern = "new_%i.log";
  ASSERT_TRUE(registry->UpdateFeed(revised).ok());
  EXPECT_TRUE(classifier.Classify("old_1.log").matched());
  EXPECT_FALSE(classifier.Classify("new_1.log").matched());
  EXPECT_EQ(classifier.automaton(), before);
  ASSERT_TRUE(classifier.Rebuild().ok());
  EXPECT_NE(classifier.automaton(), before);
  EXPECT_NE(classifier.automaton()->TableDigest(), before->TableDigest());
  EXPECT_FALSE(classifier.Classify("old_1.log").matched());
  EXPECT_TRUE(classifier.Classify("new_1.log").matched());
}

TEST(ClassifierTest, AutomatonHandlesPercentLiteralAndPrefixlessPatterns) {
  auto registry = MustRegistry(R"(
feed PCT    { pattern "disk_%%full_%i.log"; }
feed NOPREF { pattern "%s_POLL%i.csv"; }
)");
  FeedClassifier automaton(registry.get());
  for (const char* name :
       {"disk_%full_9.log", "disk_full_9.log", "router_POLL3.csv",
        "a_b_POLL12.csv", "_POLL1.csv", "POLL1.csv"}) {
    auto ca = automaton.Classify(name);
    auto cl = ClassifyLinear(*registry, name);
    EXPECT_EQ(ca.feeds, cl.feeds) << name;
    EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
    EXPECT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
  }
  auto c = automaton.Classify("disk_%full_9.log");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.primary_match.ints, std::vector<int64_t>{9});
}

TEST(ClassifierTest, AutomatonOverlapKeepsLinearFeedOrder) {
  auto registry = MustRegistry(R"(
feed WIDE   { pattern "%s.txt"; }
feed MID    { pattern "log_%s.txt"; }
feed EXACT  { pattern "log_%i.txt"; }
)");
  FeedClassifier automaton(registry.get());
  auto ca = automaton.Classify("log_42.txt");
  auto cl = ClassifyLinear(*registry, "log_42.txt");
  ASSERT_EQ(ca.feeds.size(), 3u);
  EXPECT_EQ(ca.feeds, cl.feeds);
  // Extraction comes from the first matching feed's pattern, as in
  // the linear oracle: WIDE's %s captures "log_42".
  EXPECT_EQ(ca.primary_match.strings, cl.primary_match.strings);
}

TEST(ClassifierTest, LongDigitRunsReverifyAgainstExactMatcher) {
  // The DFA's %i loop accepts any digit run, but Pattern::Match refuses
  // spans whose value overflows int64. Runs of >= 19 digits trip the
  // scan's verify flag and fall back to the exact matcher.
  auto registry = MustRegistry(R"(feed F { pattern "n_%i.log"; })");
  FeedClassifier classifier(registry.get());
  // 25 ones: every suffix split overflows or breaks the literal tail.
  EXPECT_FALSE(
      classifier.Classify("n_1111111111111111111111111.log").matched());
  // Same length but value 1: leading zeros keep it in range.
  auto c = classifier.Classify("n_0000000000000000000000001.log");
  ASSERT_TRUE(c.matched());
  EXPECT_EQ(c.primary_match.ints, std::vector<int64_t>{1});
  // The verify path charges candidate checks; the fast path never does.
  EXPECT_GT(classifier.stats().candidate_checks, 0u);
}

TEST(ClassifierTest, AutomatonStatsAreExposed) {
  auto registry = MustRegistry(kConfig);
  FeedClassifier classifier(registry.get());
  classifier.Rebuild();
  auto snapshot = classifier.automaton();
  ASSERT_NE(snapshot, nullptr);
  const AutomatonStats& stats = snapshot->stats();
  EXPECT_EQ(stats.patterns, 4u);
  EXPECT_GT(stats.dfa_states, 1u);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_EQ(stats.dense_rows + stats.sparse_rows, stats.dfa_states);
  EXPECT_EQ(snapshot->feed_count(), 4u);
}

// Golden compiled tables. The expected values were captured from the
// construction that used per-subset vectors and a hash map keyed by them;
// the arena-based construction must reproduce its DFA bit for bit: the
// same state numbering, ranges, dense rows and accept sets.

// 2,000 SNMP-style feeds, every fourth led by a %i sequence number.
std::string SmallfileTable() {
  std::string text = "group SNMP {\n";
  for (int f = 0; f < 2000; ++f) {
    int metric = f / 40, poller = f % 40 + 1;
    std::string pattern =
        StrFormat("METRIC%02d_POLL%d_%%Y%%m%%d%%H%%M.dat", metric, poller);
    if (f % 4 == 3) pattern = "%i_" + pattern;
    text += StrFormat("  feed M%02dP%02d { pattern \"%s\"; }\n", metric,
                      poller, pattern.c_str());
  }
  return text + "}\n";
}

// 200 history feeds with distinct literal prefixes.
std::string BackfillTable() {
  std::string text = "group HIST {\n";
  for (int k = 0; k < 200; ++k) {
    text += StrFormat(
        "  feed H%03d { pattern \"H%03d_POLL%%i_%%Y%%m%%d%%H%%M.csv\"; }\n", k,
        k);
  }
  return text + "}\n";
}

// %s and %i loops, every time field, %% literals, alternates and a
// catch-all that overlaps other feeds.
std::string MixedTable() {
  std::string text;
  for (int i = 0; i < 36; ++i) {
    switch (i % 6) {
      case 0:
        text += StrFormat(
            "feed LOG%02d { pattern \"LOG%02d_%%s_%%Y%%m%%d.txt\"; }\n", i, i);
        break;
      case 1:
        text += StrFormat(
            "feed DEV%02d { pattern \"%%s_DEV%02d_%%i_%%m%%d.csv\"; }\n", i, i);
        break;
      case 2:
        text += StrFormat(
            "feed APP%02d { pattern \"APP%02d_%%i_%%s.%%y%%m%%d%%H%%M.gz\"; "
            "pattern \"APP%02d-%%i.%%Y%%m%%d\"; }\n",
            i, i, i);
        break;
      case 3:
        text += StrFormat(
            "feed REC%02d { pattern \"%%i_REC%02d_%%Y%%m%%d%%H%%M.dat\"; }\n", i,
            i);
        break;
      case 4:
        text += StrFormat(
            "feed X%02d { pattern \"X%02d_%%s_%%s_%%d.log\"; }\n", i, i);
        break;
      case 5:
        text += StrFormat(
            "feed T%02d { pattern "
            "\"T%02d_%%Y-%%m-%%d_%%H:%%M:%%S_%%i%%%%.csv\"; }\n",
            i, i);
        break;
    }
  }
  return text + "feed ANY_TXT { pattern \"%s.txt\"; }\n";
}

TEST(ClassifierTest, CompiledTablesMatchGolden) {
  struct Golden {
    const char* name;
    std::string table;
    uint64_t dfa_states;
    uint64_t nfa_states;
    uint64_t accept_sets;
    uint64_t digest;
  };
  const Golden goldens[] = {
      {"smallfile", SmallfileTable(), 58775, 88551, 2000,
       0xba2954e268159defull},
      {"backfill", BackfillTable(), 7024, 7801, 200, 0xdab5d7d3a90e89e7ull},
      {"mixed", MixedTable(), 3761, 1237, 43, 0x61bc3d55b2f7221dull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    auto registry = MustRegistry(g.table);
    auto compiled = FeedAutomaton::Compile(*registry);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const FeedAutomaton& automaton = **compiled;
    EXPECT_EQ(automaton.stats().dfa_states, g.dfa_states);
    EXPECT_EQ(automaton.stats().nfa_states, g.nfa_states);
    EXPECT_EQ(automaton.stats().accept_sets, g.accept_sets);
    EXPECT_EQ(automaton.TableDigest(), g.digest)
        << std::hex << "0x" << automaton.TableDigest();
  }
}

}  // namespace
}  // namespace bistro
