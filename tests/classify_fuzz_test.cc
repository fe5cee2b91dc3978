// Golden-equivalence fuzz suite for the compiled feed automaton: random
// feed tables, random names (conforming fills, near-miss mutations, and
// junk), asserting the classifier produces byte-identical feed sets and
// extracted fields to the per-pattern linear oracle, with and without a
// residual list — plus a Classify-during-Rebuild race test meant to run
// under asan/tsan.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "classify/classifier.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"

namespace bistro {
namespace {

// One pattern token, kept alongside the spec text so the fuzzer can
// synthesize names that conform to (or nearly conform to) the pattern.
struct Tok {
  enum Kind {
    kLit,
    kStr,   // %s
    kInt,   // %i
    kY4,    // %Y
    kY2,    // %y
    kMon,   // %m
    kDay,   // %d
    kHour,  // %H
    kMin,   // %M
    kSec    // %S
  };
  Kind kind = kLit;
  std::string lit;  // name-side text for kLit ("%" for a %% escape)
};

struct GenPattern {
  std::string spec;
  std::vector<Tok> toks;
};

void Append(GenPattern* p, Tok::Kind kind, const std::string& lit = "") {
  static const char* kSpec[] = {"",   "%s", "%i", "%Y", "%y",
                                "%m", "%d", "%H", "%M", "%S"};
  if (kind == Tok::kLit) {
    for (char c : lit) p->spec += (c == '%') ? std::string("%%") : std::string(1, c);
  } else {
    p->spec += kSpec[kind];
  }
  p->toks.push_back({kind, lit});
}

// Literal separators start with '_' or '.' so a %s fill (pure letters)
// can never swallow them; that keeps conforming fills actually matching
// most of the time without biasing the equivalence check.
std::string RandomSeparator(Rng& rng) {
  std::string sep(1, rng.Bernoulli(0.5) ? '_' : '.');
  size_t tail = rng.Uniform(4);
  for (size_t i = 0; i < tail; ++i) {
    sep += static_cast<char>('a' + rng.Uniform(26));
  }
  if (rng.Bernoulli(0.05)) sep += '%';  // exercise %% literals
  return sep;
}

Tok::Kind RandomField(Rng& rng) {
  static const Tok::Kind kPool[] = {Tok::kStr, Tok::kStr, Tok::kInt,
                                    Tok::kInt, Tok::kY4,  Tok::kY2,
                                    Tok::kMon, Tok::kDay, Tok::kHour,
                                    Tok::kMin, Tok::kSec};
  return kPool[rng.Uniform(sizeof(kPool) / sizeof(kPool[0]))];
}

GenPattern MakePattern(Rng& rng) {
  GenPattern p;
  if (rng.Bernoulli(0.7)) {
    // Literal prefix; otherwise the pattern is prefixless (starts on a
    // variable field), the trie's worst case.
    std::string prefix;
    size_t n = 2 + rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      prefix += static_cast<char>('a' + rng.Uniform(26));
    }
    Append(&p, Tok::kLit, prefix);
  }
  size_t fields = 1 + rng.Uniform(4);
  for (size_t i = 0; i < fields; ++i) {
    if (i > 0 || !p.toks.empty()) Append(&p, Tok::kLit, RandomSeparator(rng));
    Append(&p, RandomField(rng));
  }
  static const char* kExt[] = {".csv", ".log", ".dat", ".csv.gz", ".txt"};
  Append(&p, Tok::kLit, kExt[rng.Uniform(5)]);
  return p;
}

std::string TwoDigit(Rng& rng, int lo, int hi) {
  int v = lo + static_cast<int>(rng.Uniform(static_cast<uint64_t>(hi - lo + 1)));
  return StrFormat("%02d", v);
}

// A name that conforms to `p` token-for-token. Digit runs occasionally go
// long (>= 19 chars) to exercise the automaton's re-verification path.
std::string FillName(Rng& rng, const GenPattern& p) {
  std::string name;
  for (const Tok& t : p.toks) {
    switch (t.kind) {
      case Tok::kLit:
        name += t.lit;
        break;
      case Tok::kStr: {
        size_t n = 1 + rng.Uniform(8);
        for (size_t i = 0; i < n; ++i) {
          name += static_cast<char>('a' + rng.Uniform(26));
        }
        break;
      }
      case Tok::kInt: {
        size_t n = rng.Bernoulli(0.06) ? 19 + rng.Uniform(7) : 1 + rng.Uniform(6);
        bool lead_zero = n >= 19 && rng.Bernoulli(0.5);
        for (size_t i = 0; i < n; ++i) {
          name += lead_zero && i + 2 < n
                      ? '0'
                      : static_cast<char>('0' + rng.Uniform(10));
        }
        break;
      }
      case Tok::kY4:
        name += StrFormat("%04d", 1970 + static_cast<int>(rng.Uniform(80)));
        break;
      case Tok::kY2:
        name += TwoDigit(rng, 0, 99);
        break;
      case Tok::kMon:
        name += TwoDigit(rng, 1, 12);
        break;
      case Tok::kDay:
        name += TwoDigit(rng, 1, 31);
        break;
      case Tok::kHour:
        name += TwoDigit(rng, 0, 23);
        break;
      case Tok::kMin:
      case Tok::kSec:
        name += TwoDigit(rng, 0, 59);
        break;
    }
  }
  return name;
}

std::string Mutate(Rng& rng, std::string name) {
  static const char kBytes[] = "abcxyz0123456789_.%";
  if (name.empty()) return name;
  size_t pos = rng.Uniform(name.size());
  switch (rng.Uniform(3)) {
    case 0:  // replace
      name[pos] = kBytes[rng.Uniform(sizeof(kBytes) - 1)];
      break;
    case 1:  // insert
      name.insert(name.begin() + static_cast<ptrdiff_t>(pos),
                  kBytes[rng.Uniform(sizeof(kBytes) - 1)]);
      break;
    default:  // delete
      name.erase(name.begin() + static_cast<ptrdiff_t>(pos));
      break;
  }
  return name;
}

void ExpectSameAsOracle(const FeedClassifier& classifier,
                        const FeedRegistry& registry, const std::string& name) {
  Classification ca = classifier.Classify(name);
  Classification cl = ClassifyLinear(registry, name);
  ASSERT_EQ(ca.feeds, cl.feeds) << name;
  ASSERT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
  ASSERT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
  ASSERT_EQ(ca.primary_match.timestamp, cl.primary_match.timestamp) << name;
}

TEST(ClassifyFuzzTest, AutomatonMatchesPerPatternGoldenAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", (unsigned long long)seed));
    Rng rng(seed);

    // Random feed table: primaries, occasional alternates, occasional
    // duplicated pattern (exact multi-feed overlap), plus a catch-all.
    std::vector<GenPattern> patterns;
    std::string config;
    size_t feeds = 6 + rng.Uniform(7);
    for (size_t f = 0; f < feeds; ++f) {
      GenPattern primary =
          (!patterns.empty() && rng.Bernoulli(0.15))
              ? patterns[rng.Uniform(patterns.size())]  // shared pattern
              : MakePattern(rng);
      config += StrFormat("feed F%zu {\n  pattern \"%s\";\n", f,
                          primary.spec.c_str());
      patterns.push_back(primary);
      size_t alts = rng.Uniform(3);
      for (size_t a = 0; a < alts; ++a) {
        GenPattern alt = MakePattern(rng);
        config += StrFormat("  pattern \"%s\";\n", alt.spec.c_str());
        patterns.push_back(alt);
      }
      config += "}\n";
    }
    if (rng.Bernoulli(0.5)) {
      config += "feed CATCHALL { pattern \"%s.csv\"; }\n";
      GenPattern catchall;
      Append(&catchall, Tok::kStr);
      Append(&catchall, Tok::kLit, ".csv");
      patterns.push_back(catchall);
    }

    auto parsed = ParseConfig(config);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << config;
    auto registry = FeedRegistry::Create(*parsed);
    ASSERT_TRUE(registry.ok()) << registry.status();

    FeedClassifier automaton((*registry).get());
    ASSERT_TRUE(automaton.compile_status().ok());

    std::vector<std::string> names;
    for (int round = 0; round < 40; ++round) {
      const GenPattern& p = patterns[rng.Uniform(patterns.size())];
      std::string fill = FillName(rng, p);
      names.push_back(fill);
      names.push_back(Mutate(rng, fill));
      names.push_back(Mutate(rng, Mutate(rng, fill)));
      names.push_back(rng.AlnumString(rng.Uniform(32)));
    }

    for (const std::string& name : names) {
      ExpectSameAsOracle(automaton, **registry, name);
    }
  }
}

// `n` "contains this id" feeds: their subset construction grows
// exponentially, so from ~16 of them the table breaks the compile budget.
std::string ContainsIdFeeds(int n, const char* name_format = "DEV%02d") {
  std::string config;
  for (int i = 0; i < n; ++i) {
    config += StrFormat("feed %s { pattern \"%%s_DEV%d_%%s\"; }\n",
                        StrFormat(name_format, i).c_str(), i);
  }
  return config;
}

// Readers classify against whatever snapshot is current while the main
// thread revises ALPHA and rebuilds `rebuilds` times. `extra` feeds ride
// along unchanged; with contains-id feeds among them every snapshot has a
// residual list, so the merge path races the swaps too.
void RaceClassifyWithRebuild(const std::string& extra, int rebuilds) {
  auto parsed = ParseConfig(R"(
feed ALPHA { pattern "alpha_%i.log"; }
feed BETA  { pattern "beta_%s_%Y%m%d.csv"; }
)" + extra);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();

  FeedClassifier classifier((*registry).get());
  ASSERT_TRUE(classifier.compile_status().ok()) << classifier.compile_status();
  const bool residual = !classifier.automaton()->residual().empty();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&classifier, &stop, residual] {
      while (!stop.load(std::memory_order_relaxed)) {
        // BETA never changes: every snapshot must classify it.
        Classification beta = classifier.Classify("beta_x_20260808.csv");
        ASSERT_EQ(beta.feeds, std::vector<FeedName>{"BETA"});
        if (residual) {
          // BETA from the DFA, then DEV03 from the residual list.
          Classification both = classifier.Classify("beta_DEV3_20260808.csv");
          ASSERT_EQ(both.feeds, (std::vector<FeedName>{"BETA", "DEV03"}));
          ASSERT_EQ(both.primary_match.strings,
                    std::vector<std::string>{"DEV3"});
        }
        // ALPHA flips between two patterns: each snapshot matches
        // exactly one of the two spellings.
        Classification a1 = classifier.Classify("alpha_7.log");
        Classification a2 = classifier.Classify("gamma_7.log");
        ASSERT_LE(a1.feeds.size() + a2.feeds.size(), 2u);
        ASSERT_TRUE(classifier.Classify("junk").feeds.empty());
      }
    });
  }

  FeedSpec spec = (*registry)->FindFeed("ALPHA")->spec;
  for (int i = 0; i < rebuilds; ++i) {
    spec.pattern = (i % 2 == 0) ? "gamma_%i.log" : "alpha_%i.log";
    ASSERT_TRUE((*registry)->UpdateFeed(spec).ok());
    ASSERT_TRUE(classifier.Rebuild().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // The last flip decides which spelling matches.
  const bool alpha_last = rebuilds % 2 == 0;
  EXPECT_EQ(classifier.Classify("alpha_9.log").matched(), alpha_last);
  EXPECT_EQ(classifier.Classify("gamma_9.log").matched(), !alpha_last);
}

TEST(ClassifyFuzzTest, SnapshotClassifyRacesWithRebuild) {
  RaceClassifyWithRebuild("", 400);
  // Each compile of a residual table first runs into the budget (~1.5 s
  // in an optimized build), so this leg swaps only once.
  RaceClassifyWithRebuild(ContainsIdFeeds(25), 1);
}

// 25 contains-id feeds break the compile budget. They move to the
// residual list, and the table loads: an empty DFA plus 25 patterns
// matched one by one.
TEST(ClassifyFuzzTest, ContainsIdTableLoadsWithResidualList) {
  auto parsed = ParseConfig(ContainsIdFeeds(25));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();

  MetricsRegistry metrics;
  FeedClassifier classifier((*registry).get());
  classifier.AttachMetrics(&metrics);
  ASSERT_TRUE(classifier.compile_status().ok()) << classifier.compile_status();
  auto snapshot = classifier.automaton();
  EXPECT_EQ(snapshot->stats().residual_patterns, 25u);
  EXPECT_EQ(snapshot->stats().residual_feeds, 25u);
  EXPECT_EQ(snapshot->stats().patterns, 0u);
  EXPECT_EQ(metrics.GetGauge("bistro_classifier_residual_patterns", "")
                ->value(),
            25);
  EXPECT_NE(snapshot->ResidualFeedNames().find("DEV00"), std::string::npos);

  Classification c = classifier.Classify("x_DEV3_y");
  EXPECT_EQ(c.feeds, std::vector<FeedName>{"DEV03"});
  EXPECT_EQ(c.primary_match.strings, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(classifier.stats().candidate_checks, 25u);
  ExpectSameAsOracle(classifier, **registry, "a_DEV1_DEV12_b_DEV7_c");
  EXPECT_FALSE(classifier.Classify("DEV3").matched());
}

// Past kMaxResidualPatterns the residual list would cost too much per
// file: the table is refused with an error naming the feeds.
TEST(ClassifyFuzzTest, ContainsIdTableIsRefusedByCompileBudget) {
  auto parsed = ParseConfig(ContainsIdFeeds(300, "DEV%03d"));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();
  auto compiled = FeedAutomaton::Compile(**registry);
  ASSERT_EQ(compiled.status().code(), StatusCode::kResourceExhausted)
      << compiled.status();
  const std::string& message = compiled.status().message();
  EXPECT_NE(message.find("compile budget"), std::string::npos) << message;
  EXPECT_NE(message.find("300 pattern(s) of 300 feed(s)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("DEV000"), std::string::npos) << message;
  EXPECT_NE(message.find("and 284 more"), std::string::npos) << message;
}

// The mixed table: 2,000 distinct-prefix feeds stay in the DFA while 25
// contains-id feeds go to the residual list. Half of those sort before
// every DFA feed and half after, so the registry-order merge is checked
// on both sides, and a name can match DFA and residual feeds at once.
TEST(ClassifyFuzzTest, ResidualTableMatchesLinearOracle) {
  std::string config;
  for (int i = 0; i < 2000; ++i) {
    config += StrFormat("feed B%04d { pattern \"b%04d_%%s_%%i.csv\"; }\n", i,
                        i);
  }
  for (int i = 0; i < 25; ++i) {
    config += StrFormat("feed %s%02d { pattern \"%%s_DEV%d_%%s\"; }\n",
                        i % 2 == 0 ? "A" : "Z", i, i);
  }
  auto parsed = ParseConfig(config);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();
  FeedClassifier classifier((*registry).get());
  ASSERT_TRUE(classifier.compile_status().ok()) << classifier.compile_status();
  auto snapshot = classifier.automaton();
  EXPECT_EQ(snapshot->stats().residual_patterns, 25u);
  EXPECT_EQ(snapshot->stats().patterns, 2000u);

  // A residual feed first, then a DFA feed, then a residual feed.
  Classification c = classifier.Classify("b0042_DEV3_DEV4_7.csv");
  EXPECT_EQ(c.feeds, (std::vector<FeedName>{"A04", "B0042", "Z03"}));
  EXPECT_EQ(c.primary_match.strings,
            (std::vector<std::string>{"b0042_DEV3", "7.csv"}));

  Rng rng(2025);
  auto digits = [&rng](size_t n) {
    std::string d;
    for (size_t i = 0; i < n; ++i) {
      d += static_cast<char>('0' + rng.Uniform(10));
    }
    return d;
  };
  auto dev = [&rng] { return StrFormat("DEV%d", (int)rng.Uniform(30)); };
  for (int i = 0; i < 3000; ++i) {
    // Long digit runs (>= 19) take the verify path, where %i overflows.
    std::string number = digits(rng.Bernoulli(0.1) ? 19 + rng.Uniform(4)
                                                    : 1 + rng.Uniform(6));
    std::string feed = StrFormat("b%04d", (int)rng.Uniform(2000));
    std::string name;
    switch (rng.Uniform(4)) {
      case 0:  // DFA feed only
        name = feed + "_" + rng.AlnumString(1 + rng.Uniform(6)) + "_" + number +
               ".csv";
        break;
      case 1:  // residual feed only
        name = rng.AlnumString(1 + rng.Uniform(6)) + "_" + dev() + "_" + number;
        break;
      case 2:  // both, possibly several residual feeds
        name = feed + "_" + dev() + "_" + dev() + "_" + number + ".csv";
        break;
      default:
        name = Mutate(rng, feed + "_" + dev() + "_" + number + ".csv");
        break;
    }
    ExpectSameAsOracle(classifier, **registry, name);
  }
}

// The budget leaves room for the large benign tables of E14: 10^5
// distinct-prefix patterns (~711k states) and 1,000 prefixless ones,
// whose every state carries all 1,000 %s loops.
TEST(ClassifyFuzzTest, LargeTablesCompileWithinBudget) {
  struct Table {
    int feeds;
    const char* pattern;  // StrFormat'd with the feed index
    uint64_t dfa_states;
  };
  const Table tables[] = {{100000, "m%05d_%%i.csv", 711112},
                          {1000, "%%s_POLL%%i_f%04d.csv", 5121}};
  for (const Table& t : tables) {
    SCOPED_TRACE(t.pattern);
    ServerConfig config;
    for (int i = 0; i < t.feeds; ++i) {
      FeedSpec spec;
      spec.name = StrFormat("F%05d", i);
      spec.pattern = StrFormat(t.pattern, i);
      config.feeds.push_back(std::move(spec));
    }
    auto registry = FeedRegistry::Create(config);
    ASSERT_TRUE(registry.ok()) << registry.status();
    auto compiled = FeedAutomaton::Compile(**registry);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    EXPECT_EQ((*compiled)->stats().dfa_states, t.dfa_states);
    EXPECT_LT((*compiled)->stats().dfa_states, FeedAutomaton::kMaxDfaStates);
  }
}

}  // namespace
}  // namespace bistro
