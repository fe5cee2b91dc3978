// Golden-equivalence fuzz suite for the compiled feed automaton: random
// feed tables, random names (conforming fills, near-miss mutations, and
// junk), asserting the automaton classifier produces byte-identical feed
// sets and extracted fields to the per-pattern linear classifier — plus a
// Classify-during-Rebuild race test meant to run under asan/tsan.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analyzer/tokenizer.h"
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

    FeedClassifier automaton((*registry).get(),
                             FeedClassifier::IndexMode::kAutomaton);
    FeedClassifier linear((*registry).get(),
                          FeedClassifier::IndexMode::kLinear);
    automaton.Rebuild();
    auto snapshot = automaton.automaton();
    ASSERT_NE(snapshot, nullptr);

    std::vector<std::string> names;
    for (int round = 0; round < 40; ++round) {
      const GenPattern& p = patterns[rng.Uniform(patterns.size())];
      std::string fill = FillName(rng, p);
      names.push_back(fill);
      names.push_back(Mutate(rng, fill));
      names.push_back(Mutate(rng, Mutate(rng, fill)));
      names.push_back(rng.AlnumString(rng.Uniform(32)));
    }

    std::vector<NameToken> fused_tokens;
    for (const std::string& name : names) {
      Classification ca = automaton.Classify(name);
      Classification cl = linear.Classify(name);
      ASSERT_EQ(ca.feeds, cl.feeds) << name;
      ASSERT_EQ(ca.primary_match.strings, cl.primary_match.strings) << name;
      ASSERT_EQ(ca.primary_match.ints, cl.primary_match.ints) << name;
      ASSERT_EQ(ca.primary_match.timestamp, cl.primary_match.timestamp)
          << name;

      // The fused scan's tokenization must agree with the analyzer's,
      // and its accept decision with the plain scan's.
      fused_tokens.clear();
      FeedAutomaton::ScanOutcome fused =
          snapshot->ScanAndTokenize(name, &fused_tokens);
      FeedAutomaton::ScanOutcome plain = snapshot->Scan(name);
      ASSERT_EQ(fused.accepts, plain.accepts) << name;
      ASSERT_EQ(fused.verify, plain.verify) << name;
      ASSERT_EQ(fused_tokens, TokenizeName(name)) << name;
    }
  }
}

TEST(ClassifyFuzzTest, SnapshotClassifyRacesWithRebuild) {
  auto parsed = ParseConfig(R"(
feed ALPHA { pattern "alpha_%i.log"; }
feed BETA  { pattern "beta_%s_%Y%m%d.csv"; }
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();

  FeedClassifier classifier((*registry).get(),
                            FeedClassifier::IndexMode::kAutomaton);
  classifier.Rebuild();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&classifier, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // BETA never changes: every snapshot must classify it.
        Classification beta = classifier.ClassifySnapshot("beta_x_20260808.csv");
        ASSERT_EQ(beta.feeds, std::vector<FeedName>{"BETA"});
        // ALPHA flips between two patterns: each snapshot matches
        // exactly one of the two spellings.
        Classification a1 = classifier.ClassifySnapshot("alpha_7.log");
        Classification a2 = classifier.ClassifySnapshot("gamma_7.log");
        ASSERT_LE(a1.feeds.size() + a2.feeds.size(), 2u);
        ASSERT_TRUE(classifier.ClassifySnapshot("junk").feeds.empty());
      }
    });
  }

  FeedSpec spec = (*registry)->FindFeed("ALPHA")->spec;
  for (int i = 0; i < 400; ++i) {
    spec.pattern = (i % 2 == 0) ? "gamma_%i.log" : "alpha_%i.log";
    ASSERT_TRUE((*registry)->UpdateFeed(spec).ok());
    classifier.Rebuild();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Final state: i=399 restored alpha.
  EXPECT_TRUE(classifier.ClassifySnapshot("alpha_9.log").matched());
  EXPECT_FALSE(classifier.ClassifySnapshot("gamma_9.log").matched());
}

// Adversarial tables: "contains this id" patterns make subset construction
// exponential. 25 of them must be refused by the compile budget — with an
// error naming the feeds — instead of exhausting memory.
TEST(ClassifyFuzzTest, ContainsIdTableIsRefusedByCompileBudget) {
  std::string config;
  for (int i = 0; i < 25; ++i) {
    config += StrFormat("feed DEV%02d { pattern \"%%s_DEV%d_%%s\"; }\n", i, i);
  }
  auto parsed = ParseConfig(config);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto registry = FeedRegistry::Create(*parsed);
  ASSERT_TRUE(registry.ok()) << registry.status();

  MetricsRegistry metrics;
  FeedClassifier classifier((*registry).get());
  classifier.AttachMetrics(&metrics);
  Status status = classifier.compile_status();
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_NE(status.message().find("compile budget"), std::string::npos);
  EXPECT_NE(status.message().find("DEV00"), std::string::npos) << status;
  EXPECT_EQ(classifier.automaton(), nullptr);

  // Without a table nothing matches. The failed registry version is not
  // recompiled on every call: a recompile would now count a failure.
  EXPECT_FALSE(classifier.Classify("x_DEV3_y").matched());
  EXPECT_FALSE(classifier.ClassifySnapshot("x_DEV3_y").matched());
  EXPECT_EQ(metrics.GetCounter("bistro_classifier_compile_failures_total", "")
                ->value(),
            0u);
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
