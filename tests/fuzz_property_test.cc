// Randomized property tests over the language layers:
//  - generated configurations survive FormatConfig -> ParseConfig intact,
//    both built as structs and written as text from the declared key
//    tables (fault plans too), and parse errors point at the bad key;
//  - GeneralizeName always yields a compilable pattern that matches the
//    input name;
//  - random corpora rendered from random pattern templates are fully
//    re-matched by their own discovered patterns;
//  - WAL/KvStore state survives arbitrary crash points (prefix truncation
//    never yields corruption errors, only a consistent earlier state).

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "analyzer/infer.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"
#include "fault/plan.h"
#include "kv/kvstore.h"
#include "net/protocol.h"
#include "net/stream.h"
#include "pattern/pattern.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

// ------------------------------------------------------------ config fuzz

ServerConfig RandomConfig(Rng* rng) {
  ServerConfig config;
  int feeds = 1 + static_cast<int>(rng->Uniform(6));
  for (int f = 0; f < feeds; ++f) {
    FeedSpec feed;
    feed.name = "F" + std::to_string(f);
    if (rng->Bernoulli(0.4)) feed.name = "GRP.SUB" + std::to_string(f);
    feed.pattern = "feed" + std::to_string(f) + "_%i_%Y%m%d.dat";
    int alts = static_cast<int>(rng->Uniform(3));
    for (int a = 0; a < alts; ++a) {
      feed.alt_patterns.push_back("alt" + std::to_string(f) + "_" +
                                  std::to_string(a) + "_%s.log");
    }
    switch (rng->Uniform(3)) {
      case 0:
        feed.normalize.action = CompressionAction::kCompress;
        feed.normalize.codec =
            rng->Bernoulli(0.5) ? CodecKind::kLz : CodecKind::kRle;
        break;
      case 1:
        feed.normalize.action = CompressionAction::kDecompress;
        break;
      default:
        break;
    }
    if (rng->Bernoulli(0.5)) {
      feed.normalize.rename_template = "%Y/%m/%d/out%i.dat";
    }
    feed.tardiness = static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
    config.feeds.push_back(std::move(feed));
  }
  int subs = static_cast<int>(rng->Uniform(4));
  for (int s = 0; s < subs; ++s) {
    SubscriberSpec sub;
    sub.name = "sub" + std::to_string(s);
    if (rng->Bernoulli(0.5)) sub.host = "host-" + rng->AlnumString(6);
    if (rng->Bernoulli(0.5)) sub.destination = "/data/" + rng->AlnumString(4);
    sub.feeds.push_back(
        config.feeds[rng->Uniform(config.feeds.size())].name);
    sub.method =
        rng->Bernoulli(0.5) ? DeliveryMethod::kPush : DeliveryMethod::kNotify;
    switch (rng->Uniform(5)) {
      case 0:
        sub.trigger.batch.mode = BatchSpec::Mode::kCount;
        sub.trigger.batch.count = 1 + static_cast<int>(rng->Uniform(10));
        break;
      case 1:
        sub.trigger.batch.mode = BatchSpec::Mode::kTime;
        sub.trigger.batch.timeout =
            static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
        break;
      case 2:
        sub.trigger.batch.mode = BatchSpec::Mode::kCountOrTime;
        sub.trigger.batch.count = 1 + static_cast<int>(rng->Uniform(10));
        sub.trigger.batch.timeout =
            static_cast<Duration>(1 + rng->Uniform(600)) * kSecond;
        break;
      case 3:
        sub.trigger.batch.mode = BatchSpec::Mode::kPunctuation;
        break;
      default:
        break;
    }
    if (rng->Bernoulli(0.6)) {
      sub.trigger.command = "run_" + rng->AlnumString(5) + " \"arg\\x\"";
      sub.trigger.remote = rng->Bernoulli(0.3);
    }
    if (rng->Bernoulli(0.4)) {
      sub.window = static_cast<Duration>(1 + rng->Uniform(72)) * kHour;
    }
    config.subscribers.push_back(std::move(sub));
  }
  return config;
}

class ConfigFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzzTest, FormatParseRoundTrip) {
  Rng rng(GetParam() * 101);
  for (int iter = 0; iter < 25; ++iter) {
    ServerConfig config = RandomConfig(&rng);
    std::string text = FormatConfig(config);
    auto reparsed = ParseConfig(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
    EXPECT_EQ(*reparsed, config) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTest, ::testing::Range(1, 6));

// ------------------------------------------------- schema-driven config fuzz

// Valid literals for each value syntax the key tables declare, keyed by
// the declared type string (config_docs_test pins those to the docs). A
// choice ("a / b / c") needs no entry; any other new syntax does.
const std::map<std::string, std::vector<std::string>> kLiterals = {
    {"int ≥ 0", {"0", "7", "4096"}},
    {"int ≥ 1", {"1", "8", "4097"}},
    {"int in [1, 256]", {"1", "8", "256"}},
    {"number ≥ 1", {"1", "3.5", "11"}},
    {"number in [0, 1]", {"0", "0.25", "1"}},
    {"number in (0, 100]", {"12.5", "25", "100"}},
    {"duration ≥ 0", {"0s", "1500us", "250ms", "30s", "5m", "2h", "1d"}},
    {"duration > 0", {"1500us", "250ms", "30s", "5m", "2h", "1d"}},
    {"quoted string",
     {"\"\"", "\"10.0.0.2:4400\"", "\"say \\\"hi\\\" \\\\ bye\""}},
    {"quoted pattern", {"\"CPU_POLL%i_%Y%m%d%H%M.txt\"", "\"event_%s.log\""}},
    {"ident list", {"A", "A.b, c_2"}},
    {"list of provenance / checksum", {"provenance", "checksum, provenance"}},
    {"flag", {""}},
    {"peer name", {"west"}},
    {"<i> of <n>", {"0 of 1", "1 of 4"}},
    {"N [per <duration>]", {"1", "600 per 5m"}},
    {"N to <id>, ...", {"100 to a", "30 to a, 70 to b"}},
    {"(file / punctuation / batch [count N] [timeout D]) [exec \"cmd\"] "
     "[remote]",
     {"file", "punctuation exec \"refresh\"",
      "batch count 4 timeout 2m exec \"load \\\"x\\\"\" remote",
      "batch timeout 90s"}},
    {"\"ep\" down T up T", {"\"sub0\" down 10m up 35m"}},
    {"\"ep\" F (F ≥ 1)", {"\"sub1\" 4"}},
    {"\"a\" \"b\" at T", {"\"up\" \"down\" at 2s"}},
    {"\"a\" \"b\" D at T", {"\"up\" \"down\" 250ms at 0s"}},
};

std::vector<std::string> Literals(const syntax::KeyDoc& key) {
  auto it = kLiterals.find(key.type);
  if (it != kLiterals.end()) return it->second;
  std::vector<std::string> words;
  for (const std::string& word : Split(key.type, '/')) {
    words.emplace_back(Trim(word));
  }
  for (const std::string& word : words) {
    if (word.empty() || !std::all_of(word.begin(), word.end(), [](char c) {
          return IsAlnum(c) || c == '_';
        })) {
      ADD_FAILURE() << "no literals for key '" << key.name << "' of type "
                    << key.type;
      return {};
    }
  }
  return words;
}

// A random `{ ... }` body for a declared block: required keys always, other
// keys with probability 1/2, each set to a literal of its declared syntax.
std::string RandomBody(const std::vector<syntax::KeyDoc>& keys, Rng* rng) {
  std::string out = "{\n";
  for (const syntax::KeyDoc& key : keys) {
    if (!key.alias_of.empty() || (!key.required && rng->Bernoulli(0.5))) {
      continue;
    }
    if (key.block) {
      out += "  " + key.name + " " + RandomBody(key.fields, rng) + "\n";
      continue;
    }
    std::vector<std::string> values = Literals(key);
    if (values.empty()) continue;
    if (key.required) std::erase(values, "\"\"");
    const std::string& v = values[rng->Uniform(values.size())];
    out += "  " + key.name + (v.empty() ? "" : " " + v) + ";\n";
  }
  return out + "}";
}

// Zero to two instances of every top-level block ConfigSchema() declares.
std::string RandomConfigText(Rng* rng) {
  std::string text;
  int serial = 0;
  for (const syntax::BlockDoc& block : ConfigSchema()) {
    const uint64_t count = rng->Uniform(block.named ? 3 : 2);
    for (uint64_t i = 0; i < count; ++i) {
      text += block.keyword;
      if (block.named) text += " " + block.keyword + std::to_string(serial++);
      text += " " + RandomBody(block.keys, rng) + "\n";
    }
  }
  return text;
}

class SchemaFuzzTest : public ::testing::TestWithParam<int> {};

// Generated text either fails validation (cross-key rules such as peer
// routing, which the generator does not know) or parses, formats, and
// parses back to the same config, with formatting a fixed point.
TEST_P(SchemaFuzzTest, GeneratedConfigsRoundTrip) {
  Rng rng(GetParam() * 7919);
  int accepted = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const std::string text = RandomConfigText(&rng);
    auto config = ParseConfig(text);
    if (!config.ok()) {
      EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << text;
      continue;
    }
    ++accepted;
    const std::string formatted = FormatConfig(*config);
    auto reparsed = ParseConfig(formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
    EXPECT_EQ(*reparsed, *config) << text << "\n---\n" << formatted;
    EXPECT_EQ(FormatConfig(*reparsed), formatted);
  }
  EXPECT_GE(accepted, 20);
}

// Renaming any key of a valid generated config to an unknown one fails
// with an error at that key's line and column.
TEST_P(SchemaFuzzTest, UnknownKeyErrorPointsAtIt) {
  Rng rng(GetParam() * 104729);
  int checked = 0;
  while (checked < 20) {
    const std::string text = RandomConfigText(&rng);
    if (!ParseConfig(text).ok()) continue;
    std::vector<std::string> lines = Split(text, '\n');
    std::vector<size_t> key_lines;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (StartsWith(lines[i], "  ")) key_lines.push_back(i);
    }
    if (key_lines.empty()) continue;
    const size_t line = key_lines[rng.Uniform(key_lines.size())];
    const std::string& key_line = lines[line];
    lines[line] = "  bogus_key" + key_line.substr(key_line.find_first_of(" ;", 2));
    auto broken = ParseConfig(Join(lines, "\n"));
    ASSERT_FALSE(broken.ok());
    // A subscriber group whose first key is unknown reads as a feed group,
    // so only the location is the same for every block.
    EXPECT_TRUE(StartsWith(broken.status().message(),
                           StrFormat("config line %zu:3: ", line + 1)))
        << broken.status().message();
    ++checked;
  }
}

// Operator text is outside input: byte-level damage to a valid config
// either still parses or fails with a located InvalidArgument, never a
// crash or an error without a position.
TEST_P(SchemaFuzzTest, DamagedTextFailsWithALocatedError) {
  Rng rng(GetParam() * 613);
  static const char kBytes[] = "{};,\"\\#-.0a_ \n\t%";
  for (int iter = 0; iter < 300; ++iter) {
    std::string text = RandomConfigText(&rng);
    for (int edits = 1 + rng.Uniform(3); edits > 0 && !text.empty(); --edits) {
      const size_t at = rng.Uniform(text.size());
      switch (rng.Uniform(3)) {
        case 0:
          text.erase(at, 1 + rng.Uniform(8));
          break;
        case 1:
          text.insert(at, 1, kBytes[rng.Uniform(sizeof(kBytes) - 1)]);
          break;
        default:
          text[at] = static_cast<char>(rng.Uniform(256));
          break;
      }
    }
    auto config = ParseConfig(text);
    if (config.ok()) {
      EXPECT_TRUE(ParseConfig(FormatConfig(*config)).ok()) << text;
      continue;
    }
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
    const std::string& msg = config.status().message();
    // Whole-config checks (duplicate names, failover targets) name
    // blocks, not positions.
    if (!StartsWith(msg, "config line ")) {
      EXPECT_TRUE(msg.find("duplicate") != std::string::npos ||
                  msg.find("failover") != std::string::npos ||
                  msg.find("subscriber name") != std::string::npos)
          << msg;
    }
  }
}

TEST_P(SchemaFuzzTest, GeneratedFaultPlansRoundTrip) {
  Rng rng(GetParam() * 31);
  for (int iter = 0; iter < 50; ++iter) {
    const std::string text =
        "fault_plan " + RandomBody(FaultPlanSchema().keys, &rng) + "\n";
    auto plan = ParseFaultPlan(text);
    ASSERT_TRUE(plan.ok()) << plan.status() << "\n" << text;
    const std::string formatted = FormatFaultPlan(*plan);
    auto reparsed = ParseFaultPlan(formatted);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << formatted;
    EXPECT_EQ(*reparsed, *plan) << text << "\n---\n" << formatted;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaFuzzTest, ::testing::Range(1, 6));

// -------------------------------------------------------- generalization

class GeneralizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneralizePropertyTest, GeneralizedPatternAlwaysMatchesItsName) {
  Rng rng(GetParam() * 7 + 1);
  static const char* kSeps = "_-./";
  for (int iter = 0; iter < 200; ++iter) {
    // Random structured name: alternating word/number/separator runs.
    std::string name;
    int segments = 1 + static_cast<int>(rng.Uniform(8));
    for (int s = 0; s < segments; ++s) {
      if (s > 0) name += kSeps[rng.Uniform(4)];
      if (rng.Bernoulli(0.5)) {
        name += rng.AlnumString(1 + rng.Uniform(8));
      } else {
        name += std::to_string(rng.Uniform(100000000));
      }
    }
    std::string generalized = GeneralizeName(name);
    auto pattern = Pattern::Compile(generalized);
    ASSERT_TRUE(pattern.ok()) << name << " -> " << generalized;
    EXPECT_TRUE(pattern->Matches(name)) << name << " -> " << generalized;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizePropertyTest, ::testing::Range(1, 6));

// ------------------------------------------------------- discovery closure

class DiscoveryClosureTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryClosureTest, DiscoveredPatternsCoverTheirClusters) {
  Rng rng(GetParam() * 31 + 7);
  // Corpus: several synthetic conventions with random literals.
  std::vector<FileObservation> corpus;
  int conventions = 2 + static_cast<int>(rng.Uniform(4));
  for (int c = 0; c < conventions; ++c) {
    std::string stem = ToUpper(rng.AlnumString(3 + rng.Uniform(5)));
    // Strip digits from the stem so conventions differ by alpha text.
    for (auto& ch : stem) {
      if (IsDigit(ch)) ch = 'X';
    }
    int files = 4 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < files; ++i) {
      CivilTime t{2010, 1 + (int)rng.Uniform(12), 1 + (int)rng.Uniform(28),
                  (int)rng.Uniform(24), (int)rng.Uniform(60), 0};
      corpus.push_back({StrFormat("%s_%llu_%04d%02d%02d%02d%02d.csv",
                                  stem.c_str(),
                                  (unsigned long long)rng.Uniform(5),
                                  t.year, t.month, t.day, t.hour, t.minute),
                        0});
    }
  }
  DiscoveryOptions options;
  options.min_support = 1;
  auto result = DiscoverFeeds(corpus, options);
  // Every observation matches at least one discovered pattern, and each
  // feed's pattern matches exactly file_count observations.
  std::vector<Pattern> compiled;
  std::vector<size_t> expected_counts;
  auto add = [&](const AtomicFeed& feed) {
    auto p = Pattern::Compile(feed.pattern);
    ASSERT_TRUE(p.ok()) << feed.pattern;
    compiled.push_back(std::move(*p));
    expected_counts.push_back(feed.file_count);
  };
  for (const auto& feed : result.feeds) add(feed);
  for (const auto& feed : result.outliers) add(feed);
  std::vector<size_t> counts(compiled.size(), 0);
  for (const auto& obs : corpus) {
    bool any = false;
    for (size_t i = 0; i < compiled.size(); ++i) {
      if (compiled[i].Matches(obs.name)) {
        counts[i]++;
        any = true;
      }
    }
    EXPECT_TRUE(any) << obs.name;
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], expected_counts[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryClosureTest, ::testing::Range(1, 6));

// ----------------------------------------------------------- crash points

class CrashPointTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashPointTest, AnyWalPrefixRecoversConsistently) {
  // Build a WAL of known operations, then truncate at every byte
  // boundary: recovery must always succeed and yield a state equal to
  // some prefix of the operation sequence.
  InMemoryFileSystem fs;
  KvStore::Options opts;
  opts.checkpoint_wal_bytes = 0;
  std::vector<std::pair<std::string, std::optional<std::string>>> ops;
  Rng rng(GetParam() * 13);
  {
    auto store = KvStore::Open(&fs, "/db", opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 30; ++i) {
      std::string key = "k" + std::to_string(rng.Uniform(10));
      if (rng.Bernoulli(0.7)) {
        std::string value = rng.AlnumString(1 + rng.Uniform(20));
        ASSERT_TRUE((*store)->Put(key, value).ok());
        ops.emplace_back(key, value);
      } else {
        ASSERT_TRUE((*store)->Delete(key).ok());
        ops.emplace_back(key, std::nullopt);
      }
    }
  }
  std::string wal = *fs.ReadFile("/db/wal.log");
  // All states reachable by applying op prefixes.
  std::set<std::string> reachable;
  {
    std::map<std::string, std::string> state;
    auto encode = [&] {
      std::string s;
      for (auto& [k, v] : state) s += k + "=" + v + ";";
      return s;
    };
    reachable.insert(encode());
    for (auto& [k, v] : ops) {
      if (v.has_value()) {
        state[k] = *v;
      } else {
        state.erase(k);
      }
      reachable.insert(encode());
    }
  }
  for (size_t cut = 0; cut <= wal.size(); cut += 1 + rng.Uniform(5)) {
    InMemoryFileSystem crashed;
    ASSERT_TRUE(
        crashed.WriteFile("/db/wal.log", std::string_view(wal).substr(0, cut))
            .ok());
    auto store = KvStore::Open(&crashed, "/db", opts);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.status();
    std::string s;
    for (auto& [k, v] : (*store)->ScanPrefix("")) s += k + "=" + v + ";";
    EXPECT_TRUE(reachable.count(s)) << "cut=" << cut << " state=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointTest, ::testing::Range(1, 5));

// ------------------------------------------------------------ frame fuzz
//
// The frame decoders parse bytes straight off a TCP socket, so hostile
// input must produce a clean Corruption — never a crash, never an
// allocation sized by an attacker-controlled header.

Message RandomMessage(Rng* rng) {
  Message msg;
  msg.type = static_cast<MessageType>(1 + rng->Uniform(6));
  msg.file_id = rng->Uniform(1u << 20);
  msg.feed = "FEED." + rng->AlnumString(1 + rng->Uniform(8));
  msg.name = rng->AlnumString(rng->Uniform(24));
  msg.dest_path = "/dest/" + rng->AlnumString(rng->Uniform(12));
  msg.payload = rng->AlnumString(rng->Uniform(512));
  msg.payload_crc = static_cast<uint32_t>(rng->Uniform(1u << 31));
  msg.data_time = static_cast<TimePoint>(rng->Uniform(1u << 30)) - (1 << 29);
  msg.batch_time = static_cast<TimePoint>(rng->Uniform(1u << 30));
  msg.batch_count = rng->Uniform(100);
  msg.net_seq = rng->Uniform(1u << 24);
  msg.ack_code = static_cast<uint32_t>(rng->Uniform(16));
  return msg;
}

class FrameFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FrameFuzzTest, MessagesRoundTripThroughChunkedStream) {
  Rng rng(GetParam() * 101);
  std::vector<Message> sent;
  for (int i = 0; i < 20; ++i) sent.push_back(RandomMessage(&rng));
  std::string wire = EncodeMessageStream(sent);
  // Feed the stream in random-sized chunks, as a socket would deliver it.
  MessageStreamDecoder decoder;
  size_t off = 0;
  while (off < wire.size()) {
    size_t n = std::min<size_t>(1 + rng.Uniform(97), wire.size() - off);
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(off, n)).ok());
    off += n;
  }
  for (const Message& expect : sent) {
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expect);  // includes net_seq / ack_code
  }
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST_P(FrameFuzzTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(GetParam() * 211);
  for (int round = 0; round < 200; ++round) {
    std::string junk;
    size_t len = rng.Uniform(200);
    junk.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Uniform(256)));
    }
    // Either outcome (ok or error) is acceptable; what matters is a clean
    // return on arbitrary bytes.
    (void)DecodeMessage(junk);
    MessageStreamDecoder decoder;
    (void)decoder.Feed(junk);
  }
}

TEST_P(FrameFuzzTest, BitFlipsAreDetectedOrYieldAValidParse) {
  Rng rng(GetParam() * 307);
  for (int round = 0; round < 100; ++round) {
    std::string wire = EncodeMessage(RandomMessage(&rng));
    size_t pos = rng.Uniform(wire.size());
    wire[pos] = static_cast<char>(
        static_cast<uint8_t>(wire[pos]) ^ (1u << rng.Uniform(8)));
    auto decoded = DecodeMessage(wire);
    // A flip in the varint length prefix can reshape the frame arbitrarily;
    // everywhere else the CRC catches it. Either way: clean status, no
    // crash, and errors are Corruption (retry machinery treats them as
    // poison, not transient).
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest, ::testing::Range(1, 5));

TEST(FrameHardeningTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // 10-byte varint claiming ~UINT64_MAX for the body length.
  std::string hostile;
  for (int i = 0; i < 9; ++i) hostile.push_back(static_cast<char>(0xFF));
  hostile.push_back(0x01);
  hostile.append(4, '\0');  // "CRC"
  auto decoded = DecodeMessage(hostile);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());

  MessageStreamDecoder decoder;
  EXPECT_FALSE(decoder.Feed(hostile).ok());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_TRUE(decoder.status().IsCorruption());
}

TEST(FrameHardeningTest, FrameOverConfiguredBoundPoisonsTheStream) {
  Message big;
  big.type = MessageType::kFileData;
  big.payload = std::string(4096, 'x');
  std::string wire = EncodeMessage(big);
  MessageStreamDecoder small(/*max_frame_bytes=*/1024);
  EXPECT_FALSE(small.Feed(wire).ok());
  EXPECT_TRUE(small.poisoned());
  // The same frame is fine for a decoder with the default bound.
  MessageStreamDecoder normal;
  ASSERT_TRUE(normal.Feed(wire).ok());
  auto got = normal.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST(FrameHardeningTest, TruncatedFramesWaitRatherThanError) {
  // A prefix of a valid frame is not corruption for the stream decoder —
  // more bytes may arrive. Only a complete-but-bad frame poisons.
  Rng rng(99);
  Message msg = RandomMessage(&rng);
  std::string wire = EncodeMessage(msg);
  for (size_t cut = 0; cut + 1 < wire.size(); cut += 7) {
    MessageStreamDecoder decoder;
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(0, cut)).ok());
    EXPECT_FALSE(decoder.Next().has_value());
    // Completing the frame yields the message.
    ASSERT_TRUE(decoder.Feed(std::string_view(wire).substr(cut)).ok());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, msg);
  }
}

}  // namespace
}  // namespace bistro
