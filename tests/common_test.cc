// Unit tests for the common substrate: Status/Result, strings, time,
// hashing, RNG, thread pool, blocking queue.

#include <atomic>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/logging.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "common/time.h"

namespace bistro {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing feed");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing feed");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IoError("disk full").WithContext("staging write");
  EXPECT_EQ(s.ToString(), "IoError: staging write: disk full");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status { return Status::Aborted("boom"); };
  auto wrapper = [&]() -> Status {
    BISTRO_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kAborted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("value");
    return Status::NotFound("nope");
  };
  auto use = [&](bool ok) -> Status {
    BISTRO_ASSIGN_OR_RETURN(std::string v, make(ok));
    EXPECT_EQ(v, "value");
    return Status::OK();
  };
  EXPECT_TRUE(use(true).ok());
  EXPECT_TRUE(use(false).IsNotFound());
}

// ---------------------------------------------------------------- Strings

TEST(StringsTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, ","), "a,b,,c");
  EXPECT_EQ(SplitSkipEmpty("a,b,,c", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("MEMORY_poller1", "MEMORY"));
  EXPECT_FALSE(StartsWith("MEM", "MEMORY"));
  EXPECT_TRUE(EndsWith("file.csv.gz", ".gz"));
  EXPECT_FALSE(EndsWith("gz", "csv.gz"));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(ParseInt("123"), 123);
  EXPECT_EQ(ParseInt("-5"), -5);
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(StrFormat("%05d", 42), "00042");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  // Symmetry.
  EXPECT_EQ(EditDistance("poller1", "Poller12"), EditDistance("Poller12", "poller1"));
}

// ---------------------------------------------------------------- Time

TEST(TimeTest, CivilRoundTrip) {
  CivilTime c{2010, 12, 30, 23, 59, 58};
  TimePoint t = FromCivil(c);
  EXPECT_EQ(ToCivil(t), c);
}

TEST(TimeTest, EpochIsZero) {
  CivilTime c{1970, 1, 1, 0, 0, 0};
  EXPECT_EQ(FromCivil(c), 0);
}

TEST(TimeTest, FormatAndParse) {
  CivilTime c{2011, 6, 12, 9, 30, 0};
  TimePoint t = FromCivil(c);
  EXPECT_EQ(FormatTime(t), "2011-06-12 09:30:00");
  EXPECT_EQ(ParseTime("2011-06-12 09:30:00"), t);
  EXPECT_EQ(ParseTime("2011-06-12"), FromCivil(CivilTime{2011, 6, 12}));
  EXPECT_FALSE(ParseTime("junk").has_value());
}

TEST(TimeTest, ParseDuration) {
  EXPECT_EQ(ParseDuration("30s"), 30 * kSecond);
  EXPECT_EQ(ParseDuration("5m"), 5 * kMinute);
  EXPECT_EQ(ParseDuration("500ms"), 500 * kMillisecond);
  EXPECT_EQ(ParseDuration("2h"), 2 * kHour);
  EXPECT_EQ(ParseDuration("1d"), kDay);
  EXPECT_FALSE(ParseDuration("5 parsecs").has_value());
}

TEST(TimeTest, SimClockAdvance) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.AdvanceTo(120);  // never goes backwards
  EXPECT_EQ(clock.Now(), 150);
}

TEST(TimeTest, SimClockSleepUnblocksOnAdvance) {
  SimClock clock(0);
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepFor(1000);
    woke = true;
  });
  // The sleeper's deadline is at least 1000, so it cannot have woken yet.
  clock.AdvanceTo(999);
  EXPECT_FALSE(woke.load());
  // The sleeper may not have entered SleepFor yet (its deadline is
  // computed on entry), so keep advancing until it wakes.
  while (!woke.load()) {
    clock.Advance(1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, Crc32KnownVector) {
  // CRC32("123456789") == 0xCBF43926 is the canonical check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Bytewise reference CRC32 (reflected IEEE polynomial, one bit at a
// time): the oracle the table-driven Crc32 must match bit for bit.
uint32_t ReferenceCrc32(const void* data, size_t n, uint32_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng->Next() & 0xFF);
  return s;
}

TEST(HashTest, Crc32MatchesBytewiseOracleAtEveryShortLength) {
  Rng rng(41);
  std::string bytes = RandomBytes(&rng, 64);
  for (size_t len = 0; len <= 64; ++len) {
    EXPECT_EQ(Crc32(bytes.data(), len), ReferenceCrc32(bytes.data(), len))
        << "len " << len;
  }
  // All-ones and all-zeros bytes exercise every table lane's extremes.
  for (char fill : {'\0', '\xFF'}) {
    std::string flat(64, fill);
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(flat.data(), len), ReferenceCrc32(flat.data(), len));
    }
  }
}

TEST(HashTest, Crc32MatchesOracleAtRandomLengthsAndUnalignedStarts) {
  Rng rng(42);
  std::string bytes = RandomBytes(&rng, (256u << 10) + 8);
  for (int trial = 0; trial < 40; ++trial) {
    size_t len = rng.Uniform((256u << 10) + 1);
    size_t offset = rng.Uniform(8);  // every start alignment mod 8
    const char* p = bytes.data() + offset;
    EXPECT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
        << "len " << len << " offset " << offset;
  }
}

TEST(HashTest, Crc32ChainsThroughSeed) {
  Rng rng(43);
  std::string bytes = RandomBytes(&rng, 5000);
  uint32_t whole = Crc32(bytes);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{13},
                     size_t{4096}, bytes.size()}) {
    uint32_t head = Crc32(bytes.data(), cut);
    EXPECT_EQ(Crc32(bytes.data() + cut, bytes.size() - cut, head), whole)
        << "cut " << cut;
    EXPECT_EQ(ReferenceCrc32(bytes.data() + cut, bytes.size() - cut, head),
              whole);
  }
}

TEST(HashTest, Fnv1aDistinct) {
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("feed"), Fnv1a64("feed"));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ZipfSkewsLow) {
  Rng rng(11);
  ZipfGenerator zipf(100, 0.99, &rng);
  int low = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 100u);
    if (v < 10) ++low;
  }
  // With theta~1, the first 10% of ranks should dominate.
  EXPECT_GT(low, kSamples / 2);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, MemorySinkCapturesRecords) {
  SimClock clock(5 * kSecond);
  Logger logger(&clock);
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  logger.Info("classifier", "matched file");
  logger.Alarm("monitor", "feed stalled");
  EXPECT_EQ(sink->Count(), 2u);
  EXPECT_EQ(sink->CountAtLeast(LogLevel::kAlarm), 1u);
  auto records = sink->TakeRecords();
  EXPECT_EQ(records[0].component, "classifier");
  EXPECT_EQ(records[0].time, 5 * kSecond);
  EXPECT_EQ(sink->Count(), 0u);
}

TEST(LoggingTest, MinLevelFilters) {
  Logger logger;
  auto sink = std::make_shared<MemorySink>();
  logger.AddSink(sink);
  logger.SetMinLevel(LogLevel::kWarning);
  logger.Debug("x", "dropped");
  logger.Info("x", "dropped");
  logger.Warning("x", "kept");
  EXPECT_EQ(sink->Count(), 1u);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter++; }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// ---------------------------------------------------------------- Queue

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseUnblocksConsumers) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  q.Close();
  consumer.join();
  EXPECT_FALSE(q.Push(1));
}

TEST(BlockingQueueTest, ProducerConsumer) {
  BlockingQueue<int> q;
  std::atomic<long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  long expected = 0;
  for (int i = 1; i <= 1000; ++i) {
    q.Push(i);
    expected += i;
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace bistro
