// Experiment E1 (paper §2.2.1): pull-based delivery vs Bistro push.
//
// Claim: with pull, every subscriber must repeatedly list the provider's
// directories, so (a) metadata operations per poll grow linearly with the
// stored history, (b) total provider load multiplies with the number of
// polling subscribers, and (c) capping the scan window to bound the cost
// silently drops late files. Bistro's landing-zone push issues O(new
// files) operations regardless of history size.
//
// Output: one table per sub-claim; series should show pull's scan cost
// growing with history while push stays flat.

#include <cstdio>

#include "baseline/pull_poller.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

// Populates `fs` with a feed history of `n` files under /provider/feed.
void MakeHistory(InMemoryFileSystem* fs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    CivilTime c = ToCivil(static_cast<TimePoint>(i) * 5 * kMinute);
    std::string name = StrFormat("/provider/feed/CPU_POLL1_%04d%02d%02d%02d%02d.txt",
                                 c.year, c.month, c.day, c.hour, c.minute);
    (void)fs->WriteFile(name, "x");
  }
}

void HistorySweep() {
  std::printf("--- E1a: metadata ops per polling cycle vs stored history ---\n");
  std::printf("%10s %18s %18s %22s\n", "history", "pull ops/poll",
              "push ops/file", "pull simulated time");
  for (size_t history : {1000u, 5000u, 20000u, 100000u, 400000u}) {
    // Pull side: a subscriber polls a provider holding `history` files.
    SimClock clock(0);
    InMemoryFileSystem provider(&clock, FsCostModel::RemoteFileServer());
    MakeHistory(&provider, history);
    InMemoryFileSystem local;
    PullPoller poller(&provider, "/provider/feed", &local, "/sub");
    (void)poller.Poll(clock.Now());  // initial sync
    provider.ResetStats();
    TimePoint t0 = clock.Now();
    (void)poller.Poll(clock.Now());  // steady-state poll: nothing new
    uint64_t pull_ops = provider.stats().MetadataOps();
    Duration pull_time = clock.Now() - t0;

    // Push side: Bistro ingests ONE new file into a server already
    // holding the same history; count provider-side metadata ops.
    SimClock clock2(0);
    InMemoryFileSystem fs2(&clock2, FsCostModel::RemoteFileServer());
    EventLoop loop(&clock2);
    SimTransport transport(&loop);
    CallbackInvoker invoker;
    Logger logger(&clock2);
    auto config = ParseConfig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber sub { feeds CPU; method push; }
)");
    FileSinkEndpoint sink(&fs2, "/sub");
    transport.Register("sub", &sink);
    auto server = BistroServer::Create(BistroServer::Options(), *config, &fs2,
                                       &transport, &loop, &invoker, &logger);
    // Pre-existing staged history (same number of files).
    for (size_t i = 0; i < history; ++i) {
      (void)fs2.WriteFile(StrFormat("/bistro/staging/CPU/old%06zu.txt", i), "x");
    }
    fs2.ResetStats();
    (void)(*server)->Deposit("src", "CPU_POLL1_201009250400.txt", "x");
    loop.RunUntilIdle();
    uint64_t push_ops = fs2.stats().MetadataOps();

    std::printf("%10zu %18llu %18llu %20s\n", history,
                (unsigned long long)pull_ops, (unsigned long long)push_ops,
                FormatDuration(pull_time).c_str());
  }
}

void SubscriberSweep() {
  std::printf("\n--- E1b: provider metadata load vs number of pull subscribers ---\n");
  std::printf("(history fixed at 20000 files; one poll cycle each)\n");
  std::printf("%12s %22s\n", "subscribers", "provider ops/cycle");
  for (int subs : {1, 4, 16, 64}) {
    SimClock clock(0);
    InMemoryFileSystem provider(&clock, FsCostModel::RemoteFileServer());
    MakeHistory(&provider, 20000);
    std::vector<std::unique_ptr<InMemoryFileSystem>> locals;
    std::vector<std::unique_ptr<PullPoller>> pollers;
    for (int s = 0; s < subs; ++s) {
      locals.push_back(std::make_unique<InMemoryFileSystem>());
      pollers.push_back(std::make_unique<PullPoller>(
          &provider, "/provider/feed", locals.back().get(), "/sub"));
      (void)pollers.back()->Poll(clock.Now());
    }
    provider.ResetStats();
    for (auto& p : pollers) (void)p->Poll(clock.Now());
    std::printf("%12d %22llu\n", subs,
                (unsigned long long)provider.stats().MetadataOps());
  }
}

void LookbackTradeoff() {
  std::printf("\n--- E1c: lookback cap vs late data loss (pull) ---\n");
  std::printf("(10000-file history; 200 files arrive 2-26h late)\n");
  std::printf("%12s %16s %14s\n", "lookback", "ops/poll", "files missed");
  for (Duration lookback : {Duration{0}, kHour, 6 * kHour, 24 * kHour}) {
    SimClock clock(0);
    InMemoryFileSystem provider(&clock, FsCostModel::RemoteFileServer());
    InMemoryFileSystem local;
    PullPoller::Options options;
    options.lookback = lookback;
    PullPoller poller(&provider, "/provider/feed", &local, "/sub", options);
    Rng rng(1);
    // History accumulates over simulated days; the poller polls hourly.
    size_t counter = 0;
    for (int hour = 0; hour < 100; ++hour) {
      clock.AdvanceTo(hour * kHour);
      for (int f = 0; f < 100; ++f) {
        (void)provider.WriteFile(
            StrFormat("/provider/feed/f%07zu.txt", counter++), "x");
      }
      (void)poller.Poll(clock.Now());
    }
    // Now 200 files arrive whose mtimes are hours old (sources with
    // buffered uplinks). InMemoryFileSystem stamps "now", so emulate by
    // NOT advancing the clock after the burst and advancing before the
    // next poll instead.
    clock.AdvanceTo(100 * kHour);
    for (int f = 0; f < 200; ++f) {
      (void)provider.WriteFile(StrFormat("/provider/feed/late%04d.txt", f), "x");
    }
    // Time passes before the subscriber polls again (it was offline).
    clock.AdvanceTo(100 * kHour + 26 * kHour);
    for (int f = 0; f < 50; ++f) {
      (void)provider.WriteFile(StrFormat("/provider/feed/fresh%04d.txt", f), "x");
    }
    provider.ResetStats();
    (void)poller.Poll(clock.Now());
    std::printf("%12s %16llu %14zu\n",
                lookback == 0 ? "unbounded" : FormatDuration(lookback).c_str(),
                (unsigned long long)provider.stats().MetadataOps(),
                poller.files_missed());
  }
  std::printf("(push delivery has no lookback knob: receipts make late "
              "files ordinary)\n");
}

}  // namespace

int main() {
  std::printf("=== E1: pull-based vs push-based feed delivery ===\n\n");
  HistorySweep();
  SubscriberSweep();
  LookbackTradeoff();
  return 0;
}
