// Edge-case tests for the delivery engine and server paths not covered by
// the integration suite: retry exhaustion, staged-file loss, manual
// offline control, remote batch triggers, multi-feed files, the staging
// hot-file cache, scheduler slot accounting under rebalance, and the
// receipt archiver wired into maintenance.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "delivery/payload_cache.h"
#include "fault/faulty_transport.h"
#include "fault/injector.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

template <typename Fs>
struct RigOn {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  Fs fs;
  SimTransport transport{&loop};
  RecordingInvoker invoker;
  Logger logger{&clock};
  std::unique_ptr<BistroServer> server;

  explicit RigOn(const char* config_text,
                 BistroServer::Options options = BistroServer::Options()) {
    logger.SetMinLevel(LogLevel::kAlarm);
    auto config = ParseConfig(config_text);
    EXPECT_TRUE(config.ok()) << config.status();
    auto s = BistroServer::Create(options, *config, &fs, &transport, &loop,
                                  &invoker, &logger);
    EXPECT_TRUE(s.ok()) << s.status();
    server = std::move(*s);
  }
};
using Rig = RigOn<InMemoryFileSystem>;

constexpr char kOneFeedOneSub[] = R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; }
)";

TEST(EngineTest, RetriesExhaustAfterMaxAttempts) {
  BistroServer::Options opts;
  opts.delivery.max_attempts = 3;
  opts.delivery.retry_backoff = kSecond;
  opts.delivery.offline_after_failures = 100;  // never flag offline here
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  const DeliveryStats& d = rig.server->delivery_stats();
  EXPECT_EQ(d.files_delivered, 0u);
  EXPECT_EQ(d.send_failures, 3u);  // initial + 2 retries = max_attempts
  EXPECT_EQ(d.retries, 2u);
  // No further events pending for this job.
  EXPECT_FALSE(rig.server->receipts()->Delivered("s", 1));
}

TEST(EngineTest, MissingStagedFileFailsJobWithoutCrash) {
  Rig rig(kOneFeedOneSub);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  // Make the subscriber offline via manual control so the file stays
  // queued, then destroy the staged copy before recovery.
  rig.server->delivery()->SetOffline("s", true);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  EXPECT_EQ(sink.files_received(), 0u);
  auto receipt = rig.server->receipts()->GetArrival(1);
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(rig.fs.Delete(receipt->staged_path).ok());
  // Back online: backfill finds the file, but its bytes are gone.
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  EXPECT_EQ(sink.files_received(), 0u);
  EXPECT_GE(rig.server->scheduler_metrics().failed, 1u);
}

TEST(EngineTest, ManualOfflineParksAndManualOnlineBackfills) {
  Rig rig(kOneFeedOneSub);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  rig.server->delivery()->SetOffline("s", true);
  EXPECT_TRUE(rig.server->delivery()->IsOffline("s"));
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  EXPECT_EQ(rig.server->delivery_stats().parked, 3u);
  EXPECT_EQ(sink.files_received(), 0u);
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  EXPECT_EQ(sink.files_received(), 3u);
}

TEST(EngineTest, RemoteBatchTriggerShipsEndOfBatchMessage) {
  Rig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method push; trigger batch count 2 remote; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "a").ok());
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL2_201009250400.txt", "b").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  // The batch closed and reached the subscriber as a kEndOfBatch message
  // (sink.batches), not as a locally invoked command.
  EXPECT_EQ(sink.batches(), 1u);
  EXPECT_TRUE(rig.invoker.invocations().empty());
  EXPECT_EQ(rig.server->delivery_stats().triggers_invoked, 1u);
}

TEST(EngineTest, FileInMultipleFeedsDeliveredOncePerSubscriber) {
  // Two feeds both match; the subscriber follows both: it must still get
  // the file exactly once (pending-set dedupe across feeds).
  Rig rig(R"(
feed A { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
feed B { pattern "%s.txt"; }
subscriber s { feeds A, B; method push; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_EQ(rig.server->delivery_stats().jobs_submitted, 1u);
}

TEST(EngineTest, HotFileCacheServesFanout) {
  Rig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s1 { feeds CPU; method push; }
subscriber s2 { feeds CPU; method push; }
subscriber s3 { feeds CPU; method push; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint a(&sub_fs, "/a"), b(&sub_fs, "/b"), c(&sub_fs, "/c");
  rig.transport.Register("s1", &a);
  rig.transport.Register("s2", &b);
  rig.transport.Register("s3", &c);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  const DeliveryStats& d = rig.server->delivery_stats();
  EXPECT_EQ(d.files_delivered, 3u);
  EXPECT_EQ(d.staging_reads, 1u);
  EXPECT_EQ(d.staging_cache_hits, 2u);
}

TEST(EngineTest, CacheAblationRereadsPerDispatch) {
  // cache_bytes 0 is the lockstep-baseline ablation: payloads are still
  // shared within one Get, but nothing is retained, so a fan-out of 3
  // dispatched as 3 jobs costs 3 staging reads.
  BistroServer::Options opts;
  opts.delivery.cache_bytes = 0;
  Rig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s1 { feeds CPU; method push; }
subscriber s2 { feeds CPU; method push; }
subscriber s3 { feeds CPU; method push; }
)",
          opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint a(&sub_fs, "/a"), b(&sub_fs, "/b"), c(&sub_fs, "/c");
  rig.transport.Register("s1", &a);
  rig.transport.Register("s2", &b);
  rig.transport.Register("s3", &c);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  const DeliveryStats& d = rig.server->delivery_stats();
  EXPECT_EQ(d.files_delivered, 3u);
  EXPECT_EQ(d.staging_reads, 3u);
  EXPECT_EQ(d.staging_cache_hits, 0u);
}

// --------------------------------------------------- Staged payload cache

TEST(PayloadCacheTest, LruEvictsToByteBudget) {
  InMemoryFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/a", "aaaa").ok());
  ASSERT_TRUE(fs.WriteFile("/b", "bbbb").ok());
  ASSERT_TRUE(fs.WriteFile("/c", "cccc").ok());
  StagedPayloadCache cache(&fs, 8);  // two 4-byte files fit
  auto a1 = cache.Get("/a");
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(*a1->payload, "aaaa");
  EXPECT_EQ(a1->crc, Crc32("aaaa"));
  auto a2 = cache.Get("/a");
  ASSERT_TRUE(a2.ok());
  // The hit hands back the same shared buffer, not a copy.
  EXPECT_EQ(a1->payload.get(), a2->payload.get());
  ASSERT_TRUE(cache.Get("/b").ok());
  EXPECT_EQ(cache.bytes(), 8u);
  EXPECT_EQ(cache.entries(), 2u);
  // /c displaces the least-recently-used entry (/a).
  ASSERT_TRUE(cache.Get("/c").ok());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Get("/b").ok());  // still cached
  EXPECT_EQ(cache.hits(), 2u);        // /a re-read, /b hit
  auto a3 = cache.Get("/a");          // miss again after eviction
  ASSERT_TRUE(a3.ok());
  EXPECT_EQ(cache.misses(), 4u);  // a, b, c, a
  // Eviction never frees an aliased payload: the original handle from
  // before the eviction still reads the bytes.
  EXPECT_EQ(*a1->payload, "aaaa");
}

TEST(PayloadCacheTest, ZeroBudgetServesWithoutRetention) {
  InMemoryFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/a", "aaaa").ok());
  StagedPayloadCache cache(&fs, 0);
  ASSERT_TRUE(cache.Get("/a").ok());
  ASSERT_TRUE(cache.Get("/a").ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PayloadCacheTest, OversizedEntryStaysUntilDisplacedAndInvalidateDrops) {
  InMemoryFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/big", "0123456789").ok());
  ASSERT_TRUE(fs.WriteFile("/tiny", "tt").ok());
  StagedPayloadCache cache(&fs, 4);
  // A single entry is never evicted on its own insert, even over budget:
  // the immediate fan-out it serves is the whole point of the cache.
  ASSERT_TRUE(cache.Get("/big").ok());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(cache.Get("/big").ok());
  EXPECT_EQ(cache.hits(), 1u);
  // The next insert pushes bytes over budget and evicts the LRU giant.
  ASSERT_TRUE(cache.Get("/tiny").ok());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  // Invalidate drops a (rewritten) path so the next Get re-reads.
  ASSERT_TRUE(fs.WriteFile("/tiny", "TT").ok());
  cache.Invalidate("/tiny");
  auto fresh = cache.Get("/tiny");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh->payload, "TT");
  EXPECT_EQ(fresh->crc, Crc32("TT"));
}

// ------------------------------------------------ Windows and coalescing

TEST(EngineTest, SendWindowDeliversEverythingExactlyOnce) {
  BistroServer::Options opts;
  opts.delivery.window = 2;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  EXPECT_EQ(sink.files_received(), 6u);
  EXPECT_EQ(sink.duplicates(), 0u);
  EXPECT_EQ(rig.server->delivery_stats().files_delivered, 6u);
  // Quiesced: the in-flight gauge reads zero after the run.
  EXPECT_EQ(
      rig.server->metrics()->GetGauge("bistro_delivery_inflight", "")->value(),
      0);
  for (FileId id = 1; id <= 6; ++id) {
    EXPECT_TRUE(rig.server->receipts()->Delivered("s", id)) << id;
  }
}

TEST(EngineTest, CoalescesSmallSameSubscriberFilesIntoOneFrame) {
  BistroServer::Options opts;
  opts.delivery.coalesce_bytes = 1024;
  // A window wide enough that the backfill's whole batch dequeues in one
  // round (the server scales scheduler slots to fit the window).
  opts.delivery.window = 8;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  // Park three small files behind a manual offline flag so the backfill
  // dispatches them in one round — the coalescible shape.
  rig.server->delivery()->SetOffline("s", true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  const DeliveryStats& d = rig.server->delivery_stats();
  EXPECT_EQ(d.coalesced_frames, 1u);
  EXPECT_EQ(d.coalesced_files, 3u);
  EXPECT_EQ(d.files_delivered, 3u);
  // Per-file delivery semantics survive the shared frame: each file
  // landed once and has its own durable receipt.
  EXPECT_EQ(sink.files_received(), 3u);
  EXPECT_EQ(sink.duplicates(), 0u);
  for (FileId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(rig.server->receipts()->Delivered("s", id)) << id;
  }
  EXPECT_TRUE(sub_fs.Exists("/r/CPU/CPU_POLL2_201009250400.txt"));
}

TEST(EngineTest, CoalesceBudgetSplitsLargeRunsIntoMultipleFrames) {
  BistroServer::Options opts;
  opts.delivery.coalesce_bytes = 8;  // two 4-byte payloads per frame
  opts.delivery.window = 8;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  rig.server->delivery()->SetOffline("s", true);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(
        rig.server
            ->Deposit("p", StrFormat("CPU_POLL%d_201009250400.txt", i), "wxyz")
            .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  const DeliveryStats& d = rig.server->delivery_stats();
  EXPECT_EQ(d.coalesced_frames, 2u);
  EXPECT_EQ(d.coalesced_files, 4u);
  EXPECT_EQ(sink.files_received(), 4u);
  EXPECT_EQ(sink.duplicates(), 0u);
}

// ------------------------------------------- Group-committed receipts

TEST(EngineTest, ReceiptGroupCommitsOnAckQuiescence) {
  BistroServer::Options opts;
  opts.delivery.receipt_group = 16;  // far above the traffic: quiescence
                                     // (not size) must trigger the flush
  opts.delivery.window = 8;  // all three sends in flight together
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  rig.server->delivery()->SetOffline("s", true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  // All three acks buffered, then one group commit at quiescence.
  EXPECT_EQ(rig.server->delivery_stats().receipt_group_flushes, 1u);
  EXPECT_EQ(rig.server->delivery()->buffered_receipts(), 0u);
  for (FileId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(rig.server->receipts()->Delivered("s", id)) << id;
  }
  EXPECT_EQ(sink.files_received(), 3u);
}

TEST(EngineTest, BufferedReceiptsFlushWithinTheIntervalDespiteInFlightJobs) {
  // A failing second subscriber keeps the engine from going quiescent the
  // moment the first ack lands; the flush-interval timer (or the eventual
  // quiescence) must still commit the buffered receipt promptly.
  BistroServer::Options opts;
  opts.delivery.receipt_group = 16;
  opts.delivery.receipt_flush_interval = 100 * kMillisecond;
  opts.delivery.retry_backoff = kMinute;
  opts.delivery.retry_jitter = false;
  opts.delivery.offline_after_failures = 100;
  Rig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber good { feeds CPU; method push; }
subscriber bad { feeds CPU; method push; }
)",
          opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint good(&sub_fs, "/g"), bad(&sub_fs, "/b");
  bad.SetFailing(true);
  rig.transport.Register("good", &good);
  rig.transport.Register("bad", &bad);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + 10 * kSecond);
  EXPECT_TRUE(rig.server->receipts()->Delivered("good", 1));
  EXPECT_EQ(rig.server->delivery()->buffered_receipts(), 0u);
  EXPECT_EQ(rig.server->delivery_stats().receipt_group_flushes, 1u);
}

TEST(EngineTest, ReceiptGroupOfOneCostsOneAppendAndOneSyncPerAck) {
  // receipt_group 1: each ack is a group of one, committed at the ack, so
  // the delivery phase adds exactly one WAL record and one fsync per file.
  constexpr uint64_t kFiles = 5;
  BistroServer::Options opts;
  opts.kv.sync_wal = true;
  opts.delivery.receipt_group = 1;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  rig.server->delivery()->SetOffline("s", true);
  for (uint64_t i = 1; i <= kFiles; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%llu_201009250400.txt",
                                        (unsigned long long)i),
                              "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  MetricsRegistry* metrics = rig.server->metrics();
  Counter* appends = metrics->GetCounter("bistro_wal_appends_total", "");
  Counter* syncs = metrics->GetCounter("bistro_wal_syncs_total", "");
  const uint64_t appends_before = appends->value();
  const uint64_t syncs_before = syncs->value();
  rig.server->delivery()->SetOffline("s", false);
  rig.loop.RunUntil(rig.clock.Now() + 30 * kSecond);
  EXPECT_EQ(sink.files_received(), kFiles);
  EXPECT_EQ(appends->value() - appends_before, kFiles);
  EXPECT_EQ(syncs->value() - syncs_before, kFiles);
  for (FileId id = 1; id <= kFiles; ++id) {
    EXPECT_TRUE(rig.server->receipts()->Delivered("s", id)) << id;
  }
}

// Refuses every append under the server's receipt store while `failing`.
class FailingReceiptFs : public InMemoryFileSystem {
 public:
  Status AppendFile(const std::string& path, std::string_view data) override {
    if (failing && path.rfind("/bistro/db/", 0) == 0) {
      ++refused;
      return Status::IoError("receipt store unavailable: " + path);
    }
    return InMemoryFileSystem::AppendFile(path, data);
  }
  bool failing = false;
  int refused = 0;
};

TEST(EngineTest, ReceiptRetriesBackOffAndCommitOnceTheFaultClears) {
  // The file reaches the subscriber, but its delivery receipt cannot
  // commit for ten minutes. Receipt retries follow the delivery retry
  // schedule (5 s, 15 s, 45 s, then the 2 min cap), not a fixed 5 s.
  BistroServer::Options opts;
  opts.delivery.retry_jitter = false;
  RigOn<FailingReceiptFs> rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.fs.failing = true;
  rig.loop.RunUntil(rig.clock.Now() + 10 * kMinute);
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_FALSE(rig.server->receipts()->Delivered("s", 1));
  EXPECT_GE(rig.fs.refused, 2);  // the first commit and at least one retry
  EXPECT_LE(rig.fs.refused, 8);
  rig.fs.failing = false;
  rig.loop.RunUntil(rig.clock.Now() + 5 * kMinute);
  EXPECT_TRUE(rig.server->receipts()->Delivered("s", 1));
  EXPECT_EQ(sink.files_received(), 1u);
}

TEST(EngineTest, NotifyMethodStillFeedsBatcher) {
  Rig rig(R"(
feed CPU { pattern "CPU_POLL%i_%Y%m%d%H%M.txt"; }
subscriber s { feeds CPU; method notify; trigger batch count 2 exec "go"; }
)");
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "a").ok());
  ASSERT_TRUE(rig.server->Deposit("p", "CPU_POLL2_201009250400.txt", "b").ok());
  rig.loop.RunUntil(rig.clock.Now() + kSecond);
  EXPECT_EQ(sink.notifications(), 2u);
  ASSERT_EQ(rig.invoker.invocations().size(), 1u);
  EXPECT_EQ(rig.invoker.invocations()[0].command, "go");
  EXPECT_EQ(rig.server->delivery_stats().notifications_sent, 2u);
}

TEST(SchedulerSlotTest, RebalanceBetweenDequeueAndCompleteKeepsAccounting) {
  // The slot-owner map must free the slot of the partition the job was
  // dequeued from, even if the subscriber moved partitions meanwhile.
  PartitionedScheduler::Options opts;
  opts.num_partitions = 2;
  opts.slots_per_partition = 1;
  PartitionedScheduler sched(opts);
  sched.SetPartition("sub", 0);
  TransferJob job;
  job.file_id = 1;
  job.subscriber = "sub";
  sched.Submit(job);
  auto running = sched.Dequeue();
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(sched.in_flight(), 1u);
  sched.SetPartition("sub", 1);  // moved while in flight
  sched.OnComplete(*running, true, 10, 10);
  EXPECT_EQ(sched.in_flight(), 0u);
  // Partition 0's slot is free again: a new partition-0 job can run.
  sched.SetPartition("other", 0);
  TransferJob other;
  other.file_id = 2;
  other.subscriber = "other";
  sched.Submit(other);
  EXPECT_TRUE(sched.Dequeue().has_value());
}

// ---------------------------------------------------------- Heartbeats

TEST(HeartbeatTest, ProbeRestoresOfflineSubscriberAndBackfills) {
  BistroServer::Options opts;
  opts.delivery.offline_after_failures = 2;
  opts.delivery.retry_backoff = kSecond;
  opts.delivery.retry_jitter = false;
  opts.delivery.probe_interval = 10 * kSecond;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  int heartbeats = 0;
  sink.SetMessageHook([&](const Message& m) {
    if (m.type == MessageType::kHeartbeat) ++heartbeats;
  });
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + 5 * kSecond);
  EXPECT_TRUE(rig.server->delivery()->IsOffline("s"));
  EXPECT_EQ(sink.files_received(), 0u);
  // Probes fire on the probe_interval cadence but fail against the still
  // failing subscriber: it must stay flagged offline.
  rig.loop.RunUntil(rig.clock.Now() + 25 * kSecond);
  EXPECT_TRUE(rig.server->delivery()->IsOffline("s"));
  EXPECT_EQ(heartbeats, 0);  // failing endpoint never handled one
  // Heal the subscriber: the next kHeartbeat probe succeeds, the engine
  // flips it online and backfills the missed file from receipts.
  sink.SetFailing(false);
  rig.loop.RunUntil(rig.clock.Now() + 15 * kSecond);
  EXPECT_FALSE(rig.server->delivery()->IsOffline("s"));
  EXPECT_GE(heartbeats, 1);
  EXPECT_EQ(sink.files_received(), 1u);
}

/// Routes sends through whichever transport `active` points at; lets a
/// test drop the wire (via FaultyTransport) and later heal it without
/// rebuilding the server.
struct SwitchableTransport : public Transport {
  Transport* active = nullptr;
  void Send(const std::string& endpoint, const Message& msg,
            SendCallback done) override {
    active->Send(endpoint, msg, std::move(done));
  }
  Duration EstimateCost(const std::string& endpoint,
                        uint64_t bytes) const override {
    return active->EstimateCost(endpoint, bytes);
  }
};

TEST(HeartbeatTest, DroppedProbesKeepSubscriberOfflineUntilWireHeals) {
  SimClock clock{FromCivil(CivilTime{2010, 9, 25})};
  EventLoop loop{&clock};
  InMemoryFileSystem fs;
  Logger logger{&clock};
  logger.SetMinLevel(LogLevel::kAlarm);
  RecordingInvoker invoker;
  SimTransport wire{&loop};
  FaultPlan plan;
  plan.net.send_failure_prob = 1.0;  // every send (data or probe) dropped
  FaultInjector injector(plan);
  FaultyTransport dropping(&wire, &loop, &injector);
  SwitchableTransport transport;
  transport.active = &dropping;

  auto config = ParseConfig(kOneFeedOneSub);
  ASSERT_TRUE(config.ok()) << config.status();
  BistroServer::Options opts;
  opts.delivery.offline_after_failures = 2;
  opts.delivery.retry_backoff = kSecond;
  opts.delivery.retry_jitter = false;
  opts.delivery.probe_interval = 10 * kSecond;
  auto server = BistroServer::Create(opts, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  ASSERT_TRUE(server.ok()) << server.status();
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  int heartbeats = 0;
  sink.SetMessageHook([&](const Message& m) {
    if (m.type == MessageType::kHeartbeat) ++heartbeats;
  });
  wire.Register("s", &sink);

  ASSERT_TRUE(
      (*server)->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  loop.RunUntil(clock.Now() + 5 * kSecond);
  EXPECT_TRUE((*server)->delivery()->IsOffline("s"));
  // Several probe intervals pass; every heartbeat is dropped before the
  // wire, so none reach the sink and the subscriber stays offline.
  loop.RunUntil(clock.Now() + 35 * kSecond);
  EXPECT_TRUE((*server)->delivery()->IsOffline("s"));
  EXPECT_EQ(heartbeats, 0);
  EXPECT_EQ(sink.files_received(), 0u);
  // Heal the wire: the next probe gets through and delivery resumes.
  transport.active = &wire;
  loop.RunUntil(clock.Now() + 15 * kSecond);
  EXPECT_FALSE((*server)->delivery()->IsOffline("s"));
  EXPECT_GE(heartbeats, 1);
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_TRUE((*server)->receipts()->Delivered("s", 1));
}

// ------------------------------------------------------- Admin console

TEST(AdminTest, DeadLetterListingAndRedrive) {
  BistroServer::Options opts;
  opts.delivery.max_attempts = 2;
  opts.delivery.retry_backoff = kSecond;
  opts.delivery.retry_jitter = false;
  opts.delivery.offline_after_failures = 100;  // exhaust retries instead
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  sink.SetFailing(true);
  rig.transport.Register("s", &sink);
  ASSERT_TRUE(
      rig.server->Deposit("p", "CPU_POLL1_201009250400.txt", "x").ok());
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  ASSERT_EQ(rig.server->delivery()->dead_letters().size(), 1u);

  std::string listing = ExecuteAdminCommand(rig.server.get(), "deadletters");
  EXPECT_NE(listing.find("CPU_POLL1_201009250400.txt"), std::string::npos);
  EXPECT_NE(listing.find("Dead letters (1)"), std::string::npos);
  EXPECT_NE(ExecuteAdminCommand(rig.server.get(), "bogus").find("unknown"),
            std::string::npos);
  EXPECT_NE(ExecuteAdminCommand(rig.server.get(), "help").find("redrive"),
            std::string::npos);
  EXPECT_NE(ExecuteAdminCommand(rig.server.get(), "  status  ")
                .find("Bistro server status"),
            std::string::npos);

  sink.SetFailing(false);
  std::string redriven = ExecuteAdminCommand(rig.server.get(), "redrive");
  EXPECT_NE(redriven.find("redriven 1"), std::string::npos);
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  EXPECT_EQ(sink.files_received(), 1u);
  EXPECT_TRUE(rig.server->delivery()->dead_letters().empty());
  EXPECT_EQ(ExecuteAdminCommand(rig.server.get(), "deadletters"),
            "dead-letter queue empty\n");
}

// ----------------------------------------------- Bounded pending_ pairs

TEST(EngineTest, PendingPairCapEvictsOldestWithoutLosingDeliveries) {
  BistroServer::Options opts;
  opts.delivery.max_pending_pairs = 2;
  opts.delivery.retry_backoff = kSecond;
  opts.delivery.retry_jitter = false;
  Rig rig(kOneFeedOneSub, opts);
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint sink(&sub_fs, "/r");
  rig.transport.Register("s", &sink);
  // Deposit a burst wider than the cap before the loop runs: the pending
  // set must evict oldest pairs rather than grow, and every file must
  // still be delivered exactly once.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(rig.server
                    ->Deposit("p",
                              StrFormat("CPU_POLL%d_201009250400.txt", i), "x")
                    .ok());
  }
  rig.loop.RunUntil(rig.clock.Now() + kMinute);
  EXPECT_EQ(sink.files_received(), 5u);
  EXPECT_EQ(sink.duplicates(), 0u);
  Counter* evicted = rig.server->metrics()->GetCounter(
      "bistro_delivery_pending_evicted_total",
      "Pending pairs evicted by the size cap");
  EXPECT_GE(evicted->value(), 3u);
  Gauge* pairs = rig.server->metrics()->GetGauge(
      "bistro_delivery_pending_pairs", "Tracked (file, subscriber) pairs");
  EXPECT_EQ(pairs->value(), 0);
}

TEST(EngineTest, UnknownFeedGroupSubscriberRejectedAtCreate) {
  SimClock clock(0);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  RecordingInvoker invoker;
  Logger logger(&clock);
  auto config = ParseConfig(R"(
feed CPU { pattern "CPU_%i.txt"; }
subscriber s { feeds NOPE; }
)");
  ASSERT_TRUE(config.ok());
  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  EXPECT_FALSE(server.ok());
}

// ------------------------------------------------------ Backfill paging

constexpr size_t kPage = DeliveryEngine::kBackfillPage;
constexpr size_t kHistory = 3 * kPage + 10;  // more than three pages

/// A server whose subscriber "s" has received kHistory files, and a sink
/// for "late", which joins afterwards and streams that history.
struct HistoryRig {
  Rig rig{kOneFeedOneSub};
  InMemoryFileSystem sub_fs;
  FileSinkEndpoint s_sink{&sub_fs, "/s"};
  FileSinkEndpoint late_sink{&sub_fs, "/late"};

  HistoryRig() {
    rig.transport.Register("s", &s_sink);
    rig.transport.Register("late", &late_sink);
    for (size_t i = 1; i <= kHistory; ++i) {
      EXPECT_TRUE(rig.server
                      ->Deposit("p",
                                StrFormat("CPU_POLL%zu_201009250400.txt", i),
                                "x")
                      .ok());
    }
    rig.loop.RunUntilIdle();
    EXPECT_EQ(s_sink.files_received(), kHistory);
  }

  Status Join() {
    SubscriberSpec late;
    late.name = "late";
    late.feeds = {"CPU"};
    late.method = DeliveryMethod::kPush;
    return rig.server->AddSubscriber(late);
  }

  uint64_t backfilled() const {
    return rig.server->delivery_stats().backfilled;
  }

  /// Runs loop events until the stream has submitted at least `jobs`.
  void RunUntilBackfilled(uint64_t jobs) {
    while (backfilled() < jobs && rig.loop.RunOne()) {
    }
  }

  /// Every history file reached "late" exactly once, with its receipt.
  void ExpectLateComplete() {
    EXPECT_EQ(late_sink.files_received(), kHistory);
    EXPECT_EQ(late_sink.duplicates(), 0u);
    for (FileId id = 1; id <= kHistory; ++id) {
      EXPECT_TRUE(rig.server->receipts()->Delivered("late", id)) << id;
    }
  }
};

TEST(BackfillPagingTest, JoinSubmitsOnePageThenStreamsTheRest) {
  HistoryRig h;
  ASSERT_TRUE(h.Join().ok());
  // The join returns after one page; later pages are loop tasks.
  EXPECT_GT(h.backfilled(), 0u);
  EXPECT_LE(h.backfilled(), kPage);
  h.rig.loop.RunUntilIdle();
  EXPECT_EQ(h.backfilled(), kHistory);
  h.ExpectLateComplete();
}

TEST(BackfillPagingTest, SecondBackfillMidStreamReplacesTheStream) {
  HistoryRig h;
  ASSERT_TRUE(h.Join().ok());
  h.RunUntilBackfilled(2 * kPage);
  ASSERT_LT(h.backfilled(), kHistory);
  h.rig.server->delivery()->Backfill("late");
  h.rig.loop.RunUntilIdle();
  // Files the first stream queued are pending, and delivered ones have
  // receipts, so the second stream submits none of them again.
  EXPECT_EQ(h.backfilled(), kHistory);
  h.ExpectLateComplete();
}

TEST(BackfillPagingTest, OfflineMidStreamStopsAndOnlineResumes) {
  HistoryRig h;
  ASSERT_TRUE(h.Join().ok());
  h.RunUntilBackfilled(2 * kPage);
  ASSERT_LT(h.backfilled(), kHistory);
  h.rig.server->delivery()->SetOffline("late", true);
  // The stream stops at its next page; queued jobs are dropped. (Only
  // events due now run, so the probe that would bring "late" back
  // online does not fire.)
  const uint64_t at_offline = h.backfilled();
  h.rig.loop.RunUntil(h.rig.clock.Now());
  EXPECT_EQ(h.backfilled(), at_offline);
  EXPECT_LT(h.late_sink.files_received(), kHistory);
  h.rig.server->delivery()->SetOffline("late", false);
  h.rig.loop.RunUntilIdle();
  h.ExpectLateComplete();
}

}  // namespace
}  // namespace bistro
