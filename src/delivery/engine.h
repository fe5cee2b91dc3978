#ifndef BISTRO_DELIVERY_ENGINE_H_
#define BISTRO_DELIVERY_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/random.h"
#include "config/registry.h"
#include "core/types.h"
#include "delivery/payload_cache.h"
#include "fanout/subscription_index.h"
#include "kv/receipts.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/event_loop.h"
#include "trigger/trigger.h"
#include "vfs/filesystem.h"

namespace bistro {

class PlanRuntime;

/// Snapshot of the delivery subsystem's counters. The registry's
/// `bistro_delivery_*` counters are the source of truth; this struct is
/// the by-value view `stats()` assembles from them.
struct DeliveryStats {
  uint64_t jobs_submitted = 0;
  uint64_t files_delivered = 0;   // successful (file, subscriber) sends
  uint64_t notifications_sent = 0;
  uint64_t send_failures = 0;
  uint64_t retries = 0;
  uint64_t parked = 0;            // jobs dropped because subscriber offline
  uint64_t dead_lettered = 0;     // jobs parked after exhausting retries
  uint64_t backfilled = 0;        // jobs submitted by queue recomputation
  uint64_t staging_reads = 0;       // staged files read from the filesystem
  uint64_t staging_cache_hits = 0;  // served from the payload cache
  uint64_t cache_evictions = 0;     // payloads evicted by the byte budget
  uint64_t coalesced_files = 0;     // files sent inside multi-file frames
  uint64_t coalesced_frames = 0;    // multi-file frames sent
  uint64_t receipt_group_flushes = 0;  // delivery-receipt group commits
  uint64_t batches_closed = 0;
  uint64_t triggers_invoked = 0;
  uint64_t trigger_failures = 0;
  uint64_t offline_transitions = 0;
};

/// The Bistro feed delivery subsystem (paper §4): takes staged files,
/// fans them out to subscribers through the scheduler and transport,
/// persists delivery receipts, detects subscriber failures, backfills
/// returning subscribers from the receipt database, and drives the
/// batching/trigger machinery.
///
/// Single-threaded: all work runs on the EventLoop, which makes the whole
/// subsystem deterministic under simulated time.
class DeliveryEngine {
 public:
  struct Options {
    Options() {}
    /// Consecutive failures after which a subscriber is flagged offline.
    int offline_after_failures = 3;
    /// Base (minimum) retry backoff. This used to be a fixed delay; it is
    /// now the floor of the exponential schedule, and the first retry
    /// always waits exactly this long.
    Duration retry_backoff = 5 * kSecond;
    /// Ceiling of the exponential retry schedule.
    Duration retry_backoff_max = 2 * kMinute;
    /// Per-retry growth factor of the schedule.
    double retry_backoff_multiplier = 3.0;
    /// Apply decorrelated jitter: each retry sleeps a uniform draw from
    /// [base, min(cap, last_sleep * multiplier)] instead of the
    /// deterministic envelope, de-synchronizing retry storms across jobs.
    bool retry_jitter = true;
    /// Seed for the jitter Rng (determinism under simulation).
    uint64_t backoff_seed = 0x42;
    /// Cadence of probes to offline subscribers (§4.2 "transmissions are
    /// periodically retried").
    Duration probe_interval = 30 * kSecond;
    /// Max delivery attempts per job per online episode; a job that
    /// exhausts them moves to the dead-letter queue.
    int max_attempts = 10;
    /// Bound on the (file, subscriber) pending-dedupe set. Above it, the
    /// oldest tracked pair is forgotten: a later backfill may then
    /// resubmit that delivery, which the delivery receipt check and the
    /// endpoint's dedupe absorb — memory stays bounded, exactly-once is
    /// preserved, only a wasted duplicate submit is possible.
    size_t max_pending_pairs = 1 << 20;
    /// Pipelined send window: at most this many of one subscriber's jobs
    /// in flight at once, acks completing out of the event loop instead
    /// of send→await-ack→next. 0 = unlimited (bounded only by scheduler
    /// slots, the legacy behavior); 1 = strict lockstep.
    size_t window = 0;
    /// Coalesce small queued push files to the same subscriber into one
    /// multi-file wire frame while the frame's payload total stays under
    /// this many bytes. 0 = off (one frame per file, legacy).
    size_t coalesce_bytes = 0;
    /// Byte budget of the staged-payload LRU cache. Payloads are shared
    /// (zero copies, CRC computed once) across a fan-out regardless;
    /// the budget controls retention *across* files. 0 disables
    /// retention — every file is read and CRC'd once per dispatch round
    /// (the bench_delivery lockstep-baseline ablation).
    size_t cache_bytes = 64u << 20;
    /// Delivery receipts per group commit: completed deliveries buffer
    /// until the group fills, the engine goes ack-quiescent, or
    /// receipt_flush_interval elapses — one WAL append + one fsync per
    /// group. 1 = a group of one, committed at the ack.
    size_t receipt_group = 1;
    /// Time bound on how long a buffered delivery receipt may wait for
    /// its group to fill.
    Duration receipt_flush_interval = 100 * kMillisecond;
  };

  /// `metrics` may be null (the engine then owns a private registry so
  /// counters always exist); `tracer` may be null (lifecycle marks are
  /// skipped).
  DeliveryEngine(EventLoop* loop, const FeedRegistry* registry,
                 ReceiptDatabase* receipts, FileSystem* staging_fs,
                 Transport* transport, DeliveryScheduler* scheduler,
                 TriggerInvoker* invoker, Logger* logger,
                 Options options = Options(),
                 MetricsRegistry* metrics = nullptr,
                 FileTracer* tracer = nullptr);

  /// Attaches the compiled ingestion-plan table (may be null: no plans,
  /// exact legacy behavior). Plans restrict fan-out (route lists, A/B
  /// split arms) and scale delivery deadlines by SLO class; the same
  /// rules apply to real-time submission and receipt-driven backfill, so
  /// a recomputed queue never resubmits a filtered delivery.
  void AttachPlans(PlanRuntime* plans) { plans_ = plans; }

  /// Fans a freshly staged file out to every subscriber of its feeds.
  void SubmitStagedFile(const StagedFile& file);

  /// Propagates a source end-of-batch marker to punctuation-mode
  /// subscribers of `feed`.
  void OnSourcePunctuation(const FeedName& feed, TimePoint batch_time);

  /// Candidate files a backfill or re-route examines per event-loop task.
  static constexpr size_t kBackfillPage = 128;

  /// Recomputes the delivery queue for one subscriber from receipts and
  /// submits every undelivered file (new subscriber joining, subscriber
  /// back online, or feed definition revised — §4.2). The candidate ids
  /// are listed once; the first page of kBackfillPage of them is checked
  /// and submitted in this call, each later page in its own loop task,
  /// so a long history never holds the loop. A later Backfill of the
  /// same subscriber replaces the running stream; the stream stops if the
  /// subscriber goes offline or is removed (the probe's backfill on its
  /// return starts a fresh one).
  void Backfill(const SubscriberName& subscriber);

  /// Recomputes queues for every subscriber of `feed` (after revision).
  void BackfillFeed(const FeedName& feed);

  /// Failover re-route: submits to `to` every file in `from`'s feeds
  /// that has no delivery receipt for `from` — the backlog a down
  /// primary is sitting on — skipping files `to` already holds. Pages
  /// like Backfill. The caller must have subscribed `to` to the relevant
  /// feeds first; any duplicate this creates is absorbed downstream by
  /// receipt dedupe.
  void RerouteUndelivered(const SubscriberName& from,
                          const SubscriberName& to);

  bool IsOffline(const SubscriberName& subscriber) const;
  /// Force an offline/online transition (tests, admin).
  void SetOffline(const SubscriberName& subscriber, bool offline);

  /// Commits any buffered delivery receipts now (one group commit).
  /// Called internally on quiescence/size/time triggers; public for
  /// shutdown paths and tests.
  void FlushDeliveryReceipts();
  /// Delivery receipts buffered and not yet group-committed.
  size_t buffered_receipts() const { return receipt_buffer_.size(); }

  DeliveryStats stats() const;
  const SchedulerMetrics& scheduler_metrics() const {
    return scheduler_->metrics();
  }
  /// Closes all open batches (shutdown).
  void FlushBatches();

  /// Jobs that exhausted max_attempts, parked for operator inspection.
  /// They stay out of the retry path until redriven; receipts still list
  /// the files as undelivered, so a backfill can also recover them.
  const std::vector<TransferJob>& dead_letters() const { return dead_letter_; }
  /// Resubmits every dead-lettered job with a fresh attempt budget.
  void RedriveDeadLetters();

  /// The per-feed subscription index the hot paths resolve fan-out
  /// through. Whoever changes the registry's subscribers or feeds
  /// rebuilds it (BistroServer).
  fanout::SubscriptionIndex* subscription_index() { return &index_; }

 private:
  /// A job resolved and ready to hand to the transport.
  struct PreparedJob {
    TransferJob job;
    Message msg;
    std::string endpoint;
  };

  void Pump();
  /// Sends one round of dequeued jobs, coalescing same-endpoint runs of
  /// small push files into multi-file frames when enabled.
  void DispatchRound(std::vector<TransferJob> round);
  /// Resolves subscriber/payload for a dequeued job. Returns nullopt when
  /// the job failed fast (subscriber gone/offline, staged file lost); the
  /// scheduler has then already been told.
  std::optional<PreparedJob> PrepareJob(TransferJob job);
  /// Completion callback shared by single sends and bundle items.
  SendCallback DoneCallback(TransferJob job, TimePoint started);
  void StartJob(TransferJob job);
  void OnJobDone(TransferJob job, TimePoint started, const Status& status);
  /// Buffers the delivery receipt for a successful send, flushing the
  /// buffer when the group is full or the engine is ack-quiescent.
  void RecordDeliveryReceipt(const TransferJob& job, TimePoint now);
  /// Group-commits `records`. On failure each receipt is retried alone on
  /// the delivery retry schedule, growing from `last_delay` (0 = first
  /// attempt), until it commits (a lost receipt would cause redelivery
  /// after every restart).
  void CommitDeliveryReceipts(
      const std::vector<ReceiptDatabase::DeliveryRecord>& records,
      Duration last_delay);
  /// The one retry envelope, shared by job retries and receipt retries.
  BackoffPolicy RetryPolicy() const;
  void HandleFailure(TransferJob job);
  void ProbeOffline(const SubscriberName& subscriber);
  void FeedBatcher(const SubscriberSpec& sub, const FeedName& feed,
                   FileId file, TimePoint data_time);
  Batcher* GetBatcher(const SubscriberSpec& sub, const FeedName& feed);
  void EmitBatch(const SubscriberSpec& sub, BatchEvent event);
  void ScheduleBatchTick(const SubscriberName& sub_name, const FeedName& feed);
  void SubmitJobsFor(const SubscriberSpec& sub,
                     const std::vector<ArrivalReceipt>& receipts,
                     bool backfill);
  /// `feed`'s delivery deadline bound: its tardiness, scaled by its plan.
  Duration TardinessFor(const FeedName& feed) const;
  /// Queues one delivery job for `file` — a StagedFile or its
  /// ArrivalReceipt, whose fields match but for the id, passed as `id` —
  /// on `feed` to `subscriber`, due `tardiness` after the file's arrival.
  template <typename File>
  void SubmitJob(const File& file, FileId id, const SubscriberName& subscriber,
                 const FeedName& feed, Duration tardiness, bool backfill);
  /// Who a backfill stream serves: the subscriber whose receipts define
  /// "undelivered" and the one the jobs go to (the same for a Backfill,
  /// primary and replica for a re-route).
  using StreamKey = std::pair<SubscriberName, SubscriberName>;
  /// A backfill stream in progress: the candidate ids, listed once, and
  /// how far the pages have got.
  struct BackfillCursor {
    std::vector<FileId> ids;
    size_t next = 0;
    TimePoint window_start = 0;
    /// Distinguishes this stream from the one it replaced, whose posted
    /// page must then do nothing.
    uint64_t serial = 0;
  };
  /// Commits buffered delivery receipts, lists the files in `from`'s
  /// feeds, and starts (or restarts) streaming the ones `from` has no
  /// delivery receipt for to `to`.
  void StreamUndelivered(const SubscriberSpec& from, const SubscriberName& to);
  /// Checks and submits the next page of `key`'s stream, then posts the
  /// page after it.
  void BackfillPage(const StreamKey& key, uint64_t serial);
  /// pending_ bookkeeping: inserts/erases keep the size-capped order
  /// queue and the depth gauge in step with the set.
  void InsertPending(const std::pair<FileId, SubscriberName>& key);
  void ErasePending(const std::pair<FileId, SubscriberName>& key);

  EventLoop* loop_;
  const FeedRegistry* registry_;
  /// Inverted feed -> subscribers index: the one feed -> subscribers
  /// lookup of the delivery, punctuation and backfill paths.
  fanout::SubscriptionIndex index_;
  ReceiptDatabase* receipts_;
  FileSystem* staging_fs_;
  Transport* transport_;
  DeliveryScheduler* scheduler_;
  TriggerInvoker* invoker_;
  Logger* logger_;
  Options options_;
  PlanRuntime* plans_ = nullptr;  // optional; see AttachPlans

  /// Wraps a callback so it becomes a no-op if this engine has been
  /// destroyed before the event loop runs it (restart safety: retry,
  /// probe and batch-tick events may outlive the engine).
  std::function<void()> Guard(std::function<void()> fn);

  /// Lifetime token observed by Guard().
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  /// Backing registry when none is injected through the constructor.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  FileTracer* tracer_ = nullptr;
  Counter* jobs_submitted_;
  Counter* files_delivered_;
  Counter* notifications_sent_;
  Counter* send_failures_;
  Counter* retries_;
  Counter* parked_;
  Counter* dead_lettered_;
  Counter* backfilled_;
  Counter* staging_reads_;
  Counter* staging_cache_hits_;
  Counter* coalesced_files_;
  Counter* coalesced_frames_;
  Counter* receipt_group_flushes_;
  Gauge* inflight_gauge_;
  Gauge* receipt_buffer_gauge_;
  Counter* batches_closed_;
  Counter* triggers_invoked_;
  Counter* trigger_failures_;
  Counter* offline_transitions_;
  /// Jitter source for retry backoff (seeded; see Options::backoff_seed).
  Rng backoff_rng_;
  std::vector<TransferJob> dead_letter_;
  std::set<SubscriberName> offline_;
  /// (file, subscriber) pairs queued or in flight, to dedupe backfill
  /// against real-time submission. Bounded to max_pending_pairs; see
  /// InsertPending for the eviction contract.
  std::set<std::pair<FileId, SubscriberName>> pending_;
  /// Insertion order of pending_ entries (lazily compacted), so the cap
  /// evicts oldest-first.
  std::deque<std::pair<FileId, SubscriberName>> pending_order_;
  Counter* pending_evicted_;
  Gauge* pending_pairs_;
  std::map<std::pair<SubscriberName, FeedName>, std::unique_ptr<Batcher>>
      batchers_;
  /// LRU byte-budget cache of staged payloads: staged files are immutable
  /// until expiry, so one read + one CRC serves the whole fan-out (and,
  /// within the budget, later backfills of the same file).
  StagedPayloadCache payload_cache_;
  /// Delivery receipts awaiting their group commit.
  std::vector<ReceiptDatabase::DeliveryRecord> receipt_buffer_;
  /// Backfill streams in progress.
  std::map<StreamKey, BackfillCursor> backfills_;
  uint64_t backfill_serial_ = 0;
  bool receipt_flush_timer_armed_ = false;
};

}  // namespace bistro

#endif  // BISTRO_DELIVERY_ENGINE_H_
