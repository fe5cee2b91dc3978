#ifndef BISTRO_INGEST_PIPELINE_H_
#define BISTRO_INGEST_PIPELINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "classify/classifier.h"
#include "common/logging.h"
#include "config/registry.h"
#include "core/types.h"
#include "kv/receipts.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "vfs/filesystem.h"

namespace bistro {

class PlanRuntime;

/// What the admit stage does when the pipeline's bounded queues are full
/// (paper §4.1: the server must absorb bursty arrivals without falling
/// over; INGESTBASE-style staged ingestion makes the policy explicit).
enum class OverloadPolicy {
  /// Submit() blocks until space frees: backpressure propagates to the
  /// depositing source. The default — no file is ever deferred.
  kBlock,
  /// Drop the *oldest* queued file to admit the new one. The dropped
  /// file's landing copy stays in place, so a later landing-zone scan
  /// re-admits it; freshest data flows first under overload.
  kShedOldest,
  /// Park the new file in an in-memory spill queue (journaled to disk
  /// for operators) and admit it automatically once the queues drain.
  /// Nothing is dropped, but spilled files may be reordered relative to
  /// files admitted while they waited.
  kSpillToDisk,
};

Result<OverloadPolicy> OverloadPolicyFromName(std::string_view name);

/// By-value snapshot of the pipeline's counters and queue depths.
struct IngestStats {
  uint64_t admitted = 0;
  uint64_t committed = 0;
  uint64_t unmatched = 0;
  uint64_t shed = 0;
  uint64_t spilled = 0;
  uint64_t blocked = 0;
  uint64_t errors = 0;
  size_t queue_depth = 0;          // files in the classify/worker queues
  size_t receipt_queue_depth = 0;  // staged files awaiting group commit
  size_t spill_depth = 0;
  size_t in_flight = 0;            // admitted but not yet terminal
};

/// The staged ingest pipeline (replaces the synchronous per-file path in
/// BistroServer::Ingest):
///
///   admit -> classify -> [shard by feed] -> normalize/compress/stage
///         -> group-committed arrival receipts -> scheduler handoff
///
/// Two modes, selected by Options::workers:
///
///  - workers == 0 (default): every stage runs inline inside Submit() on
///    the caller's thread. Fully deterministic under a SimClock — the
///    mode every simulation-driven test and example uses.
///  - workers >= 1: Submit() classifies and enqueues, then returns. Files
///    are sharded onto workers by a hash of their primary feed name, so
///    one feed's files stay FIFO through one worker (per-feed arrival
///    order is preserved) while distinct feeds proceed in parallel. A
///    dedicated receipt thread batches staged files and commits their
///    arrival receipts as a group — one WAL append + one fsync per group
///    (classic group commit: while one fsync runs, arrivals accumulate
///    into the next group). Completions are posted to the EventLoop, so
///    all server state mutation stays on the loop thread.
///
/// Crash consistency (both modes): stage write (+ optional fsync) first,
/// then the receipt group commit, then landing-file deletion. A crash
/// before the commit leaves the landing file for the rescan; a crash
/// after it is caught by the receipt database's name index (the scan
/// skips files that already have a receipt); a crash between commit and
/// scheduler handoff is recovered by the startup backfill, which
/// recomputes delivery queues from receipts.
class IngestPipeline {
 public:
  struct Options {
    Options() {}
    /// Normalize/compress worker threads; 0 = synchronous inline mode.
    int workers = 0;
    /// Bound on files queued toward the workers before the overload
    /// policy engages (threaded mode only).
    size_t queue_depth = 256;
    /// Max arrival receipts per group commit.
    size_t batch = 32;
    OverloadPolicy overload_policy = OverloadPolicy::kBlock;
    /// Staging layout + durability (copied from the server's options).
    std::string staging_root = "/bistro/staging";
    bool sync_staging = false;
    /// Operator-visible journal of spilled files (kSpillToDisk).
    std::string spill_path = "/bistro/db/ingest.spill";
  };

  /// One committed file, handed back through the committed callback. The
  /// timestamps are when each stage finished (all equal in sync mode,
  /// where the stages complete within one Submit call).
  struct Committed {
    StagedFile staged;
    TimePoint classify_at = 0;
    TimePoint normalize_at = 0;
    TimePoint stage_at = 0;
    TimePoint receipt_at = 0;
  };

  using ClassifiedCallback = std::function<void(const IncomingFile&)>;
  using UnmatchedCallback = std::function<void(const IncomingFile&)>;
  using CommittedCallback = std::function<void(const Committed&)>;
  using ErrorCallback =
      std::function<void(const IncomingFile&, const Status&)>;

  /// All dependencies are borrowed. `metrics` may be null (the pipeline
  /// then keeps a private registry so stats() still works). Call
  /// SetCallbacks then Start before submitting.
  IngestPipeline(Options options, FileSystem* fs, FeedClassifier* classifier,
                 const FeedRegistry* registry, ReceiptDatabase* receipts,
                 EventLoop* loop, Logger* logger, MetricsRegistry* metrics);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Callbacks fire inline in sync mode and on the EventLoop in threaded
  /// mode (classified/unmatched fire on the submitting thread in both).
  void SetCallbacks(ClassifiedCallback on_classified,
                    UnmatchedCallback on_unmatched,
                    CommittedCallback on_committed, ErrorCallback on_error);

  /// Attaches the compiled ingestion-plan table (may be null: no plans,
  /// exact legacy behavior). The plan hooks run after classification
  /// (sampling, quota admission) and in the worker stage (transform
  /// override, enrichment). Call before Start.
  void AttachPlans(PlanRuntime* plans) { plans_ = plans; }

  /// Spawns worker + receipt threads (no-op in sync mode).
  void Start();

  /// Admits one landed file. Sync mode: runs the whole pipeline inline
  /// and returns its outcome. Threaded mode: classifies, enqueues (or
  /// applies the overload policy) and returns; failures downstream are
  /// reported through the error callback and counted, and the landing
  /// file is left in place for the rescan to retry.
  Status Submit(const IncomingFile& file);

  /// True while `landing_path` is admitted but not yet terminal — the
  /// landing-zone scan uses this to avoid double-admitting.
  bool InFlight(const std::string& landing_path) const;

  /// Blocks until every admitted file reached a terminal state (committed
  /// or errored) and the spill queue drained. Completion callbacks may
  /// still be queued on the EventLoop afterwards — run the loop to
  /// deliver them. No-op in sync mode.
  void WaitIdle();

  /// Stops the threads. Queued (not yet staged) files are dropped — their
  /// landing files persist, so a restart's scan re-admits them; staged
  /// files already in the receipt queue are still committed.
  void Shutdown();

  /// Runs `revise` — a feed-definition change plus the classifier and
  /// plan-table rebuilds it needs — under the pipeline's definitions
  /// lock, held exclusively: a revision must not race in-flight
  /// classification/normalization. Returns what `revise` returns.
  Status ReviseDefinitions(const std::function<Status()>& revise);

  bool threaded() const { return options_.workers > 0; }
  const Options& options() const { return options_; }
  IngestStats stats() const;

 private:
  struct Item {
    IncomingFile file;
    uint64_t seq = 0;  // admission order, for shed-oldest
    Classification c;
    TimePoint classify_at = 0;
    // Filled by the normalize/stage worker:
    std::string rel_path;
    std::string staged_path;
    uint64_t staged_size = 0;
    TimePoint data_time = 0;
    TimePoint normalize_at = 0;
    TimePoint stage_at = 0;
  };

  struct Shard {
    std::deque<Item> items;
  };

  Status IngestSync(const IncomingFile& file);
  /// Runs the plan admission hooks (sampling, quota) over a fresh
  /// classification. Returns false when the file must not proceed; the
  /// landing file is deleted for deterministic (sampling) drops and kept
  /// for quota deferrals so the rescan retries them.
  bool AdmitByPlan(const IncomingFile& file, Classification* c);
  Status Admit(Item item);
  void WorkerLoop(size_t shard_index);
  void ReceiptLoop();
  /// Read + normalize + stage one item (worker stage).
  Status StageItem(Item* item);
  /// Group-commit receipts for `group`, delete landing files, post
  /// completions.
  void CommitGroup(std::vector<Item> group);
  void FinishError(const Item& item, const Status& status);
  void DrainSpillLocked();
  void EraseInFlightLocked(const std::string& landing_path);
  size_t ShardIndex(const FeedName& feed) const;
  ArrivalReceipt MakeReceipt(const Item& item) const;
  Committed BuildCommitted(const Item& item, const ArrivalReceipt& receipt,
                           TimePoint receipt_at) const;

  Options options_;
  FileSystem* fs_;
  FeedClassifier* classifier_;
  const FeedRegistry* registry_;
  ReceiptDatabase* receipts_;
  EventLoop* loop_;
  Clock* clock_;
  Logger* logger_;
  PlanRuntime* plans_ = nullptr;  // optional; see AttachPlans

  ClassifiedCallback on_classified_;
  UnmatchedCallback on_unmatched_;
  CommittedCallback on_committed_;
  ErrorCallback on_error_;

  /// Guards feed definitions: the worker's registry/normalizer reads
  /// take it shared, ReviseDefinitions takes it exclusive. Classification
  /// does not take it: the classifier's compiled snapshot is immutable
  /// and self-contained.
  mutable std::shared_mutex defs_mu_;

  /// Guards every queue + the in-flight set below.
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  std::deque<Item> receipt_q_;
  std::deque<Item> spill_;
  /// Landing paths held by the pipeline. A multiset: the same path can be
  /// deposited again while its predecessor is still in flight, and each
  /// admission must be tracked independently.
  std::multiset<std::string> in_flight_;
  size_t queued_total_ = 0;  // items across all shards
  uint64_t next_seq_ = 0;
  size_t live_workers_ = 0;  // receipt thread drains until workers exit
  bool shutdown_ = false;
  bool started_ = false;
  std::condition_variable work_cv_;     // workers: shard queues non-empty
  std::condition_variable space_cv_;    // submitters: shard space freed
  std::condition_variable receipt_cv_;  // receipt thread: queue non-empty
  std::condition_variable receipt_space_cv_;  // workers: receipt space
  std::condition_variable idle_cv_;     // WaitIdle: in-flight drained

  std::vector<std::thread> workers_;
  std::thread receipt_thread_;

  /// Lifetime token for the metrics collect hook (the registry may
  /// outlive the pipeline).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  /// Fallback registry when the caller passes none, so the counters below
  /// are always valid (stats() reads them).
  std::unique_ptr<MetricsRegistry> owned_metrics_;

  Counter* admitted_ = nullptr;
  Counter* committed_ = nullptr;
  Counter* unmatched_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* spilled_ = nullptr;
  Counter* blocked_ = nullptr;
  Counter* errors_ = nullptr;
  Histogram* commit_batch_size_ = nullptr;
};

}  // namespace bistro

#endif  // BISTRO_INGEST_PIPELINE_H_
