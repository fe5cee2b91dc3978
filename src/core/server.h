#ifndef BISTRO_CORE_SERVER_H_
#define BISTRO_CORE_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "analyzer/infer.h"
#include "classify/classifier.h"
#include "common/logging.h"
#include "config/registry.h"
#include "core/monitor.h"
#include "core/types.h"
#include "delivery/engine.h"
#include "ingest/pipeline.h"
#include "ingest/plan.h"
#include "kv/receipts.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/event_loop.h"
#include "trigger/trigger.h"
#include "vfs/filesystem.h"

namespace bistro {

/// Snapshot of the server's ingest counters. The registry's
/// `bistro_server_*` counters are the source of truth; `stats()` assembles
/// this by-value view from them.
struct ServerStats {
  uint64_t files_received = 0;
  uint64_t files_classified = 0;
  uint64_t files_unmatched = 0;
  uint64_t files_expired = 0;
  uint64_t bytes_received = 0;
  uint64_t punctuations = 0;
};

/// The Bistro data feed manager (paper §3, Fig. 2).
///
/// Pipeline per incoming file: landing zone -> classification -> arrival
/// receipt -> normalization (rename/compress) -> staging directory ->
/// delivery scheduling -> transport -> delivery receipt -> triggers.
///
/// A BistroServer is also an Endpoint, so one server can subscribe to
/// another, forming a distributed feed delivery network (§3): pushed files
/// land in the downstream server's landing zone and flow through its own
/// pipeline.
///
/// Threading: the server runs entirely on its EventLoop. Under a SimClock
/// the whole server is deterministic; under a RealClock it runs live.
class BistroServer : public Endpoint {
 public:
  struct Options {
    Options() {}
    std::string landing_root = "/bistro/landing";
    std::string staging_root = "/bistro/staging";
    std::string db_dir = "/bistro/db";
    /// How long staged files and receipts are retained (§4.2). 0 = forever.
    Duration history_window = 0;
    /// Cadence of the window cleaner and stall checker.
    Duration maintenance_interval = kMinute;
    DeliveryEngine::Options delivery;
    /// Ingest-pipeline tuning (workers, queue bound, group-commit batch,
    /// overload policy). workers == 0 keeps ingest synchronous inline.
    /// staging_root/sync_staging/spill_path are overwritten from this
    /// struct's own fields at Create time.
    IngestPipeline::Options ingest;
    /// Receipt-database tuning (e.g. sync_wal for crash consistency). The
    /// shard count comes from the config's `receipts { shards N; }`.
    KvStore::Options kv;
    /// fsync each staged file before recording its arrival receipt, so a
    /// receipt never points at bytes a crash can take away. Off by
    /// default; chaos/crash tests and durable deployments enable it.
    bool sync_staging = false;
    /// Metrics registry shared with the embedding process (bench, daemon).
    /// When null the server owns a private registry; either way every
    /// subsystem's counters land in `metrics()`.
    MetricsRegistry* metrics = nullptr;
  };

  /// Wires a server. All dependencies are borrowed (caller owns them);
  /// `scheduler` defaults to a PartitionedScheduler if null.
  static Result<std::unique_ptr<BistroServer>> Create(
      Options options, const ServerConfig& config, FileSystem* fs,
      Transport* transport, EventLoop* loop, TriggerInvoker* invoker,
      Logger* logger, DeliveryScheduler* scheduler = nullptr);

  /// Stops the ingest pipeline's threads (if any) before members die.
  ~BistroServer() override;

  // ------------------------------------------------------------ Sources

  /// Source-facing deposit + notify (the cooperating-source protocol,
  /// §4.1): writes the file into the landing zone and ingests it
  /// immediately — no directory polling anywhere on the path.
  Status Deposit(const std::string& source, const std::string& filename,
                 std::string content);

  /// Source end-of-batch marker for a feed (§4.1 punctuation).
  void SourceEndOfBatch(const FeedName& feed, TimePoint batch_time);

  /// Picks up files deposited by non-cooperating sources that write into
  /// the landing zone without notifying. Because ingest moves files out
  /// immediately, the landing directory stays small and this scan is
  /// cheap (§4.1 "landing zones"). Returns the number ingested.
  Result<size_t> ScanLandingZone();

  // ------------------------------------------------------------ Admin

  /// Registers a new subscriber and backfills available history (§4.2).
  Status AddSubscriber(const SubscriberSpec& spec);

  /// Replaces a feed definition; files already received that match the
  /// *new* definition are re-offered to subscribers via queue
  /// recomputation (§4.2). (Reclassification applies to new arrivals.)
  Status ReviseFeed(const FeedSpec& spec);

  /// Hybrid push-pull retrieval (§4.1): a subscriber that received a
  /// kFileNotify notification pulls the file's bytes at a time of its
  /// choosing. Fails with NotFound once the file leaves the history
  /// window.
  Result<std::string> Retrieve(FileId file_id) const;

  /// Runs one maintenance pass now: expire old files, check stalls.
  void RunMaintenance();

  /// Starts the periodic maintenance timer on the event loop.
  void StartMaintenanceTimer();

  // ------------------------------------------------------------ Introspection

  ServerStats stats() const;
  DeliveryStats delivery_stats() const { return delivery_->stats(); }
  const SchedulerMetrics& scheduler_metrics() const {
    return delivery_->scheduler_metrics();
  }
  /// The registry holding every subsystem's metrics (owned or injected).
  MetricsRegistry* metrics() const { return metrics_; }
  /// Per-file pipeline lifecycle tracer.
  FileTracer* tracer() const { return tracer_.get(); }
  FeedRegistry* registry() { return registry_.get(); }
  ReceiptDatabase* receipts() { return receipts_.get(); }
  FeedMonitor* monitor() { return &monitor_; }
  FeedClassifier* classifier() { return classifier_.get(); }
  DeliveryEngine* delivery() { return delivery_.get(); }
  IngestPipeline* ingest() { return pipeline_.get(); }
  /// Compiled ingestion-plan runtime; null when the config has no plan
  /// blocks (plan hooks then cost nothing anywhere).
  PlanRuntime* plans() { return plans_.get(); }

  /// Names of files that matched no feed, for the analyzer (§5.1).
  /// Drains the buffer. Each observation carries a stable id (a name
  /// hash — unmatched files never receive a FileId) so the analyzer can
  /// dedupe files that are re-seen on every landing-zone scan.
  std::vector<FileObservation> DrainUnmatched();

  // ------------------------------------------------------------ Endpoint

  /// Upstream Bistro servers push into us as if we were a subscriber.
  Status HandleMessage(const Message& msg) override;

 private:
  BistroServer(Options options, FileSystem* fs, Transport* transport,
               EventLoop* loop, TriggerInvoker* invoker, Logger* logger);

  /// Counts the file and submits it to the ingest pipeline (which runs
  /// classify + normalize + stage + receipt inline or on workers).
  Status Ingest(const IncomingFile& file);

  /// Pipeline completion: trace the stages, feed the monitor, hand the
  /// staged file to delivery. Runs on the event loop in both modes.
  void OnIngestCommitted(const IngestPipeline::Committed& done);

  /// Logs a warning naming the feeds on the classifier's residual list,
  /// if any (after load and after each feed revision).
  void WarnResidualFeeds();

  Options options_;
  FileSystem* fs_;
  EventLoop* loop_;
  Logger* logger_;

  /// Lifetime token: posted maintenance events check it so a destroyed
  /// server's timers become no-ops.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  /// Backing registry when Options.metrics is null.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FileTracer> tracer_;

  std::unique_ptr<FeedRegistry> registry_;
  /// Must outlive delivery_ and pipeline_, which hold raw pointers to it
  /// (both are declared — and therefore destroyed — after it).
  std::unique_ptr<PlanRuntime> plans_;
  std::unique_ptr<ReceiptDatabase> receipts_;
  std::unique_ptr<FeedClassifier> classifier_;
  std::unique_ptr<DeliveryScheduler> owned_scheduler_;
  std::unique_ptr<DeliveryEngine> delivery_;
  FeedMonitor monitor_;
  Counter* files_received_;
  Counter* files_classified_;
  Counter* files_unmatched_;
  Counter* files_expired_;
  Counter* bytes_received_;
  Counter* punctuations_;
  std::vector<FileObservation> unmatched_;
  bool maintenance_running_ = false;

  /// Declared last: its worker threads call into the members above, so it
  /// must be destroyed (and its threads joined) before any of them.
  std::unique_ptr<IngestPipeline> pipeline_;
};

}  // namespace bistro

#endif  // BISTRO_CORE_SERVER_H_
