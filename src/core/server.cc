#include "core/server.h"

#include "common/hash.h"
#include "common/strings.h"
#include "compress/codec.h"

namespace bistro {

BistroServer::BistroServer(Options options, FileSystem* fs,
                           Transport* transport, EventLoop* loop,
                           TriggerInvoker* invoker, Logger* logger)
    : options_(std::move(options)),
      fs_(fs),
      loop_(loop),
      logger_(logger),
      monitor_(logger) {
  (void)transport;
  (void)invoker;
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tracer_ = std::make_unique<FileTracer>(metrics_);
  files_received_ = metrics_->GetCounter("bistro_server_files_received_total",
                                         "Files entering the pipeline");
  files_classified_ = metrics_->GetCounter(
      "bistro_server_files_classified_total", "Files matched to >= 1 feed");
  files_unmatched_ = metrics_->GetCounter(
      "bistro_server_files_unmatched_total",
      "Files matching no feed (quarantined for the analyzer)");
  files_expired_ = metrics_->GetCounter(
      "bistro_server_files_expired_total",
      "Staged files expunged by the history-window cleaner");
  bytes_received_ = metrics_->GetCounter("bistro_server_bytes_received_total",
                                         "Bytes entering the pipeline");
  punctuations_ = metrics_->GetCounter(
      "bistro_server_punctuations_total", "Source end-of-batch markers");
  monitor_.AttachMetrics(metrics_);
}

BistroServer::~BistroServer() {
  if (pipeline_ != nullptr) pipeline_->Shutdown();
}

ServerStats BistroServer::stats() const {
  ServerStats s;
  s.files_received = files_received_->value();
  s.files_classified = files_classified_->value();
  s.files_unmatched = files_unmatched_->value();
  s.files_expired = files_expired_->value();
  s.bytes_received = bytes_received_->value();
  s.punctuations = punctuations_->value();
  return s;
}

Result<std::unique_ptr<BistroServer>> BistroServer::Create(
    Options options, const ServerConfig& config, FileSystem* fs,
    Transport* transport, EventLoop* loop, TriggerInvoker* invoker,
    Logger* logger, DeliveryScheduler* scheduler) {
  std::unique_ptr<BistroServer> server(
      new BistroServer(std::move(options), fs, transport, loop, invoker, logger));
  BISTRO_ASSIGN_OR_RETURN(server->registry_, FeedRegistry::Create(config));
  // Compile the declarative ingestion plans against the registry now, so
  // a plan naming an unknown feed, routing to an unknown target, or
  // asking for more replicas than peers fails config load — not delivery.
  if (!config.plans.empty()) {
    server->plans_ = std::make_unique<PlanRuntime>(
        config.plans, server->registry_.get(), PlanContextFromConfig(config));
    server->plans_->AttachMetrics(server->metrics_);
    BISTRO_RETURN_IF_ERROR(
        server->plans_->Rebuild().WithContext("ingestion plans"));
  }
  // Config-file delivery tuning overrides the compiled-in defaults (but
  // not the other way around: unset keys leave Options untouched).
  {
    const DeliveryTuningSpec& tune = config.delivery;
    DeliveryEngine::Options* d = &server->options_.delivery;
    if (tune.retry_backoff_min) d->retry_backoff = *tune.retry_backoff_min;
    if (tune.retry_backoff_max) d->retry_backoff_max = *tune.retry_backoff_max;
    if (tune.retry_multiplier) {
      d->retry_backoff_multiplier = *tune.retry_multiplier;
    }
    if (tune.retry_jitter) d->retry_jitter = *tune.retry_jitter;
    if (tune.max_attempts) d->max_attempts = *tune.max_attempts;
    if (tune.offline_after) d->offline_after_failures = *tune.offline_after;
    if (tune.probe_interval) d->probe_interval = *tune.probe_interval;
    if (tune.window) d->window = static_cast<size_t>(*tune.window);
    if (tune.coalesce_bytes) {
      d->coalesce_bytes = static_cast<size_t>(*tune.coalesce_bytes);
    }
    if (tune.cache_bytes) d->cache_bytes = static_cast<size_t>(*tune.cache_bytes);
    if (tune.receipt_group) {
      d->receipt_group = static_cast<size_t>(*tune.receipt_group);
    }
    if (tune.receipt_flush_interval) {
      d->receipt_flush_interval = *tune.receipt_flush_interval;
    }
  }
  BISTRO_RETURN_IF_ERROR(fs->MkDirs(server->options_.landing_root));
  BISTRO_RETURN_IF_ERROR(fs->MkDirs(server->options_.staging_root));
  BISTRO_ASSIGN_OR_RETURN(
      server->receipts_,
      ReceiptDatabase::Open(fs, server->options_.db_dir, server->options_.kv,
                            config.receipts.shards.value_or(1)));
  server->receipts_->AttachMetrics(server->metrics_);
  server->classifier_ =
      std::make_unique<FeedClassifier>(server->registry_.get());
  BISTRO_RETURN_IF_ERROR(
      server->classifier_->compile_status().WithContext("feed table"));
  server->classifier_->AttachMetrics(server->metrics_);
  server->WarnResidualFeeds();
  if (scheduler == nullptr) {
    PartitionedScheduler::Options sched_opts;
    // With a pipelined window, each subscriber may legitimately hold
    // `window` transfers in flight; the default two slots per partition
    // would starve the window before the link does. Scale the partition
    // slot pool so windows, not slots, are the binding concurrency limit.
    size_t window = server->options_.delivery.window;
    if (window > sched_opts.slots_per_partition) {
      sched_opts.slots_per_partition = window * 2;
    }
    server->owned_scheduler_ =
        std::make_unique<PartitionedScheduler>(sched_opts);
    scheduler = server->owned_scheduler_.get();
  }
  scheduler->AttachMetrics(server->metrics_);
  transport->AttachMetrics(server->metrics_);
  AttachCodecMetrics(server->metrics_);
  server->delivery_ = std::make_unique<DeliveryEngine>(
      loop, server->registry_.get(), server->receipts_.get(), fs, transport,
      scheduler, invoker, logger, server->options_.delivery, server->metrics_,
      server->tracer_.get());
  if (server->plans_ != nullptr) {
    server->delivery_->AttachPlans(server->plans_.get());
  }
  // Config-file ingest tuning overrides the compiled-in defaults, same
  // contract as the delivery block above.
  {
    const IngestTuningSpec& tune = config.ingest;
    IngestPipeline::Options* g = &server->options_.ingest;
    if (tune.workers) g->workers = *tune.workers;
    if (tune.queue_depth) g->queue_depth = static_cast<size_t>(*tune.queue_depth);
    if (tune.batch) g->batch = static_cast<size_t>(*tune.batch);
    if (tune.overload_policy) {
      BISTRO_ASSIGN_OR_RETURN(g->overload_policy,
                              OverloadPolicyFromName(*tune.overload_policy));
    }
    g->staging_root = server->options_.staging_root;
    g->sync_staging = server->options_.sync_staging;
    g->spill_path = path::Join(server->options_.db_dir, "ingest.spill");
  }
  server->pipeline_ = std::make_unique<IngestPipeline>(
      server->options_.ingest, fs, server->classifier_.get(),
      server->registry_.get(), server->receipts_.get(), loop, logger,
      server->metrics_);
  if (server->plans_ != nullptr) {
    server->pipeline_->AttachPlans(server->plans_.get());
  }
  // In threaded mode the committed/error callbacks arrive via loop posts
  // that can outlive this server; the weak token turns them into no-ops.
  {
    auto weak = std::weak_ptr<char>(server->alive_);
    BistroServer* srv = server.get();
    server->pipeline_->SetCallbacks(
        [weak, srv](const IncomingFile&) {
          if (!weak.lock()) return;
          srv->files_classified_->Increment();
        },
        [weak, srv](const IncomingFile& file) {
          if (!weak.lock()) return;
          srv->files_unmatched_->Increment();
          // Tokenize once here (the table-driven scan the classifier
          // shares); the analyzer folds the observation without
          // re-walking the name.
          srv->unmatched_.push_back({file.name, file.arrival_time,
                                     Fnv1a64(file.name),
                                     TokenizeName(file.name)});
          srv->logger_->Debug("classifier", "unmatched file: " + file.name);
        },
        [weak, srv](const IngestPipeline::Committed& done) {
          if (!weak.lock()) return;
          srv->OnIngestCommitted(done);
        },
        [weak, srv](const IncomingFile& file, const Status& status) {
          if (!weak.lock()) return;
          srv->logger_->Error("ingest", "failed to ingest " +
                                            file.landing_path + ": " +
                                            status.ToString());
        });
  }
  server->pipeline_->Start();
  // Level gauges refresh at scrape time; the weak token makes the hook a
  // no-op once this server is gone (the registry may outlive it).
  Gauge* receipts_gauge = server->metrics_->GetGauge(
      "bistro_server_arrival_receipts", "Arrival receipts currently retained");
  Gauge* traces_gauge = server->metrics_->GetGauge(
      "bistro_trace_retained_files", "File traces held in the ring buffer");
  server->metrics_->AddCollectHook(
      [weak = std::weak_ptr<char>(server->alive_), srv = server.get(),
       receipts_gauge, traces_gauge] {
        if (!weak.lock()) return;
        receipts_gauge->Set(static_cast<int64_t>(srv->receipts_->ArrivalCount()));
        traces_gauge->Set(static_cast<int64_t>(srv->tracer_->retained()));
      });
  // Receipts may already hold undelivered history (crash recovery):
  // recompute every subscriber's queue at startup. Runs off the
  // subscription index, not a registry scan — same contract as the
  // delivery hot path.
  for (const auto& name :
       server->delivery_->subscription_index()->ActiveSubscribers()) {
    server->delivery_->Backfill(name);
  }
  return server;
}

Status BistroServer::Deposit(const std::string& source,
                             const std::string& filename,
                             std::string content) {
  std::string landing_dir = path::Join(options_.landing_root, source);
  std::string landing_path = path::Join(landing_dir, filename);
  BISTRO_RETURN_IF_ERROR(fs_->WriteFile(landing_path, content));
  // Threaded ingest acks the deposit at admission, before the receipt is
  // durable, so the landing copy must survive a crash on its own — it is
  // what the restart rescan re-admits.
  if (pipeline_->threaded()) {
    BISTRO_RETURN_IF_ERROR(fs_->Sync(landing_path));
  }
  IncomingFile file;
  file.name = filename;
  file.landing_path = landing_path;
  file.size = content.size();
  file.arrival_time = loop_->Now();
  file.source = source;
  return Ingest(file);
}

Result<size_t> BistroServer::ScanLandingZone() {
  BISTRO_ASSIGN_OR_RETURN(auto entries,
                          fs_->ListRecursive(options_.landing_root));
  size_t ingested = 0;
  for (const FileInfo& info : entries) {
    // Already admitted (threaded mode): the pipeline owns this file.
    if (pipeline_->InFlight(info.path)) continue;
    IncomingFile file;
    file.name = std::string(path::Basename(info.path));
    file.landing_path = info.path;
    file.size = info.size;
    file.arrival_time = loop_->Now();
    std::string_view dir = path::Dirname(info.path);
    file.source = std::string(path::Basename(dir));
    // A crash between a file's receipt commit and its landing-file
    // removal leaves this leftover behind; its receipt (found via the
    // name index) proves it was ingested, so finish the removal instead
    // of double-ingesting. (File names are assumed unique per file — the
    // paper's patterns embed timestamps, §3.1.)
    if (receipts_->FindIdByName(file.name).ok()) {
      Status removed = fs_->Delete(info.path);
      if (!removed.ok() && !removed.IsNotFound()) {
        logger_->Error("ingest",
                       "failed to remove leftover landing file " + info.path);
      }
      continue;
    }
    Status s = Ingest(file);
    if (!s.ok()) {
      logger_->Error("ingest",
                     "failed to ingest " + info.path + ": " + s.ToString());
      continue;
    }
    ++ingested;
  }
  return ingested;
}

Status BistroServer::Ingest(const IncomingFile& file) {
  files_received_->Increment();
  bytes_received_->Increment(file.size);
  // The pipeline runs classify -> normalize/compress -> stage -> receipt
  // group commit; unmatched files stay in the landing zone's quarantine
  // area for the analyzer to study. In sync mode (workers == 0) all of it
  // happens inside this call; in threaded mode this call only classifies
  // and admits, and OnIngestCommitted fires later on the event loop.
  return pipeline_->Submit(file);
}

void BistroServer::OnIngestCommitted(const IngestPipeline::Committed& done) {
  const StagedFile& staged = done.staged;
  tracer_->Begin(staged.id, staged.name, staged.feeds.front(),
                 staged.arrival_time);
  tracer_->Mark(staged.id, PipelineStage::kClassify, done.classify_at);
  tracer_->Mark(staged.id, PipelineStage::kNormalize, done.normalize_at);
  tracer_->Mark(staged.id, PipelineStage::kStage, done.stage_at);
  tracer_->Mark(staged.id, PipelineStage::kReceipt, done.receipt_at);
  for (const auto& feed : staged.feeds) {
    monitor_.OnArrival(feed, staged.size, staged.arrival_time);
  }
  delivery_->SubmitStagedFile(staged);
}

void BistroServer::SourceEndOfBatch(const FeedName& feed,
                                    TimePoint batch_time) {
  punctuations_->Increment();
  delivery_->OnSourcePunctuation(feed, batch_time);
}

Status BistroServer::AddSubscriber(const SubscriberSpec& spec) {
  BISTRO_RETURN_IF_ERROR(registry_->AddSubscriber(spec));
  delivery_->subscription_index()->Rebuild();
  logger_->Info("admin", "subscriber added: " + spec.name);
  delivery_->Backfill(spec.name);
  return Status::OK();
}

Status BistroServer::UpdateSubscriber(const SubscriberSpec& spec) {
  BISTRO_RETURN_IF_ERROR(registry_->UpdateSubscriber(spec));
  delivery_->subscription_index()->Rebuild();
  return Status::OK();
}

Status BistroServer::ReviseFeed(const FeedSpec& spec) {
  // Plans compile before the classifier, so a plan failure leaves both
  // tables untouched; a classifier failure puts the old plan table back.
  std::shared_ptr<const CompiledPlans> plans_before =
      plans_ != nullptr ? plans_->snapshot() : nullptr;
  BISTRO_RETURN_IF_ERROR(pipeline_->ReviseDefinitions([&] {
    return registry_->UpdateFeed(spec, [&]() -> Status {
      if (plans_ != nullptr) BISTRO_RETURN_IF_ERROR(plans_->Rebuild());
      Status compiled = classifier_->Rebuild();
      if (!compiled.ok()) {
        if (plans_ != nullptr) plans_->Publish(std::move(plans_before));
        return compiled;
      }
      delivery_->subscription_index()->Rebuild();
      return Status::OK();
    });
  }));
  logger_->Info("admin", "feed definition revised: " + spec.name);
  WarnResidualFeeds();
  delivery_->BackfillFeed(spec.name);
  return Status::OK();
}

void BistroServer::WarnResidualFeeds() {
  std::shared_ptr<const FeedAutomaton> table = classifier_->automaton();
  if (table->residual().empty()) return;
  logger_->Warning(
      "classifier",
      StrFormat("%zu pattern(s) of %zu feed(s) break the compile budget and "
                "are matched one by one after the DFA scan: %s",
                table->stats().residual_patterns,
                table->stats().residual_feeds,
                table->ResidualFeedNames().c_str()));
}

Result<std::string> BistroServer::Retrieve(FileId file_id) const {
  BISTRO_ASSIGN_OR_RETURN(ArrivalReceipt receipt,
                          receipts_->GetArrival(file_id));
  return fs_->ReadFile(receipt.staged_path);
}

void BistroServer::RunMaintenance() {
  TimePoint now = loop_->Now();
  if (options_.history_window > 0) {
    TimePoint cutoff = now - options_.history_window;
    if (cutoff > 0) {
      auto expired = receipts_->ExpireBefore(cutoff);
      if (expired.ok()) {
        for (const std::string& staged : *expired) {
          Status s = fs_->Delete(staged);
          if (!s.ok() && !s.IsNotFound()) {
            logger_->Error("cleaner", "failed to expunge " + staged);
          }
        }
        files_expired_->Increment(expired->size());
      } else {
        logger_->Error("cleaner", "expire failed: " + expired.status().ToString());
      }
    }
  }
  monitor_.CheckStalls(now);
}

void BistroServer::StartMaintenanceTimer() {
  if (maintenance_running_) return;
  maintenance_running_ = true;
  loop_->PostAfter(options_.maintenance_interval,
                   [weak = std::weak_ptr<char>(alive_), this] {
                     if (!weak.lock()) return;
                     RunMaintenance();
                     maintenance_running_ = false;
                     StartMaintenanceTimer();
                   });
}

std::vector<FileObservation> BistroServer::DrainUnmatched() {
  std::vector<FileObservation> out;
  out.swap(unmatched_);
  return out;
}

Status BistroServer::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case MessageType::kFileData:
      // An upstream Bistro server (or source agent) pushed a file: it
      // enters our pipeline exactly like a locally deposited file. A
      // checksum mismatch NACKs the delivery so the upstream retries.
      if (msg.payload_crc != 0 && Crc32(msg.payload) != msg.payload_crc) {
        return Status::Corruption("payload crc mismatch: " + msg.name);
      }
      return Deposit("upstream", msg.name, msg.payload.str());
    case MessageType::kEndOfBatch:
      SourceEndOfBatch(msg.feed, msg.batch_time);
      return Status::OK();
    case MessageType::kSourceNotify:
      // A cooperating source deposited files itself and is telling us.
      return ScanLandingZone().status();
    case MessageType::kHeartbeat:
    case MessageType::kAck:
      return Status::OK();
    case MessageType::kFileNotify:
      // Hybrid pull not implemented server-to-server; acknowledge.
      return Status::OK();
  }
  return Status::InvalidArgument("unhandled message type");
}

}  // namespace bistro
