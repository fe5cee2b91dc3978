#include "ingest/pipeline.h"

#include <algorithm>

#include "common/hash.h"
#include "ingest/plan.h"
#include "pattern/normalizer.h"

namespace bistro {

Result<OverloadPolicy> OverloadPolicyFromName(std::string_view name) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "shed_oldest") return OverloadPolicy::kShedOldest;
  if (name == "spill") return OverloadPolicy::kSpillToDisk;
  return Status::InvalidArgument("unknown overload policy: " +
                                 std::string(name));
}

IngestPipeline::IngestPipeline(Options options, FileSystem* fs,
                               FeedClassifier* classifier,
                               const FeedRegistry* registry,
                               ReceiptDatabase* receipts, EventLoop* loop,
                               Logger* logger, MetricsRegistry* metrics)
    : options_(std::move(options)),
      fs_(fs),
      classifier_(classifier),
      registry_(registry),
      receipts_(receipts),
      loop_(loop),
      clock_(loop->clock()),
      logger_(logger) {
  if (options_.workers < 0) options_.workers = 0;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.batch == 0) options_.batch = 1;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  admitted_ = metrics->GetCounter("bistro_ingest_admitted_total",
                                  "Files admitted into the ingest pipeline");
  committed_ = metrics->GetCounter(
      "bistro_ingest_committed_total",
      "Files whose arrival receipt reached durable storage");
  unmatched_ = metrics->GetCounter(
      "bistro_ingest_unmatched_total",
      "Files the classify stage matched to no feed");
  shed_ = metrics->GetCounter(
      "bistro_ingest_shed_total",
      "Oldest queued files evicted under the shed_oldest overload policy");
  spilled_ = metrics->GetCounter(
      "bistro_ingest_spilled_total",
      "Files parked in the spill queue under the spill overload policy");
  blocked_ = metrics->GetCounter(
      "bistro_ingest_blocked_total",
      "Submit calls that blocked on a full queue (block overload policy)");
  errors_ = metrics->GetCounter(
      "bistro_ingest_errors_total",
      "Files that failed a pipeline stage (left in landing for rescan)");
  Histogram::Options batch_opts;
  batch_opts.min_bound = 1;
  batch_opts.num_buckets = 12;  // covers group sizes up to 4096
  commit_batch_size_ = metrics->GetHistogram(
      "bistro_ingest_commit_batch_size",
      "Arrival receipts per group commit (one fsync each)", batch_opts);
  Gauge* queue_gauge = metrics->GetGauge(
      "bistro_ingest_queue_depth", "Files queued toward the ingest workers");
  Gauge* receipt_gauge =
      metrics->GetGauge("bistro_ingest_receipt_queue_depth",
                        "Staged files awaiting receipt group commit");
  Gauge* spill_gauge = metrics->GetGauge("bistro_ingest_spill_depth",
                                         "Files parked in the spill queue");
  Gauge* inflight_gauge = metrics->GetGauge(
      "bistro_ingest_in_flight", "Admitted files not yet committed or failed");
  metrics->AddCollectHook([weak = std::weak_ptr<char>(alive_), this,
                           queue_gauge, receipt_gauge, spill_gauge,
                           inflight_gauge] {
    if (!weak.lock()) return;
    IngestStats s = stats();
    queue_gauge->Set(static_cast<int64_t>(s.queue_depth));
    receipt_gauge->Set(static_cast<int64_t>(s.receipt_queue_depth));
    spill_gauge->Set(static_cast<int64_t>(s.spill_depth));
    inflight_gauge->Set(static_cast<int64_t>(s.in_flight));
  });
  if (threaded()) shards_.resize(static_cast<size_t>(options_.workers));
}

IngestPipeline::~IngestPipeline() { Shutdown(); }

void IngestPipeline::SetCallbacks(ClassifiedCallback on_classified,
                                  UnmatchedCallback on_unmatched,
                                  CommittedCallback on_committed,
                                  ErrorCallback on_error) {
  on_classified_ = std::move(on_classified);
  on_unmatched_ = std::move(on_unmatched);
  on_committed_ = std::move(on_committed);
  on_error_ = std::move(on_error);
}

void IngestPipeline::Start() {
  if (!threaded()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || shutdown_) return;
    started_ = true;
    live_workers_ = static_cast<size_t>(options_.workers);
  }
  // A previous process's spill journal describes files that are back in
  // the landing zone now; it is stale the moment we boot.
  (void)fs_->Delete(options_.spill_path);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&IngestPipeline::WorkerLoop, this,
                          static_cast<size_t>(i));
  }
  receipt_thread_ = std::thread(&IngestPipeline::ReceiptLoop, this);
}

size_t IngestPipeline::ShardIndex(const FeedName& feed) const {
  return static_cast<size_t>(Fnv1a64(feed) % shards_.size());
}

Status IngestPipeline::Submit(const IncomingFile& file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::Unavailable("ingest pipeline shut down");
  }
  if (!threaded()) return IngestSync(file);

  Classification c = classifier_->Classify(file.name);
  if (!c.matched()) {
    unmatched_->Increment();
    if (on_unmatched_) on_unmatched_(file);
    return Status::OK();
  }
  if (!AdmitByPlan(file, &c)) return Status::OK();
  if (on_classified_) on_classified_(file);
  Item item;
  item.file = file;
  item.c = std::move(c);
  item.classify_at = clock_->Now();
  return Admit(std::move(item));
}

bool IngestPipeline::AdmitByPlan(const IncomingFile& file, Classification* c) {
  if (plans_ == nullptr) return true;
  PlanRuntime::ArrivalDecision decision;
  {
    // Shared: the plan hook reads the registry (primary match refresh),
    // the same reads the worker stage protects this way.
    std::shared_lock<std::shared_mutex> lock(defs_mu_);
    decision = plans_->FilterArrival(file, clock_->Now(), c);
  }
  switch (decision) {
    case PlanRuntime::ArrivalDecision::kAdmit:
      return true;
    case PlanRuntime::ArrivalDecision::kDefer:
      // Over budget on every feed: the landing file stays put so the
      // landing-zone rescan retries it once quota tokens refill.
      return false;
    case PlanRuntime::ArrivalDecision::kDiscard: {
      // Sampled out of every feed — a deterministic choice a retry can
      // never reverse, so drop the landing file too.
      Status removed = fs_->Delete(file.landing_path);
      if (!removed.ok() && !removed.IsNotFound()) {
        logger_->Warning("ingest", "failed to remove sampled-out file " +
                                       file.landing_path + ": " +
                                       removed.ToString());
      }
      return false;
    }
  }
  return true;
}

Status IngestPipeline::Admit(Item item) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("ingest pipeline shut down");
  if (queued_total_ >= options_.queue_depth) {
    switch (options_.overload_policy) {
      case OverloadPolicy::kBlock: {
        blocked_->Increment();
        space_cv_.wait(lock, [this] {
          return shutdown_ || queued_total_ < options_.queue_depth;
        });
        if (shutdown_) return Status::Unavailable("ingest pipeline shut down");
        break;
      }
      case OverloadPolicy::kShedOldest: {
        // Evict the globally oldest queued (not yet active) file; its
        // landing copy stays behind, so a rescan re-admits it later.
        Shard* oldest_shard = nullptr;
        for (Shard& shard : shards_) {
          if (shard.items.empty()) continue;
          if (oldest_shard == nullptr ||
              shard.items.front().seq < oldest_shard->items.front().seq) {
            oldest_shard = &shard;
          }
        }
        if (oldest_shard != nullptr) {
          Item victim = std::move(oldest_shard->items.front());
          oldest_shard->items.pop_front();
          --queued_total_;
          EraseInFlightLocked(victim.file.landing_path);
          shed_->Increment();
          logger_->Warning("ingest", "overload: shed oldest queued file " +
                                      victim.file.name);
        }
        break;
      }
      case OverloadPolicy::kSpillToDisk: {
        admitted_->Increment();
        spilled_->Increment();
        in_flight_.insert(item.file.landing_path);
        std::string journal_line =
            item.file.name + '\t' + item.file.landing_path + '\n';
        spill_.push_back(std::move(item));
        lock.unlock();
        // The journal is observational (operators inspecting an overloaded
        // server); recovery relies on the landing files themselves.
        Status journaled = fs_->AppendFile(options_.spill_path, journal_line);
        if (!journaled.ok()) {
          logger_->Warning("ingest",
                        "spill journal append failed: " + journaled.ToString());
        }
        return Status::OK();
      }
    }
  }
  admitted_->Increment();
  item.seq = next_seq_++;
  in_flight_.insert(item.file.landing_path);
  size_t si = ShardIndex(item.c.feeds.front());
  shards_[si].items.push_back(std::move(item));
  ++queued_total_;
  work_cv_.notify_all();
  return Status::OK();
}

void IngestPipeline::DrainSpillLocked() {
  while (!spill_.empty() && queued_total_ < options_.queue_depth) {
    Item item = std::move(spill_.front());
    spill_.pop_front();
    item.seq = next_seq_++;
    size_t si = ShardIndex(item.c.feeds.front());
    shards_[si].items.push_back(std::move(item));
    ++queued_total_;
    work_cv_.notify_all();
  }
}

void IngestPipeline::EraseInFlightLocked(const std::string& landing_path) {
  auto it = in_flight_.find(landing_path);
  if (it != in_flight_.end()) in_flight_.erase(it);
  if (in_flight_.empty()) idle_cv_.notify_all();
}

void IngestPipeline::WorkerLoop(size_t shard_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this, shard_index] {
      return shutdown_ || !shards_[shard_index].items.empty();
    });
    if (shutdown_) break;  // queued items drop; landing files persist
    Item item = std::move(shards_[shard_index].items.front());
    shards_[shard_index].items.pop_front();
    --queued_total_;
    DrainSpillLocked();
    space_cv_.notify_all();
    lock.unlock();

    Status staged = StageItem(&item);
    if (staged.ok()) {
      lock.lock();
      receipt_space_cv_.wait(lock, [this] {
        return shutdown_ || receipt_q_.size() < options_.queue_depth;
      });
      // Push even during shutdown: the item is staged, so committing its
      // receipt is strictly better than redoing the work after restart.
      receipt_q_.push_back(std::move(item));
      receipt_cv_.notify_all();
    } else {
      FinishError(item, staged);
      lock.lock();
    }
  }
  --live_workers_;
  receipt_cv_.notify_all();
}

Status IngestPipeline::StageItem(Item* item) {
  BISTRO_ASSIGN_OR_RETURN(std::string content,
                          fs_->ReadFile(item->file.landing_path));
  FeedName feed_name;
  Normalizer normalizer;
  std::shared_ptr<const CompiledPlans> plan_snap;
  const FeedPlan* fp = nullptr;
  {
    // Shared: many workers may read feed definitions concurrently; feed
    // revision (ReviseDefinitions) takes the exclusive side. The
    // normalizer is copied out so compression runs without the lock.
    std::shared_lock<std::shared_mutex> lock(defs_mu_);
    const RegisteredFeed* primary = registry_->FindFeed(item->c.feeds.front());
    if (primary == nullptr) {
      return Status::Internal("classified into unknown feed: " +
                              item->c.feeds.front());
    }
    feed_name = primary->spec.name;
    normalizer = primary->normalizer;
    if (plans_ != nullptr) {
      plan_snap = plans_->snapshot();  // held so `fp` stays valid unlocked
      fp = plan_snap ? plan_snap->Find(feed_name) : nullptr;
      if (fp != nullptr && fp->transform) {
        normalizer = *fp->transform;
        plans_->NoteTransformed();
      }
    }
  }
  if (fp != nullptr && !fp->enrich.empty()) {
    // Enrichment precedes the format transform so headers are part of
    // the (possibly compressed) staged payload.
    plans_->Enrich(*fp, item->file, feed_name, &content);
  }
  BISTRO_ASSIGN_OR_RETURN(
      NormalizedFile normalized,
      normalizer.Apply(item->file.name, item->c.primary_match,
                       std::move(content)));
  item->normalize_at = clock_->Now();
  item->data_time = item->c.primary_match.timestamp.value_or(0);
  item->rel_path = path::Join(feed_name, normalized.relative_path);
  item->staged_path = path::Join(options_.staging_root, item->rel_path);
  item->staged_size = normalized.content.size();
  BISTRO_RETURN_IF_ERROR(fs_->WriteFile(item->staged_path, normalized.content));
  if (options_.sync_staging) {
    BISTRO_RETURN_IF_ERROR(fs_->Sync(item->staged_path));
  }
  item->stage_at = clock_->Now();
  return Status::OK();
}

void IngestPipeline::ReceiptLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    receipt_cv_.wait(lock, [this] {
      return !receipt_q_.empty() || (shutdown_ && live_workers_ == 0);
    });
    if (receipt_q_.empty()) break;  // shutdown and workers are done
    std::vector<Item> group;
    size_t n = std::min(options_.batch, receipt_q_.size());
    group.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      group.push_back(std::move(receipt_q_.front()));
      receipt_q_.pop_front();
    }
    receipt_space_cv_.notify_all();
    lock.unlock();
    CommitGroup(std::move(group));
    lock.lock();
  }
}

void IngestPipeline::CommitGroup(std::vector<Item> group) {
  std::vector<ArrivalReceipt> receipts;
  receipts.reserve(group.size());
  for (const Item& item : group) receipts.push_back(MakeReceipt(item));
  Status committed = receipts_->RecordArrivalGroup(&receipts);
  if (!committed.ok()) {
    // Nothing durable happened (the whole group rolls back); every
    // landing file survives for the rescan to retry.
    for (const Item& item : group) FinishError(item, committed);
    return;
  }
  commit_batch_size_->Record(static_cast<int64_t>(group.size()));
  TimePoint receipt_at = clock_->Now();
  for (size_t i = 0; i < group.size(); ++i) {
    // The receipt is durable: a leftover landing file is now only noise
    // (the scan's name-index check skips it), so a failed delete is a
    // warning, not an ingest failure.
    Status removed = fs_->Delete(group[i].file.landing_path);
    if (!removed.ok() && !removed.IsNotFound()) {
      logger_->Warning("ingest", "failed to remove landing file " +
                                  group[i].file.landing_path + ": " +
                                  removed.ToString());
    }
    committed_->Increment();
    Committed done = BuildCommitted(group[i], receipts[i], receipt_at);
    // Copy the callback into the closure: the posted lambda must not
    // reach back into the pipeline, which may be gone when it runs.
    if (on_committed_) {
      loop_->Post([cb = on_committed_, done = std::move(done)] { cb(done); });
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Item& item : group) EraseInFlightLocked(item.file.landing_path);
}

void IngestPipeline::FinishError(const Item& item, const Status& status) {
  errors_->Increment();
  logger_->Error("ingest", "pipeline failed for " + item.file.landing_path +
                               ": " + status.ToString() +
                               " (left for rescan)");
  if (on_error_) {
    loop_->Post(
        [cb = on_error_, file = item.file, status] { cb(file, status); });
  }
  std::lock_guard<std::mutex> lock(mu_);
  EraseInFlightLocked(item.file.landing_path);
}

ArrivalReceipt IngestPipeline::MakeReceipt(const Item& item) const {
  ArrivalReceipt r;
  r.name = item.file.name;
  r.staged_path = item.staged_path;
  r.rel_path = item.rel_path;
  r.size = item.staged_size;
  r.arrival_time = item.file.arrival_time;
  r.data_time = item.data_time;
  r.feeds = item.c.feeds;
  return r;
}

IngestPipeline::Committed IngestPipeline::BuildCommitted(
    const Item& item, const ArrivalReceipt& receipt,
    TimePoint receipt_at) const {
  Committed done;
  done.staged.id = receipt.file_id;
  done.staged.name = item.file.name;
  done.staged.staged_path = item.staged_path;
  done.staged.rel_path = item.rel_path;
  done.staged.size = item.staged_size;
  done.staged.arrival_time = item.file.arrival_time;
  done.staged.data_time = item.data_time;
  done.staged.feeds = item.c.feeds;
  done.classify_at = item.classify_at;
  done.normalize_at = item.normalize_at;
  done.stage_at = item.stage_at;
  done.receipt_at = receipt_at;
  return done;
}

Status IngestPipeline::IngestSync(const IncomingFile& file) {
  Classification c = classifier_->Classify(file.name);
  if (!c.matched()) {
    unmatched_->Increment();
    if (on_unmatched_) on_unmatched_(file);
    return Status::OK();
  }
  if (!AdmitByPlan(file, &c)) return Status::OK();
  if (on_classified_) on_classified_(file);
  admitted_->Increment();

  Item item;
  item.file = file;
  item.c = std::move(c);
  item.classify_at = clock_->Now();
  BISTRO_RETURN_IF_ERROR(StageItem(&item));

  std::vector<ArrivalReceipt> receipts;
  receipts.push_back(MakeReceipt(item));
  BISTRO_RETURN_IF_ERROR(receipts_->RecordArrivalGroup(&receipts));
  commit_batch_size_->Record(1);
  TimePoint receipt_at = clock_->Now();
  Status removed = fs_->Delete(file.landing_path);
  if (!removed.ok() && !removed.IsNotFound()) {
    logger_->Warning("ingest", "failed to remove landing file " +
                                file.landing_path + ": " + removed.ToString());
  }
  committed_->Increment();
  Committed done = BuildCommitted(item, receipts.front(), receipt_at);
  if (on_committed_) on_committed_(done);
  return Status::OK();
}

bool IngestPipeline::InFlight(const std::string& landing_path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_.count(landing_path) > 0;
}

void IngestPipeline::WaitIdle() {
  if (!threaded()) return;
  std::unique_lock<std::mutex> lock(mu_);
  DrainSpillLocked();
  idle_cv_.wait(lock, [this] { return shutdown_ || in_flight_.empty(); });
}

void IngestPipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  receipt_cv_.notify_all();
  receipt_space_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (receipt_thread_.joinable()) receipt_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Shard& shard : shards_) {
      for (const Item& item : shard.items) {
        EraseInFlightLocked(item.file.landing_path);
      }
      shard.items.clear();
    }
    queued_total_ = 0;
    for (const Item& item : spill_) {
      EraseInFlightLocked(item.file.landing_path);
    }
    spill_.clear();
  }
  idle_cv_.notify_all();
}

Status IngestPipeline::ReviseDefinitions(
    const std::function<Status()>& revise) {
  std::unique_lock<std::shared_mutex> lock(defs_mu_);
  return revise();
}

IngestStats IngestPipeline::stats() const {
  IngestStats s;
  s.admitted = admitted_->value();
  s.committed = committed_->value();
  s.unmatched = unmatched_->value();
  s.shed = shed_->value();
  s.spilled = spilled_->value();
  s.blocked = blocked_->value();
  s.errors = errors_->value();
  std::lock_guard<std::mutex> lock(mu_);
  s.queue_depth = queued_total_;
  s.receipt_queue_depth = receipt_q_.size();
  s.spill_depth = spill_.size();
  s.in_flight = in_flight_.size();
  return s;
}

}  // namespace bistro
