#ifndef BISTRO_INGEST_PLAN_H_
#define BISTRO_INGEST_PLAN_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "config/registry.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "pattern/normalizer.h"

namespace bistro {

/// Deterministic token bucket backing a plan's admission quota. Tokens
/// refill continuously at capacity-per-interval; both budgets (files,
/// bytes) share one bucket so a file is admitted atomically or not at
/// all. Driven by the event-loop clock, so it is exactly reproducible
/// under simulated time. Buckets survive plan recompilation (the runtime
/// keys them by plan selector), so a feed revision never refunds tokens.
class QuotaBucket {
 public:
  /// `files` / `bytes` <= 0 disables that budget.
  QuotaBucket(int64_t files, int64_t bytes, Duration interval);

  /// Admits one file of `size` bytes at `now`, consuming tokens, or
  /// refuses it leaving the bucket untouched.
  bool TryAdmit(TimePoint now, uint64_t size);

  int64_t file_capacity() const { return file_capacity_; }
  int64_t byte_capacity() const { return byte_capacity_; }
  Duration interval() const { return interval_; }

 private:
  void RefillLocked(TimePoint now);

  std::mutex mu_;
  const int64_t file_capacity_;
  const int64_t byte_capacity_;
  const Duration interval_;
  double file_tokens_;
  double byte_tokens_;
  TimePoint last_ = 0;
  bool primed_ = false;
};

/// Worker-stage enrichment hooks a plan may request.
enum class EnrichOp {
  kProvenance,  // prepend "#bistro-provenance feed=... arrival=..." header
  kChecksum,    // prepend "#bistro-crc32 <hex>" header over the content
};

/// One feed's lowered stage configuration: the result of resolving every
/// plan block that covers the feed (most specific selector wins per
/// attribute) into what each pipeline stage consumes directly.
struct FeedPlan {
  FeedName feed;
  FeedName selector;          // the winning plan block (for rendering)
  /// Admit stage: shared token bucket (null = no quota). Shared across
  /// every feed lowered from the same plan block — a group-prefix plan's
  /// quota is one budget for the whole subtree (multi-tenant semantics).
  std::shared_ptr<QuotaBucket> quota;
  /// Classify stage: basis points (of 10000) of files kept. Files are
  /// chosen by a deterministic hash of (feed, name), so replays and
  /// rescans make the same choice.
  int sample_keep_bp = 10000;
  /// Worker stage: normalizer overriding the feed's own (compiled from
  /// the feed spec with the plan's transform applied).
  std::optional<Normalizer> transform;
  std::vector<EnrichOp> enrich;
  /// Delivery stage: restrict fan-out to these identities (empty = all).
  std::vector<std::string> route;
  /// Duplicate-delivery split: a file goes to exactly one arm, chosen by
  /// name hash mod 100 against the cumulative percent table.
  std::vector<PlanSplitArm> split;
  /// Scheduler: deadline = arrival + tardiness * scale_num / scale_den.
  int deadline_scale_num = 1;
  int deadline_scale_den = 1;
  std::string slo;      // "", "interactive", "standard", "bulk"
  int replicate = 0;    // validated redundancy requirement (0 = unset)
};

/// An immutable compiled plan table, published RCU-style: readers grab
/// the shared_ptr and use it lock-free; rebuilds swap in a fresh table.
struct CompiledPlans {
  std::map<FeedName, FeedPlan> feeds;

  const FeedPlan* Find(const FeedName& feed) const {
    auto it = feeds.find(feed);
    return it == feeds.end() ? nullptr : &it->second;
  }
};

/// Validation context: the delivery identities route/split may name and
/// the size of the peer fleet replicate is checked against.
struct PlanContext {
  std::vector<std::string> delivery_targets;
  size_t peer_count = 0;
};

/// Builds the context from a parsed config: subscribers, groups and
/// peers all share the delivery namespace.
PlanContext PlanContextFromConfig(const ServerConfig& config);

/// Validates `plans` against the registry and lowers them onto concrete
/// feeds. Rejects: a selector matching no feed or group, route/split
/// targets outside the delivery namespace, replicate above the peer
/// fleet, and two plan blocks both budgeting quota for one feed (a
/// feed's admission budget must come from exactly one plan). `buckets`
/// carries token-bucket state across recompilations (may be null: fresh
/// buckets, used by one-shot validation).
Result<std::shared_ptr<const CompiledPlans>> CompilePlans(
    const std::vector<PlanSpec>& plans, const FeedRegistry& registry,
    const PlanContext& context,
    std::map<FeedName, std::shared_ptr<QuotaBucket>>* buckets = nullptr);

/// By-value snapshot of the runtime's counters (admin `plans` command).
struct PlanStats {
  size_t governed_feeds = 0;
  uint64_t rebuilds = 0;
  uint64_t quota_shed = 0;
  uint64_t sampled_out = 0;
  uint64_t route_filtered = 0;
  uint64_t split_routed = 0;
  uint64_t enriched = 0;
  uint64_t transformed = 0;
};

/// The live plan table: compiles the config's plan blocks against the
/// registry and publishes the result as an immutable snapshot. Plans
/// depend only on feed definitions, so the table is compiled once at
/// load and once per feed revision (BistroServer::ReviseFeed calls
/// Rebuild), never on a lookup. The ingest pipeline and the delivery
/// engine consult it on their hot paths; a null runtime (no plans
/// configured) costs nothing.
///
/// Thread contract: snapshot() and the hook methods are callable from
/// pipeline workers and the event loop concurrently. Rebuild and the
/// primary-match refresh in FilterArrival read the registry, so they run
/// under the pipeline's definitions lock (exclusive for Rebuild, shared
/// for the hook), the same protection the normalizer reads get.
class PlanRuntime {
 public:
  PlanRuntime(std::vector<PlanSpec> plans, const FeedRegistry* registry,
              PlanContext context);

  /// Compiles the plans against the registry as it stands and publishes
  /// the table. On failure the previous table (none before the first
  /// success) stays published and the error is returned: BistroServer
  /// fails Create on it, and refuses the feed revision that caused it.
  Status Rebuild();

  /// Publishes `snap`, a table this runtime compiled. Rebuild publishes
  /// through it; a feed revision the classifier refuses after the plan
  /// rebuild puts the previous table back with it.
  void Publish(std::shared_ptr<const CompiledPlans> snap);

  /// The current compiled table (null before the first successful
  /// Rebuild).
  std::shared_ptr<const CompiledPlans> snapshot() const;

  /// Registers bistro_plan_* series.
  void AttachMetrics(MetricsRegistry* registry);

  // ------------------------------------------------- ingest-stage hooks

  /// What admission decided for a file after plan filtering.
  enum class ArrivalDecision {
    kAdmit,    // at least one feed survived; c->feeds holds the survivors
    kDefer,    // every feed refused by quota: leave the landing file so a
               // later rescan retries it once tokens refill
    kDiscard,  // every feed sampled out: the choice is a deterministic
               // hash, so retrying can never change it — drop the file
  };

  /// Applies sampling and quota to a fresh classification. Feeds the
  /// file was sampled out of (or that are over budget) are removed,
  /// and the primary match is refreshed when the leading feed changes.
  ArrivalDecision FilterArrival(const IncomingFile& file, TimePoint now,
                                Classification* c);

  /// Runs the plan's enrichment hooks over `content` (before the format
  /// transform, so headers compress with the payload).
  void Enrich(const FeedPlan& fp, const IncomingFile& file,
              const FeedName& feed, std::string* content);

  /// Counts one worker-stage transform override application.
  void NoteTransformed() { transformed_->Increment(); }

  // ----------------------------------------------- delivery-stage hooks

  /// Whether `sub` should receive `file_name` on `feed` under the plan's
  /// routing and split rules. True when the feed has no plan.
  bool AllowsDelivery(const FeedName& feed, const std::string& file_name,
                      const SubscriberName& sub);

  /// The feed's delivery deadline bound after SLO scaling.
  Duration TardinessFor(const FeedName& feed, Duration base);

  PlanStats stats();

 private:
  /// Held only to copy or swap snap_, never across a compile.
  mutable std::mutex mu_;
  const std::vector<PlanSpec> plans_;
  const FeedRegistry* registry_;
  const PlanContext context_;
  std::shared_ptr<const CompiledPlans> snap_;
  /// Token buckets keyed by plan selector; survive recompilation. Only
  /// Rebuild touches the map, and its calls are serialized.
  std::map<FeedName, std::shared_ptr<QuotaBucket>> buckets_;

  /// Fallback registry so the counters below always exist.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* rebuilds_ = nullptr;
  Counter* quota_shed_ = nullptr;
  Counter* sampled_out_ = nullptr;
  Counter* route_filtered_ = nullptr;
  Counter* split_routed_ = nullptr;
  Counter* enriched_ = nullptr;
  Counter* transformed_ = nullptr;
  Gauge* governed_gauge_ = nullptr;
};

/// The deterministic choices the plan hooks make, exposed so tests and
/// documentation can state them exactly.
///
/// A file stays in a sampled feed iff
///   Fnv1a64("sample|" + feed + "|" + name) % 10000 < sample_keep_bp.
bool PlanSampleKeeps(const FeedName& feed, const std::string& name,
                     int sample_keep_bp);
/// A split file goes to the arm whose cumulative percent range contains
///   Fnv1a64("split|" + name) % 100.
const PlanSplitArm* PlanSplitArmFor(const std::vector<PlanSplitArm>& arms,
                                    const std::string& name);

}  // namespace bistro

#endif  // BISTRO_INGEST_PLAN_H_
