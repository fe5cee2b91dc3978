#ifndef BISTRO_OBS_TRACE_H_
#define BISTRO_OBS_TRACE_H_

#include <array>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"

namespace bistro {

/// The pipeline stages a file passes through (paper §3 Fig. 2), in order.
/// The ingest pipeline stages its bytes *before* committing the arrival
/// receipt (stage write -> group commit -> scheduler handoff), so kReceipt
/// sits after kStage: a receipt must never point at bytes that do not
/// exist yet.
enum class PipelineStage {
  kLanding = 0,          // written into the landing zone
  kClassify,             // matched to its feeds
  kNormalize,            // renamed / compressed
  kStage,                // written into the staging area
  kReceipt,              // arrival receipt persisted (group commit)
  kSchedule,             // delivery jobs submitted to the scheduler
  kSend,                 // transport send started (per subscriber)
  kDeliveryReceipt,      // delivery receipt persisted (per subscriber)
  kTrigger,              // included in a closed trigger batch
};

inline constexpr size_t kNumPipelineStages = 9;

std::string_view PipelineStageName(PipelineStage stage);

/// One recorded stage transition.
struct StageMark {
  PipelineStage stage;
  TimePoint at = 0;
};

/// The lifecycle of one file through the pipeline.
struct FileTrace {
  FileId id = 0;
  std::string name;
  FeedName feed;  // primary feed
  std::vector<StageMark> marks;

  /// Landing time (first mark), 0 if empty.
  TimePoint start() const { return marks.empty() ? 0 : marks.front().at; }
};

/// Per-(feed, stage) latency aggregate.
struct StageRollup {
  uint64_t count = 0;
  Duration total = 0;
  Duration max = 0;

  Duration Mean() const {
    return count == 0 ? 0 : total / static_cast<Duration>(count);
  }
};

/// Records per-file lifecycle spans for every file the server ingests,
/// bounded to the most recent `capacity` files (older traces are evicted;
/// their rollup contributions remain).
///
/// Feeds three views:
///   - individual traces (operator drill-down: "where did file 123 stall?");
///   - per-feed, per-stage rollups (count / mean / max stage latency);
///   - registry histograms `bistro_pipeline_stage_<stage>_latency_us` and
///     `bistro_pipeline_e2e_latency_us` (landing -> delivery receipt).
///
/// Thread-safe, though the server only calls it from the event loop;
/// under SimClock the recorded spans are fully deterministic.
class FileTracer {
 public:
  struct Options {
    Options() {}
    /// Maximum retained traces (ring buffer, oldest evicted first).
    size_t capacity = 1024;
  };

  explicit FileTracer(MetricsRegistry* registry, Options options = Options());

  /// Starts a trace at its landing mark. Evicts the oldest trace at
  /// capacity.
  void Begin(FileId id, const std::string& name, const FeedName& feed,
             TimePoint landing_at);

  /// Appends a stage mark. The stage latency (at - previous mark) feeds
  /// the per-stage histogram and the per-feed rollup; kDeliveryReceipt
  /// additionally records the end-to-end (landing -> now) latency.
  /// Unknown (evicted or never-begun) ids are ignored.
  void Mark(FileId id, PipelineStage stage, TimePoint at);

  /// The trace for `id`, if still retained.
  std::optional<FileTrace> Trace(FileId id) const;

  /// Rollups for one feed, indexed by PipelineStage (kLanding unused).
  std::array<StageRollup, kNumPipelineStages> FeedRollup(
      const FeedName& feed) const;

  /// Feeds with any rollup data, sorted.
  std::vector<FeedName> RolledUpFeeds() const;

  size_t retained() const;

 private:
  MetricsRegistry* registry_;
  Options options_;
  Histogram* e2e_hist_;
  std::array<Histogram*, kNumPipelineStages> stage_hists_{};
  Counter* traces_started_;
  Counter* traces_evicted_;

  mutable std::mutex mu_;
  std::map<FileId, FileTrace> traces_;
  std::deque<FileId> order_;  // insertion order, for eviction
  std::map<FeedName, std::array<StageRollup, kNumPipelineStages>> rollups_;
};

}  // namespace bistro

#endif  // BISTRO_OBS_TRACE_H_
