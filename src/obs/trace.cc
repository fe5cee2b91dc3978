#include "obs/trace.h"

#include <algorithm>

namespace bistro {

std::string_view PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kLanding:
      return "landing";
    case PipelineStage::kClassify:
      return "classify";
    case PipelineStage::kReceipt:
      return "receipt";
    case PipelineStage::kNormalize:
      return "normalize";
    case PipelineStage::kStage:
      return "stage";
    case PipelineStage::kSchedule:
      return "schedule";
    case PipelineStage::kSend:
      return "send";
    case PipelineStage::kDeliveryReceipt:
      return "delivery_receipt";
    case PipelineStage::kTrigger:
      return "trigger";
  }
  return "unknown";
}

FileTracer::FileTracer(MetricsRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  e2e_hist_ = registry_->GetHistogram(
      "bistro_pipeline_e2e_latency_us",
      "Landing to delivery-receipt latency per (file, subscriber)");
  for (size_t i = 0; i < kNumPipelineStages; ++i) {
    auto stage = static_cast<PipelineStage>(i);
    if (stage == PipelineStage::kLanding) continue;  // no span ends at landing
    stage_hists_[i] = registry_->GetHistogram(
        "bistro_pipeline_stage_" + std::string(PipelineStageName(stage)) +
            "_latency_us",
        "Time spent reaching the " + std::string(PipelineStageName(stage)) +
            " stage from the previous mark");
  }
  traces_started_ = registry_->GetCounter("bistro_trace_files_total",
                                          "File traces started");
  traces_evicted_ = registry_->GetCounter(
      "bistro_trace_evicted_total", "File traces evicted from the ring buffer");
}

void FileTracer::Begin(FileId id, const std::string& name, const FeedName& feed,
                       TimePoint landing_at) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = traces_.try_emplace(id);
  if (!inserted) return;  // duplicate Begin: keep the original
  FileTrace& trace = it->second;
  trace.id = id;
  trace.name = name;
  trace.feed = feed;
  trace.marks.push_back({PipelineStage::kLanding, landing_at});
  order_.push_back(id);
  traces_started_->Increment();
  while (order_.size() > options_.capacity) {
    traces_.erase(order_.front());
    order_.pop_front();
    traces_evicted_->Increment();
  }
}

void FileTracer::Mark(FileId id, PipelineStage stage, TimePoint at) {
  Duration span = 0;
  Duration e2e = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = traces_.find(id);
    if (it == traces_.end()) return;
    FileTrace& trace = it->second;
    TimePoint prev = trace.marks.empty() ? at : trace.marks.back().at;
    trace.marks.push_back({stage, at});
    span = std::max<Duration>(0, at - prev);
    if (stage == PipelineStage::kDeliveryReceipt) {
      e2e = std::max<Duration>(0, at - trace.start());
    }
    auto& agg = rollups_[trace.feed][static_cast<size_t>(stage)];
    agg.count++;
    agg.total += span;
    agg.max = std::max(agg.max, span);
  }
  if (Histogram* h = stage_hists_[static_cast<size_t>(stage)]) h->Record(span);
  if (e2e >= 0) e2e_hist_->Record(e2e);
}

std::optional<FileTrace> FileTracer::Trace(FileId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(id);
  if (it == traces_.end()) return std::nullopt;
  return it->second;
}

std::array<StageRollup, kNumPipelineStages> FileTracer::FeedRollup(
    const FeedName& feed) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rollups_.find(feed);
  if (it == rollups_.end()) return {};
  return it->second;
}

std::vector<FeedName> FileTracer::RolledUpFeeds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FeedName> out;
  out.reserve(rollups_.size());
  for (const auto& [feed, _] : rollups_) out.push_back(feed);
  return out;
}

size_t FileTracer::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

}  // namespace bistro
