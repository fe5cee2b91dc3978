#include "delivery/payload_cache.h"

#include "common/hash.h"

namespace bistro {

void StagedPayloadCache::AttachMetrics(MetricsRegistry* registry) {
  hits_counter_ = registry->GetCounter(
      "bistro_delivery_cache_hits_total",
      "Staged-payload cache hits (fan-out sends reusing shared bytes)");
  misses_counter_ = registry->GetCounter(
      "bistro_delivery_cache_misses_total",
      "Staged-payload cache misses (staging reads + CRC computes)");
  evictions_counter_ = registry->GetCounter(
      "bistro_delivery_cache_evictions_total",
      "Staged payloads evicted by the LRU byte budget");
  bytes_gauge_ = registry->GetGauge("bistro_delivery_cache_bytes",
                                    "Bytes resident in the payload cache");
}

Result<StagedPayloadCache::Entry> StagedPayloadCache::Get(
    const std::string& staged_path) {
  auto it = index_.find(staged_path);
  if (it != index_.end()) {
    ++hits_;
    if (hits_counter_ != nullptr) hits_counter_->Increment();
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->entry;
  }
  ++misses_;
  if (misses_counter_ != nullptr) misses_counter_->Increment();
  BISTRO_ASSIGN_OR_RETURN(std::string content, fs_->ReadFile(staged_path));
  Entry entry;
  entry.crc = Crc32(content);
  entry.payload = std::make_shared<const std::string>(std::move(content));
  if (byte_budget_ == 0) return entry;  // ablation: never retain
  bytes_ += entry.payload->size();
  lru_.push_front(Node{staged_path, entry});
  index_[staged_path] = lru_.begin();
  EvictToBudget();
  if (bytes_gauge_ != nullptr) bytes_gauge_->Set(static_cast<double>(bytes_));
  return entry;
}

void StagedPayloadCache::EvictToBudget() {
  // The just-inserted entry is never evicted, even when it alone exceeds
  // the budget: the caller is about to fan it out, so dropping it would
  // re-read the file once per subscriber.
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    Node& victim = lru_.back();
    bytes_ -= victim.entry.payload->size();
    index_.erase(victim.path);
    lru_.pop_back();
    ++evictions_;
    if (evictions_counter_ != nullptr) evictions_counter_->Increment();
  }
}

void StagedPayloadCache::Invalidate(const std::string& staged_path) {
  auto it = index_.find(staged_path);
  if (it == index_.end()) return;
  bytes_ -= it->second->entry.payload->size();
  lru_.erase(it->second);
  index_.erase(it);
  if (bytes_gauge_ != nullptr) bytes_gauge_->Set(static_cast<double>(bytes_));
}

}  // namespace bistro
