#ifndef BISTRO_DELIVERY_PAYLOAD_CACHE_H_
#define BISTRO_DELIVERY_PAYLOAD_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "vfs/filesystem.h"

namespace bistro {

/// LRU cache of staged-file payloads keyed by staged path, with a byte
/// budget. One entry holds the immutable bytes (shared with every
/// in-flight Message that aliases them) plus the end-to-end CRC computed
/// once at insert — so an N-subscriber fan-out costs one staging read,
/// one CRC, and zero copies, however large N is (paper §4: per-subscriber
/// marginal delivery cost must be near zero for fan-out to scale).
///
/// Eviction drops the cache's reference only; in-flight messages keep the
/// payload alive through their own shared_ptr until the last ack.
class StagedPayloadCache {
 public:
  struct Entry {
    std::shared_ptr<const std::string> payload;
    uint32_t crc = 0;
  };

  /// `byte_budget` 0 disables caching entirely (every Get re-reads and
  /// re-CRCs — the lockstep-baseline ablation for bench_delivery).
  explicit StagedPayloadCache(FileSystem* fs, size_t byte_budget)
      : fs_(fs), byte_budget_(byte_budget) {}

  /// Returns the cached entry for `staged_path`, reading + CRC-ing the
  /// file on a miss. Errors come from the filesystem read.
  Result<Entry> Get(const std::string& staged_path);

  /// Drops one path (e.g. after the staged file is rewritten).
  void Invalidate(const std::string& staged_path);

  void AttachMetrics(MetricsRegistry* registry);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  size_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }

 private:
  void EvictToBudget();

  FileSystem* fs_;
  size_t byte_budget_;
  size_t bytes_ = 0;
  // Most-recently-used at the front; map values point into the list.
  struct Node {
    std::string path;
    Entry entry;
  };
  std::list<Node> lru_;
  std::map<std::string, std::list<Node>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  Gauge* bytes_gauge_ = nullptr;
};

}  // namespace bistro

#endif  // BISTRO_DELIVERY_PAYLOAD_CACHE_H_
