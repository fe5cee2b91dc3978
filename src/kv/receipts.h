#ifndef BISTRO_KV_RECEIPTS_H_
#define BISTRO_KV_RECEIPTS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "kv/kvstore.h"
#include "obs/metrics.h"

namespace bistro {

/// One row of the arrival_receipts database (paper §4.2): a file the
/// server received, with the feeds it was classified into.
struct ArrivalReceipt {
  FileId file_id = 0;
  std::string name;
  std::string staged_path;
  std::string rel_path;  // staging-root-relative path (subscriber dest)
  uint64_t size = 0;
  TimePoint arrival_time = 0;
  TimePoint data_time = 0;
  std::vector<FeedName> feeds;
};

/// The transactional receipt database: arrival receipts plus delivery
/// receipts, in one or more KvStores so a (arrival, delivery...) history
/// survives crashes and delivery queues can always be recomputed.
///
/// Key space:
///   a/<file_id16x>            -> encoded ArrivalReceipt
///   f/<feed>/<file_id16x>     -> ""            (per-feed index)
///   n/<name>                  -> file_id16x    (latest arrival by name;
///                                lets the landing-zone scan skip files a
///                                crash left behind after their receipt
///                                committed)
///   d/<subscriber>/<file_id16x> -> delivery time (decimal)
///   seq                       -> last assigned file id
///
/// Sharding (`shards` > 1): receipt I/O must scale with shard count, not
/// fanout, so keys hash-partition across independent KvStores (each with
/// its own WAL + group commit):
///
///   - a/, f/ and n/ rows live in shard `file_id % shards`. Colocating a
///     file's three rows keeps an arrival a single atomic batch in one
///     WAL — a torn group still loses only a record *suffix*, exactly as
///     in the single-store layout. FindIdByName consults every shard and
///     returns the highest id found (same-name re-arrivals may land in
///     different shards).
///   - d/ rows live in shard `hash(subscriber) % shards`, so a delivery
///     group commit partitions by subscriber and fsyncs only the shards
///     it touched, and one subscriber's Delivered lookups stay in one
///     store.
///   - `seq` lives in shard 0, bumped first as before: burned ids are
///     never reassigned no matter which shard's commit a crash severs.
///
/// shards == 1 (the default) keeps the seed's exact on-disk layout in
/// `dir` itself; shards > 1 use `dir/shard-<i>`.
class ReceiptDatabase {
 public:
  static Result<std::unique_ptr<ReceiptDatabase>> Open(
      FileSystem* fs, std::string dir,
      KvStore::Options options = KvStore::Options(), int shards = 1);

  /// Registers receipt counters (arrivals, deliveries, expiries) and the
  /// underlying WALs' counters in `registry`. Optional.
  void AttachMetrics(MetricsRegistry* registry);

  /// The one arrival commit (the ingest pipeline's receipt stage; a
  /// single arrival is a group of one): assigns each receipt the next
  /// FileId (durable: ids survive restart without reuse) and records it
  /// with its per-feed and name index rows as one atomic batch. The
  /// group rides one WAL append + fsync per *touched shard*, amortizing
  /// the durability cost over the group. The sequence bump is shard 0's
  /// first record and shard 0 commits first, so a torn group (a crash
  /// mid-commit preserves a per-shard record prefix) can only burn ids —
  /// it can never reassign an id a surviving receipt already uses. On
  /// success every receipt's file_id is filled in, ascending in input
  /// order.
  Status RecordArrivalGroup(std::vector<ArrivalReceipt>* receipts);

  /// The latest arrival recorded under `name`, via the n/<name> index.
  /// NotFound when the name was never recorded (or predates the index).
  Result<FileId> FindIdByName(const std::string& name) const;

  /// One delivery receipt: `file_id` was delivered to `subscriber` at
  /// `when`.
  struct DeliveryRecord {
    SubscriberName subscriber;
    FileId file_id = 0;
    TimePoint when = 0;
  };

  /// The one delivery-receipt commit (mirror of RecordArrivalGroup; a
  /// single receipt is a group of one): the group partitions by
  /// subscriber shard and rides one WAL append + one fsync per touched
  /// shard. Unlike arrivals there is no sequence to bump — a torn group
  /// simply loses a suffix of some shard's receipts, which at worst
  /// causes those files to be re-delivered after recovery; subscriber-side
  /// FileId dedupe absorbs the repeats, so grouping never weakens
  /// exactly-once.
  Status RecordDeliveryGroup(const std::vector<DeliveryRecord>& records);

  /// Whether the file has been delivered to the subscriber.
  bool Delivered(const SubscriberName& subscriber, FileId file_id) const;

  Result<ArrivalReceipt> GetArrival(FileId file_id) const;

  /// All file ids recorded for `feed`, ascending (merged across shards).
  std::vector<FileId> FilesInFeed(const FeedName& feed) const;
  /// All file ids recorded for any of `feeds`, ascending, each once: the
  /// candidate step of a delivery queue.
  std::vector<FileId> FilesInFeeds(const std::vector<FeedName>& feeds) const;

  /// The per-file step of a delivery queue: `file_id`'s arrival receipt
  /// if it has no delivery receipt for `subscriber` and arrived at or
  /// after `window_start`; nullopt if it is delivered, outside the
  /// window, or expired (the feed index may outlive expired receipts).
  std::optional<ArrivalReceipt> Undelivered(const SubscriberName& subscriber,
                                            FileId file_id,
                                            TimePoint window_start) const;

  /// Computes a subscriber's delivery queue: every file in any of `feeds`
  /// with arrival_time >= window_start that has no delivery receipt for
  /// `subscriber` — Undelivered() over FilesInFeeds(). This is the
  /// paper's core reliability mechanism — queues are derived from
  /// receipts, so subscriber restarts, new subscriptions and feed
  /// redefinitions all reduce to recomputing this set. The delivery
  /// engine walks the same two steps a page at a time.
  std::vector<ArrivalReceipt> ComputeDeliveryQueue(
      const SubscriberName& subscriber, const std::vector<FeedName>& feeds,
      TimePoint window_start = 0) const;

  /// Deletes every receipt of the files with arrival_time < cutoff: the
  /// arrival, feed-index and name rows, then the delivery rows of every
  /// subscriber and group member, with one group commit per touched shard.
  /// That second pass also drops any delivery row whose file has no
  /// arrival receipt, so rows a crash between the passes left behind are
  /// collected by the next call that expires a file; a call with nothing
  /// due scans no delivery rows. Returns the staged paths of expunged
  /// files (for the window cleaner).
  Result<std::vector<std::string>> ExpireBefore(TimePoint cutoff);

  /// Number of arrival receipts (summed across shards).
  size_t ArrivalCount() const;

  /// Shard 0's store (the only shard when sharding is off).
  KvStore* kv() { return kvs_[0].get(); }
  KvStore* kv(size_t shard) { return kvs_[shard].get(); }
  size_t shard_count() const { return kvs_.size(); }

 private:
  explicit ReceiptDatabase(std::vector<std::unique_ptr<KvStore>> kvs);

  size_t ShardOfId(FileId id) const {
    return static_cast<size_t>(id) % kvs_.size();
  }
  size_t ShardOfSubscriber(const SubscriberName& subscriber) const;
  /// Commits each shard's batches with one ApplyMulti, shard 0 first,
  /// skipping untouched shards.
  Status CommitByShard(
      const std::vector<std::vector<std::vector<KvStore::Write>>>& by_shard);

  std::vector<std::unique_ptr<KvStore>> kvs_;
  std::mutex seq_mu_;
  Counter* arrivals_recorded_ = nullptr;
  Counter* deliveries_recorded_ = nullptr;
  Counter* files_expired_ = nullptr;
  Counter* group_commits_ = nullptr;
  Counter* group_commit_files_ = nullptr;
  Counter* delivery_group_commits_ = nullptr;
  Counter* delivery_group_files_ = nullptr;
  Counter* shard_commits_ = nullptr;
};

}  // namespace bistro

#endif  // BISTRO_KV_RECEIPTS_H_
