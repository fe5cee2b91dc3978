#ifndef BISTRO_KV_KVSTORE_H_
#define BISTRO_KV_KVSTORE_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "kv/wal.h"

namespace bistro {

/// Durable, transactional key-value store backing Bistro's receipt
/// databases (paper §4.2).
///
/// Design: an ordered in-memory table, a CRC-framed write-ahead log, and a
/// periodic full checkpoint. Every mutation (or batch) is logged before it
/// is applied; Open() loads the latest checkpoint then replays the log, so
/// the store recovers to the last committed batch after a crash. Batches
/// are atomic: a batch is one WAL record, and a torn batch at the log tail
/// is discarded in full.
class KvStore {
 public:
  struct Options {
    Options() {}
    /// Checkpoint when the WAL exceeds this many bytes (0 = never auto).
    uint64_t checkpoint_wal_bytes = 4 * 1024 * 1024;
    /// fsync the WAL after every append: a committed batch then survives
    /// a crash (not just a clean shutdown). Off by default to preserve
    /// the historical buffered behavior; the server enables it for
    /// crash-consistent receipt databases.
    bool sync_wal = false;
  };

  /// Opens (and recovers) a store rooted at `dir` on `fs`.
  static Result<std::unique_ptr<KvStore>> Open(FileSystem* fs, std::string dir,
                                               Options options = Options());

  /// One write in a batch.
  struct Write {
    std::string key;
    std::optional<std::string> value;  // nullopt = delete

    static Write Put(std::string k, std::string v) {
      return Write{std::move(k), std::move(v)};
    }
    static Write Del(std::string k) { return Write{std::move(k), std::nullopt}; }
  };

  /// The store's one commit routine: applies a group of batches in one
  /// WAL append + one fsync (when sync_wal is set), amortizing the
  /// durability cost over the group; a single batch is a group of one.
  /// Each batch keeps its individual atomicity (one WAL record per
  /// batch); on failure the whole group is rolled back and none of the
  /// batches is applied. A crash can still make a *prefix* of the group
  /// durable — callers must order batches so any prefix is consistent.
  Status ApplyMulti(const std::vector<std::vector<Write>>& batches);

  /// Single writes, each committed as a group of one by ApplyMulti.
  Status Put(std::string key, std::string value);
  Status Delete(std::string key);

  Result<std::string> Get(const std::string& key) const;
  bool Contains(const std::string& key) const;

  /// All (key, value) pairs whose key starts with `prefix`, in key order.
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix) const;
  /// Number of keys starting with `prefix`, counted without copying.
  size_t CountPrefix(const std::string& prefix) const;

  /// Number of live keys.
  size_t Size() const;

  /// Forces a checkpoint: writes the full table, then truncates the WAL.
  Status Checkpoint();

  /// Bytes currently in the WAL (drives auto-checkpoint).
  uint64_t WalBytes() const;

  /// True if recovery found a torn record at the WAL tail.
  bool recovered_torn_tail() const { return torn_tail_; }

  /// The store's write-ahead log (e.g. to attach metrics).
  WriteAheadLog* wal() { return &wal_; }

 private:
  KvStore(FileSystem* fs, std::string dir, Options options);

  Status Recover();
  void ApplyToTableLocked(const std::vector<Write>& batch);
  void MaybeAutoCheckpointLocked();
  Status CheckpointLocked();
  static std::string EncodeBatch(const std::vector<Write>& batch);
  static Status DecodeBatch(std::string_view record, std::vector<Write>* batch);

  FileSystem* fs_;
  std::string dir_;
  Options options_;
  WriteAheadLog wal_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> table_;
  bool torn_tail_ = false;
};

}  // namespace bistro

#endif  // BISTRO_KV_KVSTORE_H_
