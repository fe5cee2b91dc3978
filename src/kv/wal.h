#ifndef BISTRO_KV_WAL_H_
#define BISTRO_KV_WAL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "vfs/filesystem.h"

namespace bistro {

/// Append-only write-ahead log with CRC-framed records.
///
/// Record layout: crc32(4) | length varint | payload. Replay stops cleanly
/// at the first truncated or corrupt record (a torn tail after a crash is
/// expected and not an error); corruption *before* the tail is reported.
class WriteAheadLog {
 public:
  WriteAheadLog(FileSystem* fs, std::string path);

  /// Registers append/replay counters in `registry`. Several logs may
  /// share one registry; their counts aggregate. Optional.
  void AttachMetrics(MetricsRegistry* registry);

  /// When enabled, every AppendBatch is followed by FileSystem::Sync so a
  /// committed group survives a crash (at the cost of one fsync per
  /// group).
  void set_sync_on_append(bool sync) { sync_on_append_ = sync; }
  bool sync_on_append() const { return sync_on_append_; }

  /// The log's one commit routine; a single record is a group of one.
  /// Every record is framed into one buffer, written with one
  /// FileSystem::AppendFile and (when sync_on_append is set) made durable
  /// with one Sync, so the fsync cost is amortized over the group.
  ///
  /// Rollback: on any failure (torn append or failed sync) the log is
  /// rolled back to the last committed length, so a group the caller saw
  /// fail can never resurface at recovery, and a torn tail cannot turn
  /// into mid-log corruption for later appends.
  ///
  /// Prefix on crash: a crash mid-append can still tear the group.
  /// Records are framed individually, so recovery then keeps a clean
  /// *prefix* of the group's records. Callers order records so that any
  /// surviving prefix is consistent (the receipt database commits its
  /// sequence bump first).
  Status AppendBatch(const std::vector<std::string>& records);

  /// Rewrites the log to its longest intact prefix of records, dropping a
  /// torn or corrupt tail. Called after a failed append and after a
  /// recovery that found a torn tail, so subsequent appends never land
  /// behind garbage (which replay would report as mid-log corruption).
  Status RepairTail();

  /// Replays every intact record in order. If the log ends with a torn
  /// record, replay succeeds and `truncated_tail` (if non-null) is set.
  Status Replay(const std::function<void(std::string_view)>& apply,
                bool* truncated_tail = nullptr) const;

  /// Deletes the log file (after a checkpoint makes it redundant).
  Status Truncate();

  /// Bytes currently in the log file (0 if absent).
  uint64_t SizeBytes() const;

  const std::string& log_path() const { return path_; }

 private:
  /// Rewrites the log to its first `len` bytes (used to undo a failed
  /// append). Requires len <= current size.
  Status TruncateTo(uint64_t len);

  FileSystem* fs_;
  std::string path_;
  bool sync_on_append_ = false;
  /// Length of the committed record prefix; lazily initialised from the
  /// file size on first AppendBatch, maintained thereafter so failed appends
  /// can be rolled back precisely.
  std::optional<uint64_t> committed_len_;
  Counter* appends_ = nullptr;
  Counter* append_bytes_ = nullptr;
  Counter* replayed_records_ = nullptr;
  Counter* truncations_ = nullptr;
  Counter* syncs_ = nullptr;
  Counter* tail_repairs_ = nullptr;
};

}  // namespace bistro

#endif  // BISTRO_KV_WAL_H_
