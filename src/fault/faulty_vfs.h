#ifndef BISTRO_FAULT_FAULTY_VFS_H_
#define BISTRO_FAULT_FAULTY_VFS_H_

#include <map>
#include <mutex>
#include <string>

#include "fault/injector.h"
#include "vfs/filesystem.h"

namespace bistro {

/// FileSystem decorator that injects write/sync faults per the injector's
/// plan and models crash durability for appended files.
///
/// Fault modes on mutating operations (scoped by the plan):
///  - clean write error: nothing lands, the caller sees IoError;
///  - torn write (AppendFile only): the first half of the data lands,
///    then IoError — the WAL-tail failure mode. A torn WriteFile instead
///    degrades to a clean error, because full-file writes model the
///    atomic write-tmp + rename pattern and never expose partial bytes;
///  - sync error: Sync reports IoError and the data stays volatile.
///
/// Crash model: for files mutated through AppendFile, the decorator
/// tracks the durable (last-synced) length; SimulateCrash() truncates
/// each such file back to it, discarding unsynced tail bytes — exactly
/// what a machine crash does to a buffered log. WriteFile and Rename are
/// treated as atomic and immediately durable (a deliberate
/// simplification: Bistro's full-file writes go through the
/// write-tmp + rename pattern, whose crash window the checkpoint logic
/// already tolerates; see DESIGN.md §8).
class FaultyFileSystem : public FileSystem {
 public:
  FaultyFileSystem(FileSystem* base, FaultInjector* injector)
      : base_(base), injector_(injector) {}

  Status WriteFile(const std::string& path, std::string_view data) override;
  Status AppendFile(const std::string& path, std::string_view data) override;
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<FileInfo> Stat(const std::string& path) override {
    return base_->Stat(path);
  }
  Result<std::vector<FileInfo>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status Rename(const std::string& from, const std::string& to) override;
  Status Delete(const std::string& path) override;
  Status Sync(const std::string& path) override;
  Status MkDirs(const std::string& path) override {
    return base_->MkDirs(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  FsOpStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  /// Discards every unsynced appended byte, as a power loss would, and
  /// forgets the durability bookkeeping. The underlying filesystem
  /// survives; reopen stores on it to model a restart.
  Status SimulateCrash();

 private:
  /// Durable length of `path` right now: the synced length if tracked,
  /// otherwise the file's current size (pre-existing bytes count as
  /// durable — they were there before we started injecting). Caller
  /// holds mu_.
  uint64_t DurableLength(const std::string& path);

  FileSystem* base_;
  FaultInjector* injector_;
  /// Held across each mutation and its bookkeeping update: ingest
  /// workers, the receipt thread and the loop thread share the map.
  std::mutex mu_;
  /// path -> durable (synced) length, for files touched by AppendFile.
  std::map<std::string, uint64_t> synced_len_;  // guarded by mu_
};

}  // namespace bistro

#endif  // BISTRO_FAULT_FAULTY_VFS_H_
