#include "kv/wal.h"

#include <cstring>

#include "common/hash.h"

namespace bistro {

namespace {
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view* in, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (!in->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}
}  // namespace

WriteAheadLog::WriteAheadLog(FileSystem* fs, std::string path)
    : fs_(fs), path_(std::move(path)) {}

void WriteAheadLog::AttachMetrics(MetricsRegistry* registry) {
  appends_ = registry->GetCounter("bistro_wal_appends_total",
                                  "Records appended across all WALs");
  append_bytes_ = registry->GetCounter("bistro_wal_append_bytes_total",
                                       "Framed bytes appended across all WALs");
  replayed_records_ = registry->GetCounter("bistro_wal_replayed_records_total",
                                           "Records replayed at recovery");
  truncations_ = registry->GetCounter("bistro_wal_truncations_total",
                                      "WAL truncations after checkpoints");
  syncs_ = registry->GetCounter("bistro_wal_syncs_total",
                                "fsyncs issued after appends");
  tail_repairs_ = registry->GetCounter(
      "bistro_wal_tail_repairs_total",
      "Torn/corrupt tails dropped by RepairTail");
}

namespace {
void FrameRecord(std::string* out, std::string_view record) {
  uint32_t crc = Crc32(record);
  char crc_buf[4];
  std::memcpy(crc_buf, &crc, 4);
  out->append(crc_buf, 4);
  PutVarint(out, record.size());
  out->append(record.data(), record.size());
}
}  // namespace

Status WriteAheadLog::AppendBatch(const std::vector<std::string>& records) {
  if (records.empty()) return Status::OK();
  if (!committed_len_.has_value()) {
    // First append through this instance: establish the committed length
    // by scanning for the longest intact record prefix (and dropping any
    // torn tail a crash left), so we never append behind garbage.
    BISTRO_RETURN_IF_ERROR(RepairTail());
  }
  if (SizeBytes() != *committed_len_) {
    // A previous failed append could not be rolled back (its cleanup
    // write failed too). Retry the rollback before appending anything
    // new, so an uncommitted record never becomes durable.
    BISTRO_RETURN_IF_ERROR(TruncateTo(*committed_len_));
  }
  std::string framed;
  size_t total = 0;
  for (const std::string& r : records) total += r.size() + 10;
  framed.reserve(total);
  for (const std::string& r : records) FrameRecord(&framed, r);
  if (appends_ != nullptr) {
    appends_->Increment(records.size());
    append_bytes_->Increment(framed.size());
  }
  Status s = fs_->AppendFile(path_, framed);
  if (!s.ok()) {
    // The group may have landed partially (torn write); roll the whole
    // group back so the caller's "the group failed" view matches recovery.
    (void)TruncateTo(*committed_len_);
    return s;
  }
  if (sync_on_append_) {
    if (syncs_ != nullptr) syncs_->Increment();
    Status synced = fs_->Sync(path_);
    if (!synced.ok()) {
      // The group is in the file but not durable, and the caller will
      // treat it as failed. Remove it: if it stayed, a later successful
      // sync would make it durable and recovery would replay records the
      // caller believes were never committed.
      (void)TruncateTo(*committed_len_);
      return synced;
    }
  }
  *committed_len_ += framed.size();
  return Status::OK();
}

Status WriteAheadLog::TruncateTo(uint64_t len) {
  auto data = fs_->ReadFile(path_);
  if (!data.ok()) {
    if (data.status().IsNotFound() && len == 0) return Status::OK();
    return data.status();
  }
  if (data->size() < len) {
    return Status::Corruption("wal shrank below committed length: " + path_);
  }
  if (data->size() == len) return Status::OK();
  if (tail_repairs_ != nullptr) tail_repairs_->Increment();
  BISTRO_RETURN_IF_ERROR(
      fs_->WriteFile(path_, std::string_view(*data).substr(0, len)));
  if (sync_on_append_) return fs_->Sync(path_);
  return Status::OK();
}

Status WriteAheadLog::RepairTail() {
  auto data = fs_->ReadFile(path_);
  if (!data.ok()) {
    if (data.status().IsNotFound()) {
      committed_len_ = 0;
      return Status::OK();  // nothing to repair
    }
    return data.status();
  }
  // Walk intact records; `good` is the byte length of the valid prefix.
  std::string_view in(*data);
  size_t good = 0;
  while (!in.empty()) {
    if (in.size() < 4) break;
    uint32_t crc;
    std::memcpy(&crc, in.data(), 4);
    std::string_view rest = in.substr(4);
    uint64_t len;
    if (!GetVarint(&rest, &len) || rest.size() < len) break;
    if (Crc32(rest.substr(0, len)) != crc) break;
    rest.remove_prefix(len);
    good = data->size() - rest.size();
    in = rest;
  }
  if (good == data->size()) {
    committed_len_ = good;
    return Status::OK();  // already clean
  }
  if (tail_repairs_ != nullptr) tail_repairs_->Increment();
  BISTRO_RETURN_IF_ERROR(
      fs_->WriteFile(path_, std::string_view(*data).substr(0, good)));
  committed_len_ = good;
  if (sync_on_append_) return fs_->Sync(path_);
  return Status::OK();
}

Status WriteAheadLog::Replay(
    const std::function<void(std::string_view)>& apply,
    bool* truncated_tail) const {
  if (truncated_tail != nullptr) *truncated_tail = false;
  auto data = fs_->ReadFile(path_);
  if (!data.ok()) {
    if (data.status().IsNotFound()) return Status::OK();  // empty log
    return data.status();
  }
  std::string_view in(*data);
  while (!in.empty()) {
    if (in.size() < 4) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      return Status::OK();
    }
    uint32_t crc;
    std::memcpy(&crc, in.data(), 4);
    std::string_view rest = in.substr(4);
    uint64_t len;
    if (!GetVarint(&rest, &len) || rest.size() < len) {
      if (truncated_tail != nullptr) *truncated_tail = true;
      return Status::OK();
    }
    std::string_view record = rest.substr(0, len);
    if (Crc32(record) != crc) {
      // A bad CRC on the very last record is a torn write; earlier it is
      // real corruption. We can only be sure it is the tail if nothing
      // follows the declared record.
      if (rest.size() == len) {
        if (truncated_tail != nullptr) *truncated_tail = true;
        return Status::OK();
      }
      return Status::Corruption("wal record crc mismatch: " + path_);
    }
    apply(record);
    if (replayed_records_ != nullptr) replayed_records_->Increment();
    in = rest.substr(len);
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  if (truncations_ != nullptr) truncations_->Increment();
  committed_len_ = 0;
  Status s = fs_->Delete(path_);
  if (s.IsNotFound()) return Status::OK();
  return s;
}

uint64_t WriteAheadLog::SizeBytes() const {
  auto info = fs_->Stat(path_);
  return info.ok() ? info->size : 0;
}

}  // namespace bistro
