#include "kv/kvstore.h"

#include <cstring>

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

namespace {
constexpr char kWalFile[] = "wal.log";
constexpr char kCheckpointFile[] = "checkpoint.db";
constexpr char kCheckpointTmp[] = "checkpoint.tmp";

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

void PutLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view* in, std::string_view* s) {
  uint64_t len;
  if (!GetVarint(in, &len) || in->size() < len) return false;
  *s = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}
}  // namespace

Result<std::unique_ptr<KvStore>> KvStore::Open(FileSystem* fs, std::string dir,
                                               Options options) {
  std::unique_ptr<KvStore> store(
      new KvStore(fs, std::move(dir), options));
  BISTRO_RETURN_IF_ERROR(store->Recover());
  return store;
}

KvStore::KvStore(FileSystem* fs, std::string dir, Options options)
    : fs_(fs),
      dir_(std::move(dir)),
      options_(options),
      wal_(fs, path::Join(dir_, kWalFile)) {
  wal_.set_sync_on_append(options_.sync_wal);
}

Status KvStore::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  BISTRO_RETURN_IF_ERROR(fs_->MkDirs(dir_));
  // 1. Load checkpoint if present. Format: repeated (key, value) pairs,
  //    length-prefixed, with a trailing CRC of everything before it.
  auto ckpt = fs_->ReadFile(path::Join(dir_, kCheckpointFile));
  if (ckpt.ok()) {
    std::string_view in(*ckpt);
    if (in.size() < 4) return Status::Corruption("checkpoint too small");
    std::string_view body = in.substr(0, in.size() - 4);
    uint32_t crc;
    std::memcpy(&crc, in.data() + body.size(), 4);
    if (Crc32(body) != crc) return Status::Corruption("checkpoint crc mismatch");
    while (!body.empty()) {
      std::string_view k, v;
      if (!GetLengthPrefixed(&body, &k) || !GetLengthPrefixed(&body, &v)) {
        return Status::Corruption("checkpoint truncated entry");
      }
      table_.emplace(std::string(k), std::string(v));
    }
  } else if (!ckpt.status().IsNotFound()) {
    return ckpt.status();
  }
  // 2. Replay WAL batches on top.
  Status replay = wal_.Replay(
      [this](std::string_view record) {
        std::vector<Write> batch;
        if (!DecodeBatch(record, &batch).ok()) return;  // skip bad record
        ApplyToTableLocked(batch);
      },
      &torn_tail_);
  if (!replay.ok()) return replay;
  // Appending behind a torn tail would read back as mid-log corruption on
  // the next recovery; rewrite the log to its intact prefix first.
  if (torn_tail_) BISTRO_RETURN_IF_ERROR(wal_.RepairTail());
  return Status::OK();
}

std::string KvStore::EncodeBatch(const std::vector<Write>& batch) {
  std::string out;
  PutVarint(&out, batch.size());
  for (const auto& w : batch) {
    out.push_back(w.value.has_value() ? 1 : 0);
    PutLengthPrefixed(&out, w.key);
    if (w.value.has_value()) PutLengthPrefixed(&out, *w.value);
  }
  return out;
}

Status KvStore::DecodeBatch(std::string_view record, std::vector<Write>* batch) {
  uint64_t n;
  if (!GetVarint(&record, &n)) return Status::Corruption("batch count");
  batch->clear();
  batch->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (record.empty()) return Status::Corruption("batch op");
    uint8_t op = static_cast<uint8_t>(record.front());
    record.remove_prefix(1);
    std::string_view k;
    if (!GetLengthPrefixed(&record, &k)) return Status::Corruption("batch key");
    if (op == 1) {
      std::string_view v;
      if (!GetLengthPrefixed(&record, &v)) return Status::Corruption("batch val");
      batch->push_back(Write::Put(std::string(k), std::string(v)));
    } else {
      batch->push_back(Write::Del(std::string(k)));
    }
  }
  return Status::OK();
}

Status KvStore::ApplyMulti(const std::vector<std::vector<Write>>& batches) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> records;
  records.reserve(batches.size());
  for (const auto& batch : batches) records.push_back(EncodeBatch(batch));
  BISTRO_RETURN_IF_ERROR(wal_.AppendBatch(records));
  for (const auto& batch : batches) ApplyToTableLocked(batch);
  MaybeAutoCheckpointLocked();
  return Status::OK();
}

void KvStore::ApplyToTableLocked(const std::vector<Write>& batch) {
  for (const auto& w : batch) {
    if (w.value.has_value()) {
      table_[w.key] = *w.value;
    } else {
      table_.erase(w.key);
    }
  }
}

void KvStore::MaybeAutoCheckpointLocked() {
  if (options_.checkpoint_wal_bytes == 0 ||
      wal_.SizeBytes() <= options_.checkpoint_wal_bytes) {
    return;
  }
  // Best-effort: a failed checkpoint leaves the WAL intact, so
  // durability is unaffected and the status is swallowed.
  (void)CheckpointLocked();
}

Status KvStore::CheckpointLocked() {
  std::string body;
  for (const auto& [k, v] : table_) {
    PutLengthPrefixed(&body, k);
    PutLengthPrefixed(&body, v);
  }
  uint32_t crc = Crc32(body);
  char crc_buf[4];
  std::memcpy(crc_buf, &crc, 4);
  body.append(crc_buf, 4);
  std::string tmp = path::Join(dir_, kCheckpointTmp);
  BISTRO_RETURN_IF_ERROR(fs_->WriteFile(tmp, body));
  BISTRO_RETURN_IF_ERROR(fs_->Rename(tmp, path::Join(dir_, kCheckpointFile)));
  return wal_.Truncate();
}

Status KvStore::Put(std::string key, std::string value) {
  return ApplyMulti({{Write::Put(std::move(key), std::move(value))}});
}

Status KvStore::Delete(std::string key) {
  return ApplyMulti({{Write::Del(std::move(key))}});
}

Result<std::string> KvStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return Status::NotFound("key: " + key);
  return it->second;
}

bool KvStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.count(key) != 0;
}

std::vector<std::pair<std::string, std::string>> KvStore::ScanPrefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = table_.lower_bound(prefix);
       it != table_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

size_t KvStore::CountPrefix(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (auto it = table_.lower_bound(prefix);
       it != table_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    ++n;
  }
  return n;
}

size_t KvStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

Status KvStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

uint64_t KvStore::WalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.SizeBytes();
}

}  // namespace bistro
