#include "fault/faulty_vfs.h"

namespace bistro {

uint64_t FaultyFileSystem::DurableLength(const std::string& path) {
  auto it = synced_len_.find(path);
  if (it != synced_len_.end()) return it->second;
  auto info = base_->Stat(path);
  return info.ok() ? info->size : 0;
}

Status FaultyFileSystem::WriteFile(const std::string& path,
                                   std::string_view data) {
  if (injector_->InjectWriteError(path)) {
    return Status::IoError("injected write error: " + path);
  }
  if (injector_->InjectTornWrite(path)) {
    // WriteFile models the write-tmp + rename pattern (see the class
    // comment), so a torn full-file write never exposes half-written
    // bytes: the replace simply does not happen and the old content —
    // a committed WAL prefix, say — stays fully intact.
    return Status::IoError("injected torn write: " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Status s = base_->WriteFile(path, data);
  // A full rewrite resets append-durability tracking for the path.
  if (s.ok()) synced_len_.erase(path);
  return s;
}

Status FaultyFileSystem::AppendFile(const std::string& path,
                                    std::string_view data) {
  if (injector_->InjectWriteError(path)) {
    return Status::IoError("injected append error: " + path);
  }
  // Record the durable baseline before the first tracked append, so a
  // crash can roll back to it.
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t durable = DurableLength(path);
  if (injector_->InjectTornWrite(path)) {
    (void)base_->AppendFile(path, data.substr(0, data.size() / 2));
    synced_len_[path] = durable;
    return Status::IoError("injected torn append: " + path);
  }
  Status s = base_->AppendFile(path, data);
  if (s.ok()) synced_len_[path] = durable;  // new bytes are volatile
  return s;
}

Status FaultyFileSystem::Rename(const std::string& from, const std::string& to) {
  if (injector_->InjectWriteError(to)) {
    return Status::IoError("injected rename error: " + to);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Status s = base_->Rename(from, to);
  if (s.ok()) {
    synced_len_.erase(from);
    synced_len_.erase(to);  // renamed-in contents are treated as durable
  }
  return s;
}

Status FaultyFileSystem::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = base_->Delete(path);
  if (s.ok()) synced_len_.erase(path);
  return s;
}

Status FaultyFileSystem::Sync(const std::string& path) {
  if (injector_->InjectSyncError(path)) {
    return Status::IoError("injected sync error: " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  BISTRO_RETURN_IF_ERROR(base_->Sync(path));
  auto it = synced_len_.find(path);
  if (it != synced_len_.end()) {
    auto info = base_->Stat(path);
    if (info.ok()) it->second = info->size;
  }
  return Status::OK();
}

Status FaultyFileSystem::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [path, durable] : synced_len_) {
    auto data = base_->ReadFile(path);
    if (!data.ok()) continue;  // deleted since; nothing to roll back
    if (data->size() <= durable) continue;
    BISTRO_RETURN_IF_ERROR(
        base_->WriteFile(path, std::string_view(*data).substr(0, durable)));
  }
  synced_len_.clear();
  return Status::OK();
}

}  // namespace bistro
