#include "kv/receipts.h"

#include <algorithm>

#include "common/strings.h"

namespace bistro {

namespace {

std::string FileIdKey(FileId id) { return StrFormat("%016llx", (unsigned long long)id); }

Result<FileId> ParseFileIdKey(std::string_view hex) {
  FileId id = 0;
  if (hex.size() != 16) return Status::Corruption("bad file id key");
  for (char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<FileId>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<FileId>(c - 'a' + 10);
    } else {
      return Status::Corruption("bad file id key");
    }
  }
  return id;
}

// Receipt encoding: '\x1f'-separated fields (filenames never contain 0x1f).
constexpr char kSep = '\x1f';

std::string EncodeArrival(const ArrivalReceipt& r) {
  std::string out;
  out += r.name;
  out += kSep;
  out += r.staged_path;
  out += kSep;
  out += r.rel_path;
  out += kSep;
  out += std::to_string(r.size);
  out += kSep;
  out += std::to_string(r.arrival_time);
  out += kSep;
  out += std::to_string(r.data_time);
  out += kSep;
  for (size_t i = 0; i < r.feeds.size(); ++i) {
    if (i > 0) out += ',';
    out += r.feeds[i];
  }
  return out;
}

Result<ArrivalReceipt> DecodeArrival(FileId id, std::string_view enc) {
  auto fields = Split(enc, kSep);
  if (fields.size() != 7) return Status::Corruption("bad arrival receipt");
  ArrivalReceipt r;
  r.file_id = id;
  r.name = fields[0];
  r.staged_path = fields[1];
  r.rel_path = fields[2];
  auto size = ParseInt(fields[3]);
  auto at = ParseInt(fields[4]);
  auto dt = ParseInt(fields[5]);
  if (!size || !at || !dt) return Status::Corruption("bad arrival receipt ints");
  r.size = static_cast<uint64_t>(*size);
  r.arrival_time = *at;
  r.data_time = *dt;
  if (!fields[6].empty()) r.feeds = Split(fields[6], ',');
  return r;
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Result<std::unique_ptr<ReceiptDatabase>> ReceiptDatabase::Open(
    FileSystem* fs, std::string dir, KvStore::Options options, int shards) {
  if (shards < 1) {
    return Status::InvalidArgument("receipt shards must be at least 1");
  }
  std::vector<std::unique_ptr<KvStore>> kvs;
  if (shards == 1) {
    // The seed's layout, byte for byte: the store lives in `dir` itself.
    BISTRO_ASSIGN_OR_RETURN(auto kv, KvStore::Open(fs, std::move(dir), options));
    kvs.push_back(std::move(kv));
  } else {
    for (int i = 0; i < shards; ++i) {
      BISTRO_ASSIGN_OR_RETURN(
          auto kv,
          KvStore::Open(fs, dir + StrFormat("/shard-%03d", i), options));
      kvs.push_back(std::move(kv));
    }
  }
  return std::unique_ptr<ReceiptDatabase>(new ReceiptDatabase(std::move(kvs)));
}

ReceiptDatabase::ReceiptDatabase(std::vector<std::unique_ptr<KvStore>> kvs)
    : kvs_(std::move(kvs)) {}

size_t ReceiptDatabase::ShardOfSubscriber(
    const SubscriberName& subscriber) const {
  return kvs_.size() == 1 ? 0 : Fnv1a(subscriber) % kvs_.size();
}

void ReceiptDatabase::AttachMetrics(MetricsRegistry* registry) {
  arrivals_recorded_ = registry->GetCounter(
      "bistro_receipts_arrivals_total", "Arrival receipts recorded");
  group_commits_ = registry->GetCounter(
      "bistro_receipts_group_commits_total",
      "Arrival receipt groups committed (one fsync per touched shard)");
  group_commit_files_ = registry->GetCounter(
      "bistro_receipts_group_commit_files_total",
      "Arrival receipts committed through groups");
  deliveries_recorded_ = registry->GetCounter(
      "bistro_receipts_deliveries_total", "Delivery receipts recorded");
  delivery_group_commits_ = registry->GetCounter(
      "bistro_receipts_delivery_group_commits_total",
      "Delivery receipt groups committed");
  delivery_group_files_ = registry->GetCounter(
      "bistro_receipts_delivery_group_files_total",
      "Delivery receipts committed through groups");
  files_expired_ = registry->GetCounter(
      "bistro_receipts_expired_total",
      "Receipts expunged by the history-window cleaner");
  shard_commits_ = registry->GetCounter(
      "bistro_receipts_shard_commits_total",
      "Per-shard WAL group commits (one fsync each)");
  registry->GetGauge("bistro_receipts_shards", "Receipt store shard count")
      ->Set(static_cast<int64_t>(kvs_.size()));
  // Shards share one WAL counter set; the series sum across stores.
  for (auto& kv : kvs_) kv->wal()->AttachMetrics(registry);
}

namespace {
std::vector<KvStore::Write> ArrivalBatch(const ArrivalReceipt& receipt) {
  std::vector<KvStore::Write> batch;
  std::string idkey = FileIdKey(receipt.file_id);
  batch.push_back(KvStore::Write::Put("a/" + idkey, EncodeArrival(receipt)));
  batch.push_back(KvStore::Write::Put("n/" + receipt.name, idkey));
  for (const auto& feed : receipt.feeds) {
    batch.push_back(KvStore::Write::Put("f/" + feed + "/" + idkey, ""));
  }
  return batch;
}
}  // namespace

Status ReceiptDatabase::CommitByShard(
    const std::vector<std::vector<std::vector<KvStore::Write>>>& by_shard) {
  for (size_t i = 0; i < kvs_.size(); ++i) {
    if (by_shard[i].empty()) continue;
    BISTRO_RETURN_IF_ERROR(kvs_[i]->ApplyMulti(by_shard[i]));
    if (shard_commits_ != nullptr) shard_commits_->Increment();
  }
  return Status::OK();
}

Status ReceiptDatabase::RecordArrivalGroup(
    std::vector<ArrivalReceipt>* receipts) {
  if (receipts->empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(seq_mu_);
  FileId seq = 0;
  auto cur = kvs_[0]->Get("seq");
  if (cur.ok()) {
    auto parsed = ParseInt(*cur);
    if (!parsed) return Status::Corruption("bad seq value");
    seq = static_cast<FileId>(*parsed);
  } else if (!cur.status().IsNotFound()) {
    return cur.status();
  }
  // Per-shard batch lists. The sequence bump is shard 0's first record
  // and shard 0 commits first: a torn group keeps a per-shard record
  // prefix, so the bump outlives any surviving receipt and the burned
  // ids are never reassigned after recovery. A file's a/, n/ and f/
  // rows are colocated in its id's shard, so each arrival stays one
  // atomic batch no matter how the group is severed.
  std::vector<std::vector<std::vector<KvStore::Write>>> by_shard(kvs_.size());
  by_shard[0].push_back({KvStore::Write::Put(
      "seq", std::to_string(seq + receipts->size()))});
  for (ArrivalReceipt& r : *receipts) {
    r.file_id = ++seq;
    by_shard[ShardOfId(r.file_id)].push_back(ArrivalBatch(r));
  }
  BISTRO_RETURN_IF_ERROR(CommitByShard(by_shard));
  if (arrivals_recorded_ != nullptr) {
    arrivals_recorded_->Increment(receipts->size());
  }
  if (group_commits_ != nullptr) {
    group_commits_->Increment();
    group_commit_files_->Increment(receipts->size());
  }
  return Status::OK();
}

Result<FileId> ReceiptDatabase::FindIdByName(const std::string& name) const {
  // Same-name re-arrivals may land in different shards; the newest wins,
  // so take the highest id across every shard's n/ index.
  std::optional<FileId> best;
  for (const auto& kv : kvs_) {
    auto idkey = kv->Get("n/" + name);
    if (!idkey.ok()) {
      if (idkey.status().IsNotFound()) continue;
      return idkey.status();
    }
    BISTRO_ASSIGN_OR_RETURN(FileId id, ParseFileIdKey(*idkey));
    if (!best || id > *best) best = id;
  }
  if (!best) return Status::NotFound("no arrival named " + name);
  return *best;
}

Status ReceiptDatabase::RecordDeliveryGroup(
    const std::vector<DeliveryRecord>& records) {
  if (records.empty()) return Status::OK();
  // One batch per receipt, partitioned by subscriber shard: a torn group
  // (crash mid-commit keeps a per-shard batch prefix) loses only a
  // suffix of some shard's receipts, never corrupts one. Each touched
  // shard pays one WAL append + fsync regardless of fanout within it.
  std::vector<std::vector<std::vector<KvStore::Write>>> by_shard(kvs_.size());
  for (const DeliveryRecord& r : records) {
    by_shard[ShardOfSubscriber(r.subscriber)].push_back(
        {KvStore::Write::Put("d/" + r.subscriber + "/" + FileIdKey(r.file_id),
                             std::to_string(r.when))});
  }
  BISTRO_RETURN_IF_ERROR(CommitByShard(by_shard));
  if (deliveries_recorded_ != nullptr) {
    deliveries_recorded_->Increment(records.size());
  }
  if (delivery_group_commits_ != nullptr) {
    delivery_group_commits_->Increment();
    delivery_group_files_->Increment(records.size());
  }
  return Status::OK();
}

bool ReceiptDatabase::Delivered(const SubscriberName& subscriber,
                                FileId file_id) const {
  return kvs_[ShardOfSubscriber(subscriber)]->Contains(
      "d/" + subscriber + "/" + FileIdKey(file_id));
}

Result<ArrivalReceipt> ReceiptDatabase::GetArrival(FileId file_id) const {
  BISTRO_ASSIGN_OR_RETURN(std::string enc,
                          kvs_[ShardOfId(file_id)]->Get("a/" + FileIdKey(file_id)));
  return DecodeArrival(file_id, enc);
}

std::vector<FileId> ReceiptDatabase::FilesInFeed(const FeedName& feed) const {
  return FilesInFeeds({feed});
}

std::vector<FileId> ReceiptDatabase::FilesInFeeds(
    const std::vector<FeedName>& feeds) const {
  std::vector<FileId> out;
  for (const auto& feed : feeds) {
    std::string prefix = "f/" + feed + "/";
    for (const auto& kv : kvs_) {
      for (const auto& [key, _] : kv->ScanPrefix(prefix)) {
        auto id = ParseFileIdKey(std::string_view(key).substr(prefix.size()));
        if (id.ok()) out.push_back(*id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<ArrivalReceipt> ReceiptDatabase::Undelivered(
    const SubscriberName& subscriber, FileId file_id,
    TimePoint window_start) const {
  if (Delivered(subscriber, file_id)) return std::nullopt;
  auto receipt = GetArrival(file_id);
  if (!receipt.ok() || receipt->arrival_time < window_start) {
    return std::nullopt;
  }
  return std::move(*receipt);
}

std::vector<ArrivalReceipt> ReceiptDatabase::ComputeDeliveryQueue(
    const SubscriberName& subscriber, const std::vector<FeedName>& feeds,
    TimePoint window_start) const {
  std::vector<ArrivalReceipt> queue;
  for (FileId id : FilesInFeeds(feeds)) {
    if (auto receipt = Undelivered(subscriber, id, window_start)) {
      queue.push_back(std::move(*receipt));
    }
  }
  return queue;
}

Result<std::vector<std::string>> ReceiptDatabase::ExpireBefore(TimePoint cutoff) {
  std::vector<std::string> expunged_paths;
  for (const auto& kv : kvs_) {
    // A file's a/, f/ and n/ rows are colocated, so each shard expires
    // independently with one atomic batch.
    std::vector<KvStore::Write> batch;
    for (const auto& [key, value] : kv->ScanPrefix("a/")) {
      auto id = ParseFileIdKey(std::string_view(key).substr(2));
      if (!id.ok()) continue;
      auto receipt = DecodeArrival(*id, value);
      if (!receipt.ok() || receipt->arrival_time >= cutoff) continue;
      expunged_paths.push_back(receipt->staged_path);
      batch.push_back(KvStore::Write::Del(key));
      std::string idkey = FileIdKey(*id);
      for (const auto& feed : receipt->feeds) {
        batch.push_back(KvStore::Write::Del("f/" + feed + "/" + idkey));
      }
      // Drop the name-index entry only if it still points at this id; a
      // newer same-name arrival owns the key now and must keep it.
      auto named = kv->Get("n/" + receipt->name);
      if (named.ok() && *named == idkey) {
        batch.push_back(KvStore::Write::Del("n/" + receipt->name));
      }
    }
    if (!batch.empty()) BISTRO_RETURN_IF_ERROR(kv->ApplyMulti({batch}));
  }
  // Delivery rows live in their subscriber's shard, so each shard drops
  // its own. Once the a/ pass has committed, an expired file has no
  // arrival receipt; deleting every d/ row without one also collects the
  // rows a crash between the two passes left behind.
  if (!expunged_paths.empty()) {
    for (const auto& kv : kvs_) {
      std::vector<KvStore::Write> batch;
      for (const auto& [key, value] : kv->ScanPrefix("d/")) {
        std::string idkey = key.substr(key.rfind('/') + 1);
        auto id = ParseFileIdKey(idkey);
        if (!id.ok() || kvs_[ShardOfId(*id)]->Contains("a/" + idkey)) continue;
        batch.push_back(KvStore::Write::Del(key));
      }
      if (!batch.empty()) BISTRO_RETURN_IF_ERROR(kv->ApplyMulti({batch}));
    }
  }
  if (files_expired_ != nullptr) {
    files_expired_->Increment(expunged_paths.size());
  }
  return expunged_paths;
}

size_t ReceiptDatabase::ArrivalCount() const {
  size_t total = 0;
  for (const auto& kv : kvs_) total += kv->CountPrefix("a/");
  return total;
}

}  // namespace bistro
