#include "sched/policy.h"

#include <map>
#include <set>
#include <tuple>
#include <vector>

namespace bistro {

namespace {

/// Queued jobs indexed by file, so the locality lookup costs O(log n)
/// instead of a scan of the whole queue. `Key` is the policy's own
/// ordering key, so First() names the job a scan in policy order would
/// find first.
template <typename Key>
class FileIndex {
 public:
  void Add(FileId file, const Key& key) { by_file_[file].insert(key); }

  void Remove(FileId file, const Key& key) {
    auto it = by_file_.find(file);
    if (it == by_file_.end()) return;
    it->second.erase(key);
    if (it->second.empty()) by_file_.erase(it);
  }

  /// The first queued job for `file` in policy order, if any.
  const Key* First(FileId file) const {
    auto it = by_file_.find(file);
    return it == by_file_.end() ? nullptr : &*it->second.begin();
  }

 private:
  std::map<FileId, std::set<Key>> by_file_;
};

/// FIFO, EDF and Max-Benefit differ only in how they order the queue:
///  - FIFO runs jobs in submission order — the natural behaviour of a
///    cron-driven pipeline; backlogs head-of-line block everything
///    behind them.
///  - EDF (Earliest Deadline First) runs the smallest deadline next.
///  - Max-Benefit (cited by the paper from the stream-warehouse update
///    literature [6]) runs the job with the highest benefit per unit of
///    resource. Transfer cost is proportional to file size, and all
///    deliveries carry equal benefit, so priority is benefit density
///    1/size (shortest transfer first), with the earlier deadline
///    breaking ties — small real-time files overtake bulk backfill.
/// Each fills only the key fields it orders by; the submission sequence
/// breaks every remaining tie FIFO.
class KeyedPolicy : public SchedulingPolicy {
 public:
  explicit KeyedPolicy(PolicyKind kind) : kind_(kind) {}

  void Add(TransferJob job) override {
    Key key{0, 0, seq_++};
    if (kind_ != PolicyKind::kFifo) key.deadline = job.deadline;
    if (kind_ == PolicyKind::kMaxBenefit) key.size = job.size;
    index_.Add(job.file_id, key);
    queue_.emplace(key, std::move(job));
  }

  std::optional<TransferJob> Next() override {
    if (queue_.empty()) return std::nullopt;
    return Take(queue_.begin());
  }

  std::optional<TransferJob> NextForFile(FileId file_id) override {
    const Key* key = index_.First(file_id);
    if (key == nullptr) return std::nullopt;
    return Take(queue_.find(*key));
  }

  size_t Size() const override { return queue_.size(); }

 private:
  struct Key {
    uint64_t size;
    TimePoint deadline;
    uint64_t seq;
    bool operator<(const Key& o) const {
      return std::tie(size, deadline, seq) < std::tie(o.size, o.deadline, o.seq);
    }
  };

  TransferJob Take(std::map<Key, TransferJob>::iterator it) {
    TransferJob job = std::move(it->second);
    index_.Remove(job.file_id, it->first);
    queue_.erase(it);
    return job;
  }

  PolicyKind kind_;
  std::map<Key, TransferJob> queue_;
  FileIndex<Key> index_;
  uint64_t seq_ = 0;
};

/// Round-robin across subscribers: each subscriber has a FIFO lane and
/// lanes take turns, so one backlogged subscriber cannot monopolize the
/// head of the queue (but gets no deadline awareness either). The
/// locality lookup takes the file's job from the first lane in name
/// order, the earliest-submitted one within it.
class RoundRobinPolicy : public SchedulingPolicy {
 public:
  void Add(TransferJob job) override {
    auto [it, inserted] = lanes_.try_emplace(job.subscriber);
    index_.Add(job.file_id, {job.subscriber, seq_});
    it->second.emplace(seq_++, std::move(job));
    if (inserted) order_.push_back(it->first);
    ++size_;
  }

  std::optional<TransferJob> Next() override {
    if (size_ == 0) return std::nullopt;
    for (size_t tried = 0; tried < order_.size(); ++tried) {
      cursor_ = (cursor_ + 1) % order_.size();
      auto it = lanes_.find(order_[cursor_]);
      if (it != lanes_.end() && !it->second.empty()) {
        return Take(&it->second, it->second.begin());
      }
    }
    return std::nullopt;
  }

  std::optional<TransferJob> NextForFile(FileId file_id) override {
    const LaneKey* key = index_.First(file_id);
    if (key == nullptr) return std::nullopt;
    Lane& lane = lanes_.find(key->first)->second;
    return Take(&lane, lane.find(key->second));
  }

  size_t Size() const override { return size_; }

 private:
  /// One subscriber's jobs by submission sequence.
  using Lane = std::map<uint64_t, TransferJob>;
  using LaneKey = std::pair<SubscriberName, uint64_t>;

  TransferJob Take(Lane* lane, Lane::iterator it) {
    TransferJob job = std::move(it->second);
    index_.Remove(job.file_id, {job.subscriber, it->first});
    lane->erase(it);
    --size_;
    return job;
  }

  std::map<SubscriberName, Lane> lanes_;
  std::vector<SubscriberName> order_;
  FileIndex<LaneKey> index_;
  size_t cursor_ = 0;
  size_t size_ = 0;
  uint64_t seq_ = 0;
};

}  // namespace

Result<PolicyKind> PolicyKindFromName(std::string_view name) {
  if (name == "fifo") return PolicyKind::kFifo;
  if (name == "edf") return PolicyKind::kEdf;
  if (name == "rr") return PolicyKind::kRoundRobin;
  if (name == "maxbenefit") return PolicyKind::kMaxBenefit;
  return Status::InvalidArgument("unknown policy: " + std::string(name));
}

std::string_view PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "fifo";
    case PolicyKind::kEdf:
      return "edf";
    case PolicyKind::kRoundRobin:
      return "rr";
    case PolicyKind::kMaxBenefit:
      return "maxbenefit";
  }
  return "?";
}

std::unique_ptr<SchedulingPolicy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
    case PolicyKind::kEdf:
    case PolicyKind::kMaxBenefit:
      return std::make_unique<KeyedPolicy>(kind);
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
  }
  return nullptr;
}

}  // namespace bistro
