#include "fanout/relay.h"

#include <algorithm>

#include "common/backoff.h"
#include "common/hash.h"
#include "common/strings.h"

namespace bistro {
namespace fanout {

namespace {
// Spool key space:
//   m/<seq16x> -> EncodeMessage(msg)
//   w/<seq16x> -> '\x1f'-joined children still waiting for an ack
//   seq        -> last assigned spool sequence (decimal)
constexpr char kSep = '\x1f';

std::string SeqKey(const char* prefix, uint64_t seq) {
  return StrFormat("%s%016llx", prefix,
                   static_cast<unsigned long long>(seq));
}

std::string JoinWaiting(const std::set<std::string>& waiting) {
  std::string out;
  for (const std::string& child : waiting) {
    if (!out.empty()) out.push_back(kSep);
    out += child;
  }
  return out;
}
}  // namespace

Result<std::unique_ptr<RelayNode>> RelayNode::Open(
    std::string name, std::vector<std::string> children, FileSystem* fs,
    Transport* transport, EventLoop* loop, Logger* logger, Options options) {
  if (children.empty()) {
    return Status::InvalidArgument("relay " + name + " has no children");
  }
  std::unique_ptr<RelayNode> relay(new RelayNode(
      std::move(name), std::move(children), transport, loop, logger, options));
  BISTRO_ASSIGN_OR_RETURN(
      relay->spool_, KvStore::Open(fs, options.spool_dir, options.kv));
  BISTRO_RETURN_IF_ERROR(relay->Recover());
  return relay;
}

Status RelayNode::Recover() {
  if (auto seq = spool_->Get("seq"); seq.ok()) {
    seq_ = std::stoull(*seq);
  }
  for (auto& [key, value] : spool_->ScanPrefix("w/")) {
    uint64_t seq = std::stoull(key.substr(2), nullptr, 16);
    BISTRO_ASSIGN_OR_RETURN(std::string encoded, spool_->Get(SeqKey("m/", seq)));
    BISTRO_ASSIGN_OR_RETURN(Message msg, DecodeMessage(encoded));
    Entry entry;
    entry.msg = std::move(msg);
    for (std::string& child : SplitSkipEmpty(value, kSep)) {
      entry.waiting.insert(std::move(child));
    }
    pending_.emplace(seq, std::move(entry));
    ++replayed_;
    std::shared_ptr<bool> alive = alive_;
    loop_->Post([this, alive, seq] {
      if (*alive) Forward(seq);
    });
  }
  if (replayed_ > 0) {
    logger_->Info("fanout", "relay " + name_ + " replaying " +
                                std::to_string(replayed_) +
                                " spooled files after restart");
  }
  return Status::OK();
}

Status RelayNode::HandleMessage(const Message& msg) {
  if (msg.type == MessageType::kHeartbeat) {
    // Liveness probes answer for the relay itself, not the tree; pass
    // them along unspooled so child health still gets exercised.
    for (const std::string& child : children_) {
      transport_->Send(child, msg, [](const Status&) {});
    }
    return Status::OK();
  }
  if (msg.type == MessageType::kFileData && msg.payload_crc != 0 &&
      Crc32(msg.payload) != msg.payload_crc) {
    // Verify before spool: acking a payload corrupted in flight would
    // durably poison the spool — every child rejects the forward forever
    // while the upstream, already acked, never resends. NACK instead so
    // the upstream's retry carries a clean copy.
    return Status::Corruption("relay " + name_ +
                              ": payload crc mismatch: " + msg.name);
  }
  ++received_;
  if (m_received_ != nullptr) m_received_->Increment();
  uint64_t seq = ++seq_;
  Entry entry;
  entry.msg = msg;
  entry.waiting.insert(children_.begin(), children_.end());
  // Ack-after-durable-spool: once this batch commits, the upstream may
  // forget the file — a crash here replays it from the spool.
  BISTRO_RETURN_IF_ERROR(spool_->Apply({
      KvStore::Write::Put("seq", std::to_string(seq)),
      KvStore::Write::Put(SeqKey("m/", seq), EncodeMessage(msg)),
      KvStore::Write::Put(SeqKey("w/", seq), JoinWaiting(entry.waiting)),
  }));
  pending_.emplace(seq, std::move(entry));
  if (m_backlog_ != nullptr) {
    m_backlog_->Set(static_cast<int64_t>(pending_.size()));
  }
  std::shared_ptr<bool> alive = alive_;
  loop_->Post([this, alive, seq] {
    if (*alive) Forward(seq);
  });
  return Status::OK();
}

void RelayNode::Forward(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Entry& entry = it->second;
  std::shared_ptr<bool> alive = alive_;
  for (const std::string& child : entry.waiting) {
    if (entry.inflight.count(child) != 0) continue;
    entry.inflight.insert(child);
    transport_->Send(child, entry.msg,
                     [this, alive, seq, child](const Status& status) {
                       if (*alive) OnChildResult(seq, child, status);
                     });
  }
}

void RelayNode::OnChildResult(uint64_t seq, const std::string& child,
                              const Status& status) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Entry& entry = it->second;
  entry.inflight.erase(child);
  if (!status.ok()) {
    if (m_retries_ != nullptr) m_retries_->Increment();
    Retry& retry = entry.retries[child];
    // The relay never abandons a spooled file — the upstream already got
    // its ack, so giving up here would break exactly-once.
    retry.last_delay = NextBackoff({options_.retry_backoff,
                                    10 * options_.retry_backoff, 3.0, true},
                                   retry.last_delay, &rng_);
    if (++retry.attempts == options_.max_attempts) {
      logger_->Warning("fanout", "relay " + name_ + " child " + child +
                                     " unreachable after " +
                                     std::to_string(retry.attempts) +
                                     " attempts; slow-sweeping");
    }
    std::shared_ptr<bool> alive = alive_;
    loop_->PostAfter(retry.last_delay, [this, alive, seq] {
      if (*alive) Forward(seq);
    });
    return;
  }
  entry.waiting.erase(child);
  entry.retries.erase(child);
  ++forwarded_;
  if (m_forwarded_ != nullptr) m_forwarded_->Increment();
  PersistWaiting(seq, entry);
  if (entry.waiting.empty()) {
    pending_.erase(it);
    if (m_backlog_ != nullptr) {
      m_backlog_->Set(static_cast<int64_t>(pending_.size()));
    }
  }
}

Status RelayNode::PersistWaiting(uint64_t seq, const Entry& entry) {
  if (entry.waiting.empty()) {
    return spool_->Apply({KvStore::Write::Del(SeqKey("m/", seq)),
                          KvStore::Write::Del(SeqKey("w/", seq))});
  }
  return spool_->Apply(
      {KvStore::Write::Put(SeqKey("w/", seq), JoinWaiting(entry.waiting))});
}

void RelayNode::AttachMetrics(MetricsRegistry* registry) {
  m_received_ = registry->GetCounter("bistro_fanout_relay_received_total",
                                     "Files accepted into the relay spool");
  m_forwarded_ = registry->GetCounter(
      "bistro_fanout_relay_forwarded_total",
      "Per-child forwards acknowledged downstream");
  m_retries_ = registry->GetCounter("bistro_fanout_relay_retries_total",
                                    "Failed child forwards scheduled to retry");
  m_backlog_ = registry->GetGauge("bistro_fanout_relay_backlog",
                                  "Spool entries with un-acked children");
  spool_->wal()->AttachMetrics(registry);
}

int RelayTreeDepth(const std::vector<RelaySpec>& relays,
                   const std::string& name) {
  const RelaySpec* spec = nullptr;
  for (const RelaySpec& r : relays) {
    if (r.name == name) spec = &r;
  }
  if (spec == nullptr) return 0;
  // Iterative worklist with a visited set: a cycle contributes no depth.
  std::set<std::string> visited{name};
  int depth = 1;
  std::vector<std::pair<const RelaySpec*, int>> work{{spec, 1}};
  while (!work.empty()) {
    auto [cur, d] = work.back();
    work.pop_back();
    for (const std::string& child : cur->children) {
      if (!visited.insert(child).second) continue;
      for (const RelaySpec& r : relays) {
        if (r.name == child) {
          depth = std::max(depth, d + 1);
          work.push_back({&r, d + 1});
        }
      }
    }
  }
  return depth;
}

}  // namespace fanout
}  // namespace bistro
