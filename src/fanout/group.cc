#include "fanout/group.h"

#include <algorithm>

#include "common/hash.h"
#include "core/server.h"

namespace bistro {
namespace fanout {

void GroupRelay::AddMember(const std::string& name, Endpoint* target) {
  Member m;
  m.name = name;
  m.target = target;
  members_.push_back(std::move(m));
}

Status GroupRelay::HandleMessage(const Message& msg) {
  if (msg.type == MessageType::kHeartbeat) return Status::OK();
  if (msg.type == MessageType::kFileData && msg.payload_crc != 0 &&
      Crc32(msg.payload) != msg.payload_crc) {
    // End-to-end integrity at the fan-in point: a payload corrupted in
    // flight must NACK here, before it touches member state — otherwise
    // every member rejects it and racks up failures toward a straggler
    // flag it never earned.
    return Status::Corruption("group " + group_ +
                              ": payload crc mismatch: " + msg.name);
  }
  if (msg.type == MessageType::kEndOfBatch ||
      msg.type == MessageType::kSourceNotify) {
    // Batch markers carry no file: best-effort to current members, never
    // NACKed (a marker retry storm would stall real files behind it).
    for (Member& m : members_) {
      if (!m.straggler) m.target->HandleMessage(msg);
    }
    return Status::OK();
  }
  Status worst = Status::OK();
  for (Member& m : members_) {
    if (m.straggler) {
      m.missed.insert(msg.file_id);
      continue;
    }
    Status st = m.target->HandleMessage(msg);
    if (st.ok()) {
      ++m.delivered;
      m.consecutive_failures = 0;
      continue;
    }
    if (++m.consecutive_failures >= straggler_after_) {
      m.straggler = true;
      m.missed.insert(msg.file_id);
      logger_->Warning("fanout", "group " + group_ + " member " + m.name +
                                  " is a straggler after " +
                                  std::to_string(m.consecutive_failures) +
                                  " failures; deferring to catch-up");
    } else if (worst.ok()) {
      worst = st;
    }
  }
  if (!worst.ok()) {
    // A healthy member refused the file: NACK so the engine retries the
    // whole group. Members that took it dedupe the repeat by FileId.
    ++nacks_;
    return worst;
  }
  cursor_ = std::max(cursor_, msg.file_id);
  ++files_acked_;
  return Status::OK();
}

void GroupRelay::Reoffer(const Message& msg) {
  for (Member& m : members_) {
    Status st = m.target->HandleMessage(msg);
    if (st.ok()) {
      ++m.delivered;
    } else {
      m.missed.insert(msg.file_id);
    }
  }
}

size_t GroupRelay::CatchUp(const MessageLoader& load,
                           const DeltaRecorder& record) {
  size_t delivered = 0;
  for (Member& m : members_) {
    if (m.missed.empty()) continue;
    // In id order; stop at the first failure — the member is likely
    // still down, and order keeps its catch-up stream monotone.
    for (auto it = m.missed.begin(); it != m.missed.end();) {
      Result<Message> msg = load(*it);
      if (!msg.ok()) {
        if (msg.status().code() == StatusCode::kNotFound) {
          it = m.missed.erase(it);  // expired from the history window
          continue;
        }
        return delivered;  // receipts/staging unavailable; retry later
      }
      Status st = m.target->HandleMessage(*msg);
      record(m.name, *it, st.ok());
      if (!st.ok()) break;
      it = m.missed.erase(it);
      ++m.delivered;
      ++delivered;
    }
    if (m.missed.empty() && m.straggler) {
      m.straggler = false;
      m.consecutive_failures = 0;
      logger_->Info("fanout", "group " + group_ + " member " + m.name +
                                  " caught up; rejoining ack set");
    }
  }
  return delivered;
}

size_t GroupRelay::straggler_count() const {
  size_t n = 0;
  for (const Member& m : members_) n += m.straggler ? 1 : 0;
  return n;
}

size_t GroupRelay::straggler_lag() const {
  size_t n = 0;
  for (const Member& m : members_) n += m.missed.size();
  return n;
}

std::vector<GroupMemberStats> GroupRelay::member_stats() const {
  std::vector<GroupMemberStats> out;
  out.reserve(members_.size());
  for (const Member& m : members_) {
    out.push_back({m.name, m.delivered, m.consecutive_failures, m.straggler,
                   m.missed.size()});
  }
  return out;
}

GroupManager::GroupManager(BistroServer* server, FileSystem* fs,
                           EventLoop* loop, Logger* logger, Options options)
    : server_(server),
      fs_(fs),
      loop_(loop),
      logger_(logger),
      options_(options) {}

Status GroupManager::Wire(const std::vector<GroupSpec>& groups,
                          const MemberResolver& resolve,
                          const EndpointRegistrar& register_endpoint) {
  for (const GroupSpec& spec : groups) {
    int after = spec.straggler_after.value_or(options_.straggler_after);
    auto relay = std::make_unique<GroupRelay>(spec.name, after, logger_);
    for (const std::string& member : spec.members) {
      Endpoint* target = resolve(member);
      if (target == nullptr) {
        return Status::InvalidArgument("group " + spec.name + " member " +
                                       member + " has no endpoint");
      }
      relay->AddMember(member, target);
    }
    register_endpoint(spec.name, relay.get());
    SubscriberSpec sub;
    sub.name = spec.name;
    sub.host = spec.name;
    sub.feeds = spec.feeds;
    sub.method = DeliveryMethod::kPush;
    sub.window = spec.window;
    // AddSubscriber backfills available history through the normal
    // queue-recomputation path — the group needs no special bootstrap.
    BISTRO_RETURN_IF_ERROR(server_->AddSubscriber(sub));
    relays_[spec.name] = std::move(relay);
    specs_.push_back(spec);
  }
  if (options_.catchup_interval > 0 && !specs_.empty()) ScheduleCatchUp();
  return Status::OK();
}

void GroupManager::ScheduleCatchUp() {
  std::shared_ptr<bool> alive = alive_;
  loop_->PostAfter(options_.catchup_interval, [this, alive] {
    if (!*alive) return;
    CatchUpStragglers();
    ScheduleCatchUp();
  });
}

size_t GroupManager::CatchUpStragglers() {
  size_t delivered = 0;
  // Per-member delta receipts: the stragglers' catch-up history is
  // auditable without per-member rows on the hot path. The pass's
  // receipts commit as one group.
  std::vector<ReceiptDatabase::DeliveryRecord> deltas;
  for (auto& [group, relay] : relays_) {
    const std::string& name = group;
    delivered += relay->CatchUp(
        [this](FileId id) { return LoadMessage(id); },
        [this, &name, &deltas](const std::string& member, FileId id,
                               bool ok) {
          if (ok) deltas.push_back({name + "~" + member, id, loop_->Now()});
        });
  }
  Status s = server_->receipts()->RecordDeliveryGroup(deltas);
  if (!s.ok()) {
    logger_->Error("fanout", "failed to commit " +
                                 std::to_string(deltas.size()) +
                                 " member catch-up receipt(s): " +
                                 s.ToString());
  }
  if (m_catchup_deliveries_ != nullptr && delivered > 0) {
    m_catchup_deliveries_->Increment(delivered);
  }
  if (m_straggler_lag_ != nullptr) {
    size_t lag = 0;
    for (auto& [_, relay] : relays_) lag += relay->straggler_lag();
    m_straggler_lag_->Set(static_cast<int64_t>(lag));
  }
  return delivered;
}

Status GroupManager::Resync() {
  for (const GroupSpec& spec : specs_) {
    GroupRelay* relay = relays_[spec.name].get();
    std::set<FileId> ids;
    for (const FeedName& interest : spec.feeds) {
      for (const FeedName& feed : server_->registry()->Expand(interest)) {
        for (FileId id : server_->receipts()->FilesInFeed(feed)) {
          ids.insert(id);
        }
      }
    }
    for (FileId id : ids) {
      // Only files the group already acked: undelivered ones are still in
      // the engine's queue and arrive through the normal path.
      if (!server_->receipts()->Delivered(spec.name, id)) continue;
      Result<Message> msg = LoadMessage(id);
      if (!msg.ok()) continue;  // expired mid-scan
      relay->Reoffer(*msg);
      if (m_resync_offers_ != nullptr) m_resync_offers_->Increment();
    }
  }
  return Status::OK();
}

Result<Message> GroupManager::LoadMessage(FileId id) const {
  BISTRO_ASSIGN_OR_RETURN(ArrivalReceipt receipt,
                          server_->receipts()->GetArrival(id));
  BISTRO_ASSIGN_OR_RETURN(std::string bytes,
                          fs_->ReadFile(receipt.staged_path));
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = id;
  msg.feed = receipt.feeds.empty() ? FeedName() : receipt.feeds[0];
  msg.name = receipt.name;
  msg.dest_path = receipt.rel_path.empty() ? receipt.name : receipt.rel_path;
  msg.data_time = receipt.data_time;
  msg.payload_crc = Crc32(bytes);
  msg.payload = SharedPayload(std::move(bytes));
  return msg;
}

GroupRelay* GroupManager::relay(const std::string& group) const {
  auto it = relays_.find(group);
  return it == relays_.end() ? nullptr : it->second.get();
}

void GroupManager::AttachMetrics(MetricsRegistry* registry) {
  m_catchup_deliveries_ =
      registry->GetCounter("bistro_fanout_catchup_deliveries_total",
                           "Straggler catch-up (member, file) deliveries");
  m_resync_offers_ =
      registry->GetCounter("bistro_fanout_resync_offers_total",
                           "Post-restart re-offers of delivered history");
  m_straggler_lag_ = registry->GetGauge(
      "bistro_fanout_straggler_lag", "Files owed to stragglers, all groups");
}

}  // namespace fanout
}  // namespace bistro
