#include "federation/federation.h"

#include <algorithm>

#include "common/hash.h"

namespace bistro {

FederationInbound::FederationInbound(BistroServer* server, Logger* logger)
    : server_(server), logger_(logger) {}

void FederationInbound::AttachMetrics(MetricsRegistry* registry) {
  m_files_ = registry->GetCounter("bistro_federation_files_ingested_total",
                                  "Files ingested from upstream servers");
  m_duplicates_ = registry->GetCounter(
      "bistro_federation_duplicates_total",
      "Redelivered files absorbed by receipt/name dedupe");
  m_batches_ = registry->GetCounter(
      "bistro_federation_batches_total",
      "End-of-batch punctuations received from upstream");
  m_rejected_ = registry->GetCounter(
      "bistro_federation_rejected_total",
      "Inbound messages rejected (corruption or ingest failure)");
}

Status FederationInbound::HandleMessage(const Message& msg) {
  if (msg.type == MessageType::kFileData) {
    // Dedupe BEFORE the payload CRC check runs inside the server: a
    // redelivered file is acked from the receipt alone.
    bool seen = recent_names_.count(msg.name) != 0;
    if (!seen && !msg.name.empty()) {
      seen = server_->receipts()->FindIdByName(msg.name).ok();
    }
    if (seen) {
      ++duplicates_absorbed_;
      if (m_duplicates_ != nullptr) m_duplicates_->Increment();
      logger_->Debug("federation", "duplicate absorbed: " + msg.name);
      return Status::OK();
    }
  }
  Status handled = server_->HandleMessage(msg);
  switch (msg.type) {
    case MessageType::kFileData:
      if (handled.ok()) {
        ++files_ingested_;
        if (m_files_ != nullptr) m_files_->Increment();
        recent_names_.insert(msg.name);
        recent_order_.push_back(msg.name);
        while (recent_order_.size() > recent_capacity_) {
          recent_names_.erase(recent_order_.front());
          recent_order_.pop_front();
        }
      }
      break;
    case MessageType::kEndOfBatch:
      if (handled.ok() && m_batches_ != nullptr) m_batches_->Increment();
      break;
    default:
      break;
  }
  if (!handled.ok() && m_rejected_ != nullptr) m_rejected_->Increment();
  return handled;
}

namespace {
/// With `replicas n`, peer `index` carries its own shard plus the n-1
/// preceding shards (wrapping): the feed hashed to shard h lands on peers
/// h, h+1, ..., h+n-1 mod count, so losing any single peer leaves every
/// feed on a live neighbor.
bool FeedInReplicatedShard(const FeedName& feed, int index, int count,
                           int replicas) {
  if (count <= 0) return true;
  uint64_t home = Fnv1a64(feed) % static_cast<uint64_t>(count);
  int distance = (index - static_cast<int>(home) + count) % count;
  return distance < std::max(1, replicas);
}

/// True when some other peer names `peer` as its failover target.
bool IsFailoverTarget(const ServerConfig& config, const PeerSpec& peer) {
  for (const PeerSpec& other : config.peers) {
    if (other.failover == peer.name) return true;
  }
  return false;
}
}  // namespace

std::vector<FeedName> PeerFeeds(const ServerConfig& config,
                                const PeerSpec& peer) {
  if (!peer.feeds.empty()) return peer.feeds;
  if (peer.shard_count <= 0) {
    // A peer with no explicit feeds and no shard normally takes every
    // feed — but a pure standby (declared only to be someone's failover
    // target) takes nothing until the failover activates.
    if (IsFailoverTarget(config, peer)) return {};
    std::vector<FeedName> out;
    for (const FeedSpec& feed : config.feeds) out.push_back(feed.name);
    return out;
  }
  std::vector<FeedName> out;
  for (const FeedSpec& feed : config.feeds) {
    if (FeedInReplicatedShard(feed.name, peer.shard_index, peer.shard_count,
                              peer.replicas)) {
      out.push_back(feed.name);
    }
  }
  return out;
}

SocketTransport::Options SocketOptionsFromSpec(const ServerNetSpec& spec,
                                               uint64_t backoff_seed) {
  SocketTransport::Options options;
  options.listen_address = spec.listen;
  if (spec.max_frame_bytes) {
    options.max_frame_bytes = static_cast<size_t>(*spec.max_frame_bytes);
  }
  if (spec.outbound_queue_bytes) {
    options.outbound_queue_bytes =
        static_cast<size_t>(*spec.outbound_queue_bytes);
  }
  if (spec.reconnect_backoff_min) {
    options.reconnect_backoff_min = *spec.reconnect_backoff_min;
  }
  if (spec.reconnect_backoff_max) {
    options.reconnect_backoff_max = *spec.reconnect_backoff_max;
  }
  if (spec.ack_timeout) options.ack_timeout = *spec.ack_timeout;
  options.backoff_seed = backoff_seed;
  return options;
}

Status WirePeers(const ServerConfig& config, BistroServer* server,
                 SocketTransport* transport, Logger* logger) {
  for (const PeerSpec& peer : config.peers) {
    transport->AddPeer(peer.name, peer.address);
    SubscriberSpec sub;
    sub.name = peer.name;
    sub.host = peer.name;  // transport endpoint == peer name
    sub.method = DeliveryMethod::kPush;
    sub.feeds = PeerFeeds(config, peer);
    sub.window = peer.window;
    if (sub.feeds.empty()) {
      if (IsFailoverTarget(config, peer)) {
        logger->Info("federation", "peer " + peer.name +
                                       " is a standby (failover target); "
                                       "takes no feeds until activated");
      } else {
        logger->Warning(
            "federation",
            "peer " + peer.name + " routes no feeds (empty shard?)");
      }
      continue;
    }
    Status added = server->AddSubscriber(sub);
    if (added.IsAlreadyExists()) {
      // Restart/rewire path: the subscriber (and its receipts) persist;
      // only the transport address needed refreshing.
      logger->Info("federation", "peer already subscribed: " + peer.name);
      continue;
    }
    BISTRO_RETURN_IF_ERROR(added);
    logger->Info("federation",
                 "peer " + peer.name + " at " + peer.address + " takes " +
                     std::to_string(sub.feeds.size()) + " feed(s)");
  }
  return Status::OK();
}

}  // namespace bistro
