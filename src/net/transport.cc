#include "net/transport.h"

#include "common/hash.h"
#include "net/stream.h"

namespace bistro {

void Transport::AttachMetrics(MetricsRegistry* registry) {
  sends_ = registry->GetCounter("bistro_net_sends_total",
                                "Messages handed to the transport");
  send_failures_ = registry->GetCounter("bistro_net_send_failures_total",
                                        "Sends completing with an error");
  bytes_sent_ = registry->GetCounter("bistro_net_payload_bytes_total",
                                     "Payload bytes handed to the transport");
}

void Transport::CountSend(uint64_t payload_bytes) {
  if (sends_ == nullptr) return;
  sends_->Increment();
  bytes_sent_->Increment(payload_bytes);
}

void Transport::DetachBaseMetrics() {
  sends_ = nullptr;
  send_failures_ = nullptr;
  bytes_sent_ = nullptr;
}

void Transport::CountOutcome(const Status& status) {
  if (send_failures_ != nullptr && !status.ok()) send_failures_->Increment();
}

void Transport::SendBundle(const std::string& endpoint,
                           std::vector<BundleItem> items) {
  for (BundleItem& item : items) {
    Send(endpoint, item.msg, std::move(item.done));
  }
}

void SimTransport::Register(const std::string& name, Endpoint* endpoint) {
  endpoints_[name] = endpoint;
}

void SimTransport::Unregister(const std::string& name) {
  endpoints_.erase(name);
}

void SimTransport::Send(const std::string& endpoint, const Message& msg,
                        SendCallback done) {
  CountSend(msg.payload.size());
  std::vector<SendCallback> dones;
  dones.push_back(std::move(done));
  Transmit(endpoint, msg.payload.size() + msg.name.size() + 64,
           EncodeMessage(msg), std::move(dones));
}

void SimTransport::SendBundle(const std::string& endpoint,
                              std::vector<BundleItem> items) {
  // The socket's bundle: the frames back to back, one write. On the link a
  // single 64-byte header covers the whole group, each inner message
  // paying only a small per-record overhead — and, crucially, the link's
  // latency is charged once for the group instead of once per file.
  uint64_t bytes = 64;
  std::string wire;
  std::vector<SendCallback> dones;
  dones.reserve(items.size());
  for (BundleItem& item : items) {
    CountSend(item.msg.payload.size());
    bytes += item.msg.payload.size() + item.msg.name.size() + 16;
    AppendMessage(item.msg, &wire);
    dones.push_back(std::move(item.done));
  }
  Transmit(endpoint, bytes, std::move(wire), std::move(dones));
}

void SimTransport::Transmit(const std::string& endpoint, uint64_t link_bytes,
                            std::string wire,
                            std::vector<SendCallback> dones) {
  auto fail_all = [this](const std::vector<SendCallback>& dones,
                         const Status& status) {
    for (const SendCallback& done : dones) {
      CountOutcome(status);
      done(status);
    }
  };
  TimePoint due = loop_->Now();
  if (network_ != nullptr) {
    auto completion = network_->ScheduleTransfer(endpoint, link_bytes, due);
    if (!completion.ok()) {
      // An unknown or offline link fails the send on the next loop turn.
      loop_->Post([fail_all, dones = std::move(dones),
                   status = completion.status()] { fail_all(dones, status); });
      return;
    }
    due = *completion;
  }
  loop_->PostAt(due, [this, fail_all, endpoint, wire = std::move(wire),
                      dones = std::move(dones)] {
    auto it = endpoints_.find(endpoint);
    Endpoint* ep = it == endpoints_.end() ? nullptr : it->second;
    if (ep == nullptr) {
      fail_all(dones, Status::Unavailable("no endpoint: " + endpoint));
      return;
    }
    // A torn stream fails every callback: no frame of it is trusted.
    MessageStreamDecoder decoder;
    Status fed = decoder.Feed(wire);
    if (fed.ok() && decoder.buffered_bytes() != 0) {
      fed = Status::Corruption("message stream: truncated frame");
    }
    if (!fed.ok()) {
      fail_all(dones, fed);
      return;
    }
    for (const SendCallback& done : dones) {
      std::optional<Message> msg = decoder.Next();
      Status s = msg ? ep->HandleMessage(*msg)
                     : Status::Corruption("message stream: no frame for send");
      CountOutcome(s);
      done(s);
    }
  });
}

Duration SimTransport::EstimateCost(const std::string& endpoint,
                                    uint64_t bytes) const {
  if (network_ == nullptr) return 0;
  auto d = network_->TransferDuration(endpoint, bytes);
  return d.ok() ? *d : 0;
}

Status FileSinkEndpoint::HandleMessage(const Message& msg) {
  if (failing_) return Status::Unavailable("subscriber failing");
  switch (msg.type) {
    case MessageType::kFileData: {
      if (msg.payload_crc != 0 && Crc32(msg.payload) != msg.payload_crc) {
        ++corrupt_rejected_;
        return Status::Corruption("payload crc mismatch: " + msg.name);
      }
      if (msg.file_id != 0) {
        if (!delivered_ids_.insert(msg.file_id).second) {
          ++duplicates_;
          break;  // already landed; ack without writing again
        }
        delivered_order_.push_back(msg.file_id);
        while (delivered_order_.size() > dedupe_capacity_) {
          delivered_ids_.erase(delivered_order_.front());
          delivered_order_.pop_front();
          ++dedupe_evictions_;
        }
      }
      std::string dest = path::Join(dest_root_, msg.dest_path.empty()
                                                    ? msg.name
                                                    : msg.dest_path);
      Status wrote = fs_->WriteFile(dest, msg.payload);
      if (!wrote.ok()) {
        if (msg.file_id != 0) {
          // The id was optimistically inserted above; a failed land must
          // stay retryable, or the retry would be absorbed as a
          // "duplicate" of a write that never happened.
          delivered_ids_.erase(msg.file_id);
          if (!delivered_order_.empty() &&
              delivered_order_.back() == msg.file_id) {
            delivered_order_.pop_back();
          }
        }
        // Sink-side I/O trouble (full disk, unmounted volume, dropped
        // connection behind a network filesystem) is transient from the
        // sender's point of view: surface it as Unavailable so the
        // delivery retry/backoff/dead-letter machinery applies uniformly
        // instead of treating it as a poison failure.
        return Status::Unavailable("sink write: " + wrote.ToString());
      }
      ++files_received_;
      break;
    }
    case MessageType::kFileNotify:
      ++notifications_;
      break;
    case MessageType::kEndOfBatch:
      ++batches_;
      break;
    default:
      break;
  }
  if (hook_) hook_(msg);
  return Status::OK();
}

}  // namespace bistro
