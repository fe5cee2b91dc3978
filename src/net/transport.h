#ifndef BISTRO_NET_TRANSPORT_H_
#define BISTRO_NET_TRANSPORT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "vfs/filesystem.h"

namespace bistro {

/// Receiver of protocol messages: a subscriber application, or another
/// Bistro server acting as a subscriber (distributed feed network, §3).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Handles one message. Returning an error signals a failed delivery;
  /// the server's sender will retry per its policy.
  virtual Status HandleMessage(const Message& msg) = 0;
};

/// Completion callback for an asynchronous send.
using SendCallback = std::function<void(const Status&)>;

/// One message of a coalesced multi-file frame, with its own completion
/// callback — per-file acks survive coalescing, so exactly-once
/// bookkeeping never depends on frame boundaries.
struct BundleItem {
  Message msg;
  SendCallback done;
};

/// Abstract message transport from the server to named endpoints.
///
/// Send is asynchronous: the callback fires when the transfer completes
/// (or fails). Implementations define what "the wire" is — TCP, a
/// simulated WAN, or an in-process call.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void Send(const std::string& endpoint, const Message& msg,
                    SendCallback done) = 0;

  /// Sends several messages to one endpoint as a single wire frame when
  /// the transport supports it (one link round trip covers the group).
  /// The base implementation degrades to per-message Send, so transports
  /// and decorators that never see bundles keep working. Each item's
  /// callback fires individually: one rejected file NACKs alone without
  /// poisoning its frame-mates.
  virtual void SendBundle(const std::string& endpoint,
                          std::vector<BundleItem> items);

  /// Rough transfer cost estimate used by the scheduler's locality
  /// heuristics; 0 when unknown.
  virtual Duration EstimateCost(const std::string& endpoint,
                                uint64_t bytes) const = 0;

  /// Registers send/failure/byte counters in `registry`. Optional.
  /// Virtual so transports with their own machinery (sockets:
  /// connections, acks, reconnects) can register additional series.
  virtual void AttachMetrics(MetricsRegistry* registry);

 protected:
  /// Implementations call these around each Send.
  void CountSend(uint64_t payload_bytes);
  void CountOutcome(const Status& status);
  /// Forgets the registry-owned counters. For teardown paths where the
  /// registry may no longer exist (see SocketTransport's destructor).
  void DetachBaseMetrics();

 private:
  Counter* sends_ = nullptr;
  Counter* send_failures_ = nullptr;
  Counter* bytes_sent_ = nullptr;
};

/// The in-process and simulated-WAN transport. Every send round-trips
/// through the frame codec and is handed to the registered Endpoint on
/// the event loop; the endpoint resolves at delivery time, so a receiver
/// unregistered (or replaced) mid-flight bounces the message with
/// Unavailable (or gets it at its current incarnation).
///
/// With a SimNetwork, link capacity, failures and offline subscribers
/// decide when (and whether) a message arrives. Without one, the wire is
/// in-process: delivery is one loop post and never fails; the examples
/// and most tests run on it.
class SimTransport : public Transport {
 public:
  explicit SimTransport(EventLoop* loop, SimNetwork* network = nullptr)
      : loop_(loop), network_(network) {}

  void Register(const std::string& name, Endpoint* endpoint);
  /// Takes the endpoint off the wire: messages in flight to it bounce
  /// with Unavailable, as for a crashed process.
  void Unregister(const std::string& name);

  void Send(const std::string& endpoint, const Message& msg,
            SendCallback done) override;
  void SendBundle(const std::string& endpoint,
                  std::vector<BundleItem> items) override;
  Duration EstimateCost(const std::string& endpoint,
                        uint64_t bytes) const override;

 private:
  /// Schedules one frame of `link_bytes` on the link to `endpoint` and,
  /// at its completion time, decodes `wire` (a bundle frame when
  /// `bundle`) and hands each message to the endpoint, firing the
  /// matching callback in `dones`.
  void Transmit(const std::string& endpoint, uint64_t link_bytes,
                bool bundle, std::string wire,
                std::vector<SendCallback> dones);

  EventLoop* loop_;
  SimNetwork* network_;
  std::map<std::string, Endpoint*> endpoints_;
};

/// A simple subscriber endpoint that lands pushed files on a filesystem
/// under a destination root, tracks notifications, and optionally invokes
/// a callback per message — the reference implementation of the
/// subscriber-side contract used by examples and tests.
class FileSinkEndpoint : public Endpoint {
 public:
  /// `dedupe_capacity` bounds the redelivery-dedupe set (long-lived
  /// subscribers would otherwise grow it by one FileId per file ever
  /// received). Oldest-first eviction: an evicted id can in principle be
  /// re-landed if the server redelivers it much later, which overwrites
  /// the same destination file — safe, just no longer counted as a
  /// duplicate. Size the capacity above the server's redelivery horizon
  /// (its in-flight + retry window), not its full history.
  explicit FileSinkEndpoint(FileSystem* fs, std::string dest_root,
                            size_t dedupe_capacity = 65536)
      : fs_(fs),
        dest_root_(std::move(dest_root)),
        dedupe_capacity_(dedupe_capacity == 0 ? 1 : dedupe_capacity) {}

  /// Optional hook invoked after each successfully handled message.
  void SetMessageHook(std::function<void(const Message&)> hook) {
    hook_ = std::move(hook);
  }

  /// Simulate a subscriber-side failure: while set, every message errors.
  void SetFailing(bool failing) { failing_ = failing; }

  Status HandleMessage(const Message& msg) override;

  uint64_t files_received() const { return files_received_; }
  uint64_t notifications() const { return notifications_; }
  uint64_t batches() const { return batches_; }
  /// Redeliveries absorbed by the dedupe set (counted, not re-landed).
  uint64_t duplicates() const { return duplicates_; }
  /// Payload pushes rejected because the end-to-end CRC did not match.
  uint64_t corrupt_rejected() const { return corrupt_rejected_; }
  /// FileIds aged out of the bounded dedupe set.
  uint64_t dedupe_evictions() const { return dedupe_evictions_; }
  size_t dedupe_size() const { return delivered_ids_.size(); }

 private:
  FileSystem* fs_;
  std::string dest_root_;
  size_t dedupe_capacity_;
  std::function<void(const Message&)> hook_;
  bool failing_ = false;
  uint64_t files_received_ = 0;
  uint64_t notifications_ = 0;
  uint64_t batches_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t corrupt_rejected_ = 0;
  uint64_t dedupe_evictions_ = 0;
  // FileIds already landed: redelivery (lost ack, crash between delivery
  // and receipt) is acknowledged without writing or counting again, so
  // at-least-once retries read as exactly-once to the subscriber.
  // Bounded to dedupe_capacity_ ids, oldest evicted first (the deque
  // remembers landing order).
  std::set<FileId> delivered_ids_;
  std::deque<FileId> delivered_order_;
};

}  // namespace bistro

#endif  // BISTRO_NET_TRANSPORT_H_
