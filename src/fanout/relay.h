#ifndef BISTRO_FANOUT_RELAY_H_
#define BISTRO_FANOUT_RELAY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "config/spec.h"
#include "kv/kvstore.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace bistro {
namespace fanout {

/// A dissemination relay (the config's `relay <name> { children; }`
/// block): receives ONE upstream send and re-fans it out to its children
/// over the transport, so a wide-area fan-out tree costs the origin one
/// send per relay instead of one per leaf. Children are ordinary
/// transport endpoints — subscribers, downstream Bistro servers
/// (federation peers), or further relays, which is what makes the tree
/// compose with the federation failover path.
///
/// Exactly-once across the extra hop: HandleMessage spools the encoded
/// message plus its pending-children set durably (a KvStore batch) and
/// only then acks the upstream — so an acked file can never be lost in
/// the relay. Forwarding is asynchronous with retries; each child ack
/// shrinks the durable pending set, and the spool entry is deleted when
/// the last child acks. A crash replays every incomplete entry on
/// Open(), and the at-least-once replays are absorbed by the children's
/// own dedupe (FileId at sinks, name dedupe at federated servers) —
/// the same argument the engine's retry path already relies on.
class RelayNode : public Endpoint {
 public:
  struct Options {
    Options() {}
    /// Spool directory (a KvStore root).
    std::string spool_dir = "/bistro/relay";
    /// First delay before re-sending to a failed child. Later delays
    /// follow NextBackoff (x3, jittered) up to a 10x cap, per (entry,
    /// child). After `max_attempts` failures the relay warns that the
    /// child is slow-swept; it never gives a file up while the file stays
    /// in the history window.
    Duration retry_backoff = 2 * kSecond;
    int max_attempts = 8;
    KvStore::Options kv;
  };

  /// Opens the spool, replays incomplete entries, starts forwarding.
  static Result<std::unique_ptr<RelayNode>> Open(
      std::string name, std::vector<std::string> children, FileSystem* fs,
      Transport* transport, EventLoop* loop, Logger* logger,
      Options options = Options());

  ~RelayNode() { *alive_ = false; }

  /// Upstream entry point: durable spool -> ack -> async fan-out.
  /// Heartbeats pass through to all children unspooled.
  Status HandleMessage(const Message& msg) override;

  /// Spool entries with at least one child un-acked.
  size_t Backlog() const { return pending_.size(); }
  const std::string& name() const { return name_; }
  const std::vector<std::string>& children() const { return children_; }
  uint64_t received() const { return received_; }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t replayed() const { return replayed_; }

  /// Registers bistro_fanout_relay_* series.
  void AttachMetrics(MetricsRegistry* registry);

 private:
  RelayNode(std::string name, std::vector<std::string> children,
            Transport* transport, EventLoop* loop, Logger* logger,
            Options options)
      : name_(std::move(name)),
        children_(std::move(children)),
        transport_(transport),
        loop_(loop),
        logger_(logger),
        options_(options),
        rng_(Fnv1a64(name_)) {}

  struct Retry {
    int attempts = 0;
    Duration last_delay = 0;
  };
  struct Entry {
    Message msg;
    std::set<std::string> waiting;   // children not yet acked
    std::set<std::string> inflight;  // children with a send outstanding
    std::map<std::string, Retry> retries;
  };

  Status Recover();
  void Forward(uint64_t seq);
  void OnChildResult(uint64_t seq, const std::string& child,
                     const Status& status);
  Status PersistWaiting(uint64_t seq, const Entry& entry);

  std::string name_;
  std::vector<std::string> children_;
  Transport* transport_;
  EventLoop* loop_;
  Logger* logger_;
  Options options_;
  Rng rng_;  // retry jitter, seeded from the relay name
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::unique_ptr<KvStore> spool_;
  uint64_t seq_ = 0;
  std::map<uint64_t, Entry> pending_;
  uint64_t received_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t replayed_ = 0;
  Counter* m_received_ = nullptr;
  Counter* m_forwarded_ = nullptr;
  Counter* m_retries_ = nullptr;
  Gauge* m_backlog_ = nullptr;
};

/// Depth of `name`'s relay tree within `relays`: 1 for a leaf relay,
/// 1 + the deepest child relay otherwise (admin `subscriptions` view).
/// Cycles (a misconfiguration) are cut rather than recursed into.
int RelayTreeDepth(const std::vector<RelaySpec>& relays,
                   const std::string& name);

}  // namespace fanout
}  // namespace bistro

#endif  // BISTRO_FANOUT_RELAY_H_
