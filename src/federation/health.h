#ifndef BISTRO_FEDERATION_HEALTH_H_
#define BISTRO_FEDERATION_HEALTH_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "config/spec.h"
#include "core/server.h"
#include "net/socket_transport.h"

namespace bistro {

/// Per-peer liveness verdict. The numeric values are stable: they are
/// exported as the `bistro_peer_health_<name>` gauge.
///
///   healthy --failures--> suspect --more failures--> down
///      ^                     |                        |
///      |<----- success ------+                        |
///      |                                           success
///      +<-- probation_successes --- probation <-------+
///
/// `down` opens the circuit: non-heartbeat sends to the peer fail fast
/// instead of queueing toward the outbound byte cap. Any failure during
/// probation re-opens it.
enum class PeerHealth {
  kHealthy = 0,
  kSuspect = 1,
  kDown = 2,
  kProbation = 3,
};

std::string_view PeerHealthName(PeerHealth health);

/// Tuning for one tracked peer (config keys under `peer { ... }`).
struct PeerHealthOptions {
  /// Keepalive-probe cadence while the peer is not healthy. Probes are
  /// kHeartbeat messages, exempt from the circuit breaker, so a down
  /// peer's recovery is detected even with no real traffic pending.
  Duration probe_interval = 5 * kSecond;
  /// Consecutive failures before healthy -> suspect.
  int suspect_after = 1;
  /// Consecutive failures before -> down (circuit opens).
  int down_after = 3;
  /// Ack successes required to leave probation for healthy.
  int probation_successes = 2;
};

/// Drives the per-peer health state machine from the transport's
/// connection-lifecycle evidence and gates sends through it.
///
/// Evidence flows EXCLUSIVELY through the PeerObserver callbacks — a
/// failed connect, a dropped connection, and an ack timeout each count
/// once; any matched ack (even one carrying a remote handler error)
/// proves the peer end-to-end alive. A successful connect alone is NOT
/// success evidence: a black-holed peer may complete TCP handshakes
/// while delivering nothing, so only acks close the loop.
class PeerHealthTracker : public SocketTransport::PeerObserver {
 public:
  /// Invoked after each state transition (state already updated, gauge
  /// already set). May call back into the tracker or transport.
  using TransitionHandler = std::function<void(
      const std::string& peer, PeerHealth from, PeerHealth to)>;

  PeerHealthTracker(EventLoop* loop, SocketTransport* transport,
                    Logger* logger);
  ~PeerHealthTracker() override;

  PeerHealthTracker(const PeerHealthTracker&) = delete;
  PeerHealthTracker& operator=(const PeerHealthTracker&) = delete;

  /// Starts tracking a peer (initially healthy). Untracked peers pass
  /// the gate untouched and produce no transitions.
  void Track(const std::string& peer, PeerHealthOptions options);

  /// Installs this tracker as the transport's observer and send gate.
  void Attach();

  void SetTransitionHandler(TransitionHandler handler) {
    on_transition_ = std::move(handler);
  }

  /// Registers bistro_peer_health_* series.
  void AttachMetrics(MetricsRegistry* registry);

  /// Current verdict; kHealthy for untracked peers.
  PeerHealth Health(const std::string& peer) const;

  /// Sends refused by the open circuit (peer down, non-heartbeat).
  uint64_t fast_fails() const { return fast_fails_; }
  /// Total state transitions across all peers.
  uint64_t transitions() const { return transitions_; }

  // ------------------------------------------- SocketTransport::PeerObserver
  void OnPeerConnectFailed(const std::string& peer,
                           const Status& cause) override;
  void OnPeerDisconnected(const std::string& peer,
                          const Status& cause) override;
  void OnPeerAckTimeout(const std::string& peer) override;
  void OnPeerAck(const std::string& peer, const Status& status) override;

 private:
  struct Tracked {
    PeerHealthOptions options;
    PeerHealth health = PeerHealth::kHealthy;
    int consecutive_failures = 0;
    int probation_count = 0;
    bool probe_scheduled = false;
    bool probe_inflight = false;
    Gauge* m_health = nullptr;
  };

  Status GateSend(const std::string& peer, const Message& msg);
  void RecordFailure(const std::string& peer, const Status& cause);
  void RecordSuccess(const std::string& peer);
  void Transition(const std::string& peer, Tracked* t, PeerHealth to);
  /// Arms the probe timer if the peer is unhealthy and none is armed.
  void ScheduleProbe(const std::string& peer, Tracked* t);
  void ProbeTick(const std::string& peer);

  EventLoop* loop_;
  SocketTransport* transport_;
  Logger* logger_;
  TransitionHandler on_transition_;
  MetricsRegistry* registry_ = nullptr;

  std::map<std::string, Tracked> tracked_;
  bool attached_ = false;
  uint64_t fast_fails_ = 0;
  uint64_t transitions_ = 0;
  Counter* m_transitions_ = nullptr;

  /// Liveness token for probe timers (see SocketTransport::alive_).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Ties federation wiring, peer health, and replica failover together for
/// a live server: WirePeers + a PeerHealthTracker whose `down`/`healthy`
/// transitions re-route a failed primary's feeds onto its configured
/// `failover` replica and back.
///
/// Failover keeps exactly-once intact without coordination: re-routing
/// only ever *adds* at-least-once delivery attempts (the replica receives
/// files the primary may also have received), and the downstream
/// arrival-receipt dedupe absorbs any overlap. Fail-back is the same
/// argument in reverse — the recovered primary's catch-up rides the
/// delivery engine's ordinary offline-probe -> backfill path.
class FederationRuntime {
 public:
  FederationRuntime(BistroServer* server, SocketTransport* transport,
                    EventLoop* loop, Logger* logger);

  /// Wires peers (WirePeers), tracks each one, installs the gate, and
  /// records the failover routing table.
  Status Start(const ServerConfig& config);

  PeerHealthTracker* tracker() { return &tracker_; }

  /// Human-readable peer table for the admin console (`peers` command).
  std::string RenderPeers() const;

  uint64_t failovers() const { return failovers_; }
  uint64_t failbacks() const { return failbacks_; }

 private:
  struct Route {
    std::vector<FeedName> feeds;  // the primary's wired feed set
    std::string failover;         // replica peer name
    bool failed_over = false;
  };

  void OnTransition(const std::string& peer, PeerHealth from, PeerHealth to);
  void ActivateFailover(const std::string& primary, Route* route);
  void DeactivateFailover(const std::string& primary, Route* route);

  BistroServer* server_;
  SocketTransport* transport_;
  Logger* logger_;
  PeerHealthTracker tracker_;

  std::map<std::string, Route> routes_;  // primaries with a failover target
  /// Every wired peer's own (pre-failover) feed set and window, for
  /// building the replica's union spec and restoring it afterwards.
  std::map<std::string, std::vector<FeedName>> base_feeds_;
  std::map<std::string, Duration> windows_;

  uint64_t failovers_ = 0;
  uint64_t failbacks_ = 0;
};

}  // namespace bistro

#endif  // BISTRO_FEDERATION_HEALTH_H_
