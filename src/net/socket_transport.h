#ifndef BISTRO_NET_SOCKET_TRANSPORT_H_
#define BISTRO_NET_SOCKET_TRANSPORT_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/stream.h"
#include "net/transport.h"

namespace bistro {

/// Real TCP transport speaking the CRC'd frame protocol of net/protocol.*
/// between Bistro processes — the wire under Bistro-to-Bistro federation
/// (paper Fig. 1: servers feeding other servers).
///
/// Everything runs on the owning EventLoop's thread: non-blocking sockets
/// are registered with EventLoop::WatchFd and serviced from the loop's
/// poll(2) wait, so no internal locking is needed and the discrete-event
/// semantics of the rest of the server are preserved. The loop must run
/// under a RealClock (a SimClock loop never polls fds; simulated
/// deployments use SimTransport).
///
/// Sending. Each outbound message is assigned a per-peer `net_seq`,
/// framed with EncodeMessage, and appended to the peer's outbound queue;
/// the completion callback fires when the remote side's kAck for that
/// sequence arrives (carrying the remote HandleMessage status), when the
/// ack times out, or when the connection drops — the latter two always as
/// Unavailable, so the delivery engine's retry/backoff/dead-letter
/// machinery treats socket trouble exactly like a flaky simulated link.
/// SendBundle concatenates the frames into one queue entry (one write
/// burst) but keeps per-item sequences and callbacks.
///
/// Receiving. An accepting transport hands every non-ack inbound message
/// to the endpoint set with SetInboundEndpoint (a federated downstream
/// passes its BistroServer) and writes back a kAck echoing the sequence
/// with the handler's StatusCode.
///
/// Reconnect. A failed or dropped peer connection is retried with
/// decorrelated-jitter backoff (common/backoff.h, as delivery retries);
/// messages sent while disconnected queue up to `outbound_queue_bytes`
/// and flush on connect.
///
/// Names registered with Register() are served in-process, so one
/// transport can carry a server's local subscribers and its federated
/// peers at once; a name that is both registered and a peer resolves to
/// the local endpoint. Local sends build no frame: the endpoint gets the
/// Message itself, aliasing the sender's payload buffer, on a later loop
/// turn.
class SocketTransport : public Transport {
 public:
  struct Options {
    /// "ip:port" to accept peer connections on ("127.0.0.1:4400",
    /// "0.0.0.0:4400", "localhost:0"); empty = outbound-only transport.
    /// Port 0 binds an ephemeral port (see listen_port()).
    std::string listen_address;
    /// Per-frame body bound enforced on inbound socket bytes (see
    /// kDefaultMaxFrameBytes); oversized claims drop the connection.
    /// In-process endpoints are not bounded by it.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Cap on bytes queued toward one peer; sends over the cap fail
    /// immediately with Unavailable (backpressure surfaces to the
    /// delivery engine instead of buffering without bound).
    size_t outbound_queue_bytes = 64u << 20;
    /// Reconnect backoff envelope (decorrelated jitter between them).
    Duration reconnect_backoff_min = 200 * kMillisecond;
    Duration reconnect_backoff_max = 10 * kSecond;
    /// A send unacknowledged for this long fails (Unavailable) and drops
    /// the connection, which also catches half-open peers.
    Duration ack_timeout = 30 * kSecond;
    /// Seed for the reconnect jitter RNG.
    uint64_t backoff_seed = 1;
  };

  /// Observer of per-peer connection-lifecycle evidence — the hooks the
  /// federation health state machine feeds on. Callbacks run on the loop
  /// thread after the transport's own state is consistent; observers may
  /// call back into the transport (e.g. to send probes). An ack-timeout
  /// drop reports as OnPeerAckTimeout only (not also a disconnect), so
  /// each failure counts once.
  class PeerObserver {
   public:
    virtual ~PeerObserver() = default;
    virtual void OnPeerConnected(const std::string& /*peer*/) {}
    virtual void OnPeerConnectFailed(const std::string& /*peer*/,
                                     const Status& /*cause*/) {}
    virtual void OnPeerDisconnected(const std::string& /*peer*/,
                                    const Status& /*cause*/) {}
    virtual void OnPeerAckTimeout(const std::string& /*peer*/) {}
    virtual void OnPeerAck(const std::string& /*peer*/,
                           const Status& /*status*/) {}
  };

  /// Circuit breaker hook: consulted before a message is queued toward a
  /// peer (never for local/loopback endpoints). A non-OK status fails
  /// the send immediately with that status — no bytes queue, so a dead
  /// peer stops burning outbound_queue_bytes.
  using SendGate =
      std::function<Status(const std::string& peer, const Message& msg)>;

  /// Point-in-time per-peer wire statistics (admin console, tests).
  struct PeerNetStats {
    bool known = false;
    bool connected = false;
    uint64_t reconnect_attempts = 0;
    /// Committed time spent wanting-but-lacking a connection, plus the
    /// ongoing outage when disconnected now (counted from AddPeer).
    Duration disconnected_total = 0;
    /// Age of the last matched ack; -1 = never acked.
    Duration last_ack_age = -1;
    size_t queued_bytes = 0;
    size_t pending_acks = 0;
  };

  SocketTransport(EventLoop* loop, Options options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds and listens on options.listen_address. No-op (OK) when the
  /// address is empty.
  Status Listen();

  /// Port actually bound (resolves port 0); -1 when not listening.
  int listen_port() const { return listen_port_; }

  /// Receiver of inbound non-ack messages on accepted connections.
  void SetInboundEndpoint(Endpoint* endpoint) { inbound_endpoint_ = endpoint; }

  /// Declares a remote peer reachable at "ip:port". Re-adding with a
  /// different address drops any existing connection and reconnects —
  /// peers that restart on an ephemeral port are re-addressed this way.
  void AddPeer(const std::string& name, const std::string& address);

  /// Registers an in-process endpoint (loopback semantics).
  void Register(const std::string& name, Endpoint* endpoint);
  void Unregister(const std::string& name);

  /// Closes every socket and fails every in-flight send. Called by the
  /// destructor; callable earlier for orderly daemon shutdown.
  void Shutdown();

  // ------------------------------------------------------- Transport API
  void Send(const std::string& endpoint, const Message& msg,
            SendCallback done) override;
  void SendBundle(const std::string& endpoint,
                  std::vector<BundleItem> items) override;
  Duration EstimateCost(const std::string&, uint64_t) const override {
    return 0;
  }
  void AttachMetrics(MetricsRegistry* registry) override;

  /// Installs (or clears, with nullptr) the lifecycle observer.
  void SetPeerObserver(PeerObserver* observer) { observer_ = observer; }

  /// Installs (or clears, with an empty function) the send gate.
  void SetSendGate(SendGate gate) { gate_ = std::move(gate); }

  // --------------------------------------------- introspection (tests)
  uint64_t connects() const { return connects_; }
  uint64_t accepts() const { return accepts_; }
  uint64_t disconnects() const { return disconnects_; }
  uint64_t ack_timeouts() const { return ack_timeouts_; }
  /// Sends refused by the installed SendGate.
  uint64_t gate_rejects() const { return gate_rejects_; }
  /// True when the named peer has an established (not merely connecting)
  /// connection.
  bool PeerConnected(const std::string& name) const;
  /// Wire statistics for one peer (known == false for unknown names).
  PeerNetStats GetPeerStats(const std::string& name) const;
  /// Names of all declared peers, in name order.
  std::vector<std::string> PeerNames() const;

 private:
  /// One TCP connection (outbound to a peer, or accepted inbound).
  struct Conn {
    int fd = -1;
    bool connecting = false;       // non-blocking connect() in flight
    bool established = false;      // FinishConnect completed on this fd
    bool want_write = false;       // POLLOUT interest currently enabled
    MessageStreamDecoder decoder;
    /// Outbound frames; the head entry may be partially written
    /// (out_head bytes already on the wire).
    std::deque<std::string> outq;
    size_t out_head = 0;
    size_t outq_bytes = 0;

    explicit Conn(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
  };

  struct PendingSend {
    SendCallback done;
    TimePoint sent_at = 0;
  };

  struct Peer {
    std::string address;
    std::unique_ptr<Conn> conn;
    uint64_t next_seq = 1;  // 0 means "no sequence" on the wire
    std::map<uint64_t, PendingSend> pending;
    Duration last_backoff = 0;
    bool reconnect_scheduled = false;
    // Health bookkeeping surfaced via GetPeerStats and per-peer metrics.
    uint64_t reconnect_attempts = 0;
    TimePoint disconnected_since = 0;  // 0 = connected right now
    Duration disconnected_total = 0;   // committed outage time
    TimePoint last_ack_at = 0;         // 0 = never acked
    Counter* m_peer_reconnects = nullptr;
    Gauge* m_peer_disconnected_secs = nullptr;
  };

  // Connection lifecycle.
  void EnsureConnected(const std::string& name, Peer* peer);
  void StartConnect(const std::string& name, Peer* peer);
  void FinishConnect(const std::string& name, Peer* peer);
  /// `notify_observer` false suppresses the disconnect/connect-failed
  /// observer callback (the ack-timeout sweep reports its own event).
  void DropPeerConn(const std::string& name, Peer* peer,
                    const Status& status, bool reconnect,
                    bool notify_observer = true);
  /// Commits outage bookkeeping when a connection is lost/established.
  void MarkDisconnected(Peer* peer);
  void MarkConnected(Peer* peer);
  /// Registers the per-peer counter/gauge pair when a registry is known.
  void AttachPeerMetrics(const std::string& name, Peer* peer);
  /// Nulls every registry-owned metric pointer. The destructor calls
  /// this before Shutdown(): the registry (owned by the server, usually
  /// destroyed first) may no longer exist by then.
  void DetachMetrics();
  void ScheduleReconnect(const std::string& name, Peer* peer);

  // Wire I/O (shared by peer and inbound connections).
  /// Writes queued frames until EAGAIN or empty; adjusts POLLOUT
  /// interest. Errors mean the connection died (caller tears it down).
  Status FlushWrites(Conn* conn);
  void EnqueueFrame(Conn* conn, std::string frame);
  /// Reads until EAGAIN; returns false when the connection died (caller
  /// must tear it down).
  bool ReadReady(Conn* conn, Status* error);

  // Peer-side (outbound) events.
  void OnPeerFdEvent(const std::string& name, bool readable, bool writable);
  void HandleAck(const std::string& name, Peer* peer, const Message& ack);
  void ArmAckSweep();
  void SweepAckTimeouts();

  // Listener-side (inbound) events.
  void OnListenReadable();
  void OnInboundFdEvent(int fd, bool readable, bool writable);
  void DropInbound(int fd);
  void DispatchInbound(Conn* conn, const Message& msg);

  // In-process path for locally registered endpoints (no frame).
  void SendLocal(Endpoint* ep, const Message& msg, SendCallback done);

  void FailCallback(const SendCallback& done, const Status& status);

  EventLoop* loop_;
  Options options_;
  Rng backoff_rng_;
  Endpoint* inbound_endpoint_ = nullptr;
  PeerObserver* observer_ = nullptr;
  SendGate gate_;
  MetricsRegistry* registry_ = nullptr;

  int listen_fd_ = -1;
  int listen_port_ = -1;

  std::map<std::string, Endpoint*> local_endpoints_;
  std::map<std::string, Peer> peers_;
  std::map<int, std::unique_ptr<Conn>> inbound_;

  bool ack_sweep_armed_ = false;
  bool shut_down_ = false;
  /// Liveness token for timers posted to the loop (reconnects, ack
  /// sweeps): they capture a weak_ptr and no-op once the transport shut
  /// down, so stale posts never touch a dead object.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Plain tallies always kept (tests); mirrored into the registry when
  // AttachMetrics ran.
  uint64_t connects_ = 0;
  uint64_t accepts_ = 0;
  uint64_t disconnects_ = 0;
  uint64_t ack_timeouts_ = 0;
  uint64_t gate_rejects_ = 0;

  Counter* m_connects_ = nullptr;
  Counter* m_accepts_ = nullptr;
  Counter* m_disconnects_ = nullptr;
  Counter* m_reconnects_ = nullptr;
  Counter* m_acks_ = nullptr;
  Counter* m_ack_timeouts_ = nullptr;
  Counter* m_frames_in_ = nullptr;
  Counter* m_bytes_in_ = nullptr;
  Counter* m_queue_rejects_ = nullptr;
  Counter* m_gate_rejects_ = nullptr;
  Gauge* m_connections_ = nullptr;
};

/// Parses "host:port" where host is an IPv4 dotted quad, "localhost", or
/// empty (meaning INADDR_ANY for listeners). Returns InvalidArgument on
/// anything else — the transport deliberately avoids resolver calls, so
/// federation configs name peers by address.
Result<std::pair<uint32_t, uint16_t>> ParseInetAddress(
    const std::string& address);

}  // namespace bistro

#endif  // BISTRO_NET_SOCKET_TRANSPORT_H_
