#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/backoff.h"

namespace bistro {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<std::pair<uint32_t, uint16_t>> ParseInetAddress(
    const std::string& address) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("address needs host:port: " + address);
  }
  std::string host = address.substr(0, colon);
  std::string port_str = address.substr(colon + 1);
  if (port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("bad port in address: " + address);
  }
  unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
  if (port > 65535) {
    return Status::InvalidArgument("port out of range: " + address);
  }
  uint32_t host_be;
  if (host.empty() || host == "0.0.0.0") {
    host_be = htonl(INADDR_ANY);
  } else if (host == "localhost") {
    host_be = htonl(INADDR_LOOPBACK);
  } else {
    in_addr parsed;
    if (inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
      return Status::InvalidArgument("bad IPv4 host in address: " + address);
    }
    host_be = parsed.s_addr;
  }
  return std::make_pair(host_be, static_cast<uint16_t>(port));
}

SocketTransport::SocketTransport(EventLoop* loop, Options options)
    : loop_(loop),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {}

SocketTransport::~SocketTransport() {
  // By destructor time the metrics registry (owned by the server, which
  // is usually destroyed first) may already be gone; the increments the
  // final teardown would make are unobservable anyway.
  DetachMetrics();
  Shutdown();
}

void SocketTransport::DetachMetrics() {
  DetachBaseMetrics();
  m_connects_ = nullptr;
  m_accepts_ = nullptr;
  m_disconnects_ = nullptr;
  m_reconnects_ = nullptr;
  m_acks_ = nullptr;
  m_ack_timeouts_ = nullptr;
  m_frames_in_ = nullptr;
  m_bytes_in_ = nullptr;
  m_queue_rejects_ = nullptr;
  m_gate_rejects_ = nullptr;
  m_connections_ = nullptr;
  registry_ = nullptr;
  for (auto& [name, peer] : peers_) {
    peer.m_peer_reconnects = nullptr;
    peer.m_peer_disconnected_secs = nullptr;
  }
}

Status SocketTransport::Listen() {
  if (options_.listen_address.empty()) return Status::OK();
  if (listen_fd_ >= 0) return Status::OK();
  BISTRO_ASSIGN_OR_RETURN(auto addr, ParseInetAddress(options_.listen_address));
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = addr.first;
  sin.sin_port = htons(addr.second);
  if (bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
    Status s = Status::IoError(
        Errno(("bind " + options_.listen_address).c_str()));
    close(fd);
    return s;
  }
  if (listen(fd, SOMAXCONN) != 0) {
    Status s = Status::IoError(Errno("listen"));
    close(fd);
    return s;
  }
  socklen_t len = sizeof(sin);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0) {
    listen_port_ = ntohs(sin.sin_port);
  }
  listen_fd_ = fd;
  loop_->WatchFd(fd, [this](bool readable, bool) {
    if (readable) OnListenReadable();
  });
  return Status::OK();
}

void SocketTransport::AddPeer(const std::string& name,
                              const std::string& address) {
  Peer& peer = peers_[name];
  if (peer.conn == nullptr) {
    peer.conn = std::make_unique<Conn>(options_.max_frame_bytes);
    // Outage time accrues from declaration until the first connect: a
    // peer that never comes up reads as 100% disconnected.
    peer.disconnected_since = loop_->Now();
    AttachPeerMetrics(name, &peer);
  } else if (peer.address != address) {
    // Re-addressed (typically a peer that restarted on a fresh ephemeral
    // port): the old connection is dead weight, start over immediately.
    DropPeerConn(name, &peer, Status::Unavailable("peer re-addressed"),
                 /*reconnect=*/false);
    peer.last_backoff = 0;
  }
  peer.address = address;
}

void SocketTransport::Register(const std::string& name, Endpoint* endpoint) {
  local_endpoints_[name] = endpoint;
}

void SocketTransport::Unregister(const std::string& name) {
  local_endpoints_.erase(name);
}

void SocketTransport::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  *alive_ = false;
  for (auto& [name, peer] : peers_) {
    DropPeerConn(name, &peer, Status::Unavailable("transport shutdown"),
                 /*reconnect=*/false);
  }
  std::vector<int> inbound_fds;
  for (const auto& [fd, conn] : inbound_) inbound_fds.push_back(fd);
  for (int fd : inbound_fds) DropInbound(fd);
  if (listen_fd_ >= 0) {
    loop_->UnwatchFd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ------------------------------------------------------------------ send

void SocketTransport::FailCallback(const SendCallback& done,
                                   const Status& status) {
  CountOutcome(status);
  if (done) done(status);
}

void SocketTransport::SendLocal(Endpoint* ep, const Message& msg,
                                SendCallback done) {
  // In-process endpoints get a copy of the Message that aliases the
  // sender's immutable payload buffer: no frame is built, so nothing is
  // copied and max_frame_bytes (a bound on socket input) does not apply.
  // The endpoint's payload_crc check is the one verification of the bytes.
  std::weak_ptr<bool> alive = alive_;
  loop_->Post([this, alive, ep, msg, done = std::move(done)] {
    auto self = alive.lock();
    if (self == nullptr || !*self) return;
    Status s = ep->HandleMessage(msg);
    CountOutcome(s);
    if (done) done(s);
  });
}

void SocketTransport::Send(const std::string& endpoint, const Message& msg,
                           SendCallback done) {
  CountSend(msg.payload.size());
  auto lit = local_endpoints_.find(endpoint);
  if (lit != local_endpoints_.end()) {
    SendLocal(lit->second, msg, std::move(done));
    return;
  }
  auto pit = peers_.find(endpoint);
  if (pit == peers_.end()) {
    std::weak_ptr<bool> alive = alive_;
    loop_->Post([this, alive, endpoint, done] {
      auto self = alive.lock();
      if (self == nullptr || !*self) return;
      FailCallback(done, Status::Unavailable("no endpoint: " + endpoint));
    });
    return;
  }
  Peer& peer = pit->second;
  Conn* conn = peer.conn.get();

  if (gate_) {
    Status gated = gate_(endpoint, msg);
    if (!gated.ok()) {
      ++gate_rejects_;
      if (m_gate_rejects_ != nullptr) m_gate_rejects_->Increment();
      FailCallback(done, gated);
      return;
    }
  }

  Message framed = msg;  // cheap: payload bytes are shared
  framed.net_seq = peer.next_seq++;
  std::string frame = EncodeMessage(framed);
  if (conn->outq_bytes + frame.size() > options_.outbound_queue_bytes) {
    if (m_queue_rejects_ != nullptr) m_queue_rejects_->Increment();
    FailCallback(done,
                 Status::Unavailable("outbound queue full: " + endpoint));
    return;
  }
  peer.pending[framed.net_seq] = PendingSend{std::move(done), loop_->Now()};
  ArmAckSweep();
  EnqueueFrame(conn, std::move(frame));
  EnsureConnected(endpoint, &peer);
  if (conn->fd >= 0 && !conn->connecting) {
    Status s = FlushWrites(conn);
    if (!s.ok()) DropPeerConn(endpoint, &peer, s, /*reconnect=*/true);
  }
}

void SocketTransport::SendBundle(const std::string& endpoint,
                                 std::vector<BundleItem> items) {
  if (local_endpoints_.count(endpoint) != 0 ||
      peers_.count(endpoint) == 0) {
    // Local endpoints and unknown names take the per-message path (which
    // resolves them identically to Send).
    Transport::SendBundle(endpoint, std::move(items));
    return;
  }
  Peer& peer = peers_[endpoint];
  Conn* conn = peer.conn.get();

  if (gate_ && !items.empty()) {
    // Bundles are homogeneous (coalesced push files), so one gate
    // decision covers the frame; every item fails together.
    Status gated = gate_(endpoint, items[0].msg);
    if (!gated.ok()) {
      ++gate_rejects_;
      if (m_gate_rejects_ != nullptr) m_gate_rejects_->Increment();
      for (BundleItem& item : items) FailCallback(item.done, gated);
      return;
    }
  }

  // One contiguous write burst; each inner frame keeps its own sequence
  // and callback, so per-file acks survive coalescing.
  std::string burst;
  std::vector<std::pair<uint64_t, SendCallback>> seqs;
  seqs.reserve(items.size());
  uint64_t first_seq = peer.next_seq;
  for (BundleItem& item : items) {
    CountSend(item.msg.payload.size());
    Message framed = std::move(item.msg);
    framed.net_seq = peer.next_seq++;
    AppendMessage(framed, &burst);
    seqs.emplace_back(framed.net_seq, std::move(item.done));
  }
  if (conn->outq_bytes + burst.size() > options_.outbound_queue_bytes) {
    if (m_queue_rejects_ != nullptr) m_queue_rejects_->Increment();
    peer.next_seq = first_seq;  // nothing went on the wire
    Status s = Status::Unavailable("outbound queue full: " + endpoint);
    for (auto& [seq, done] : seqs) FailCallback(done, s);
    return;
  }
  TimePoint now = loop_->Now();
  for (auto& [seq, done] : seqs) {
    peer.pending[seq] = PendingSend{std::move(done), now};
  }
  ArmAckSweep();
  EnqueueFrame(conn, std::move(burst));
  EnsureConnected(endpoint, &peer);
  if (conn->fd >= 0 && !conn->connecting) {
    Status s = FlushWrites(conn);
    if (!s.ok()) DropPeerConn(endpoint, &peer, s, /*reconnect=*/true);
  }
}

// ------------------------------------------------------------- wire I/O

void SocketTransport::EnqueueFrame(Conn* conn, std::string frame) {
  conn->outq_bytes += frame.size();
  conn->outq.push_back(std::move(frame));
}

Status SocketTransport::FlushWrites(Conn* conn) {
  while (!conn->outq.empty()) {
    const std::string& frame = conn->outq.front();
    size_t left = frame.size() - conn->out_head;
    // SIGPIPE audit: this send() is the transport's ONLY write(2)-family
    // call (peer, inbound-ack and shutdown paths all funnel here), and
    // MSG_NOSIGNAL is mandatory — a reader that died mid-stream must
    // surface as EPIPE below (a retryable Unavailable) rather than
    // killing the process. Pinned by SocketTransportTest.
    // SigpipeSafeWhenReaderDiesMidStream.
    ssize_t n = send(conn->fd, frame.data() + conn->out_head, left,
                     MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_head += static_cast<size_t>(n);
      conn->outq_bytes -= static_cast<size_t>(n);
      if (conn->out_head == frame.size()) {
        conn->outq.pop_front();
        conn->out_head = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_->SetFdWriteInterest(conn->fd, true);
      }
      return Status::OK();
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(Errno("send"));
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_->SetFdWriteInterest(conn->fd, false);
  }
  return Status::OK();
}

bool SocketTransport::ReadReady(Conn* conn, Status* error) {
  char buf[65536];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (m_bytes_in_ != nullptr) {
        m_bytes_in_->Increment(static_cast<uint64_t>(n));
      }
      Status fed = conn->decoder.Feed(std::string_view(buf, n));
      if (!fed.ok()) {
        // A framing error is unrecoverable on a stream: drop the
        // connection (Unavailable to in-flight sends; the poison cause
        // rides in the message).
        *error = Status::Unavailable("stream poisoned: " + fed.ToString());
        return false;
      }
      continue;
    }
    if (n == 0) {
      *error = Status::Unavailable("peer closed connection");
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    *error = Status::Unavailable(Errno("read"));
    return false;
  }
}

// ------------------------------------------------------ peer lifecycle

void SocketTransport::EnsureConnected(const std::string& name, Peer* peer) {
  if (shut_down_) return;
  Conn* conn = peer->conn.get();
  if (conn->fd >= 0 || conn->connecting) return;
  if (peer->reconnect_scheduled) return;  // backoff in progress
  StartConnect(name, peer);
}

void SocketTransport::StartConnect(const std::string& name, Peer* peer) {
  auto addr = ParseInetAddress(peer->address);
  if (!addr.ok()) {
    // A misconfigured address never connects; fail sends with the real
    // cause rather than a generic Unavailable, and don't retry-loop.
    DropPeerConn(name, peer, addr.status(), /*reconnect=*/false);
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    DropPeerConn(name, peer, Status::Unavailable(Errno("socket")),
                 /*reconnect=*/true);
    return;
  }
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = addr->first;
  sin.sin_port = htons(addr->second);
  Conn* conn = peer->conn.get();
  conn->fd = fd;
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin));
  if (rc == 0) {
    FinishConnect(name, peer);
    return;
  }
  if (errno != EINPROGRESS) {
    DropPeerConn(name, peer, Status::Unavailable(Errno("connect")),
                 /*reconnect=*/true);
    return;
  }
  conn->connecting = true;
  conn->want_write = true;
  loop_->WatchFd(fd, [this, name](bool readable, bool writable) {
    OnPeerFdEvent(name, readable, writable);
  });
  loop_->SetFdWriteInterest(fd, true);
}

void SocketTransport::FinishConnect(const std::string& name, Peer* peer) {
  Conn* conn = peer->conn.get();
  bool was_connecting = conn->connecting;
  conn->connecting = false;
  conn->established = true;
  peer->last_backoff = 0;  // healthy again: next failure backs off afresh
  MarkConnected(peer);
  SetNoDelay(conn->fd);
  ++connects_;
  if (m_connects_ != nullptr) m_connects_->Increment();
  if (m_connections_ != nullptr) m_connections_->Add(1);
  if (!was_connecting) {
    // connect() completed synchronously, so the fd was never watched.
    loop_->WatchFd(conn->fd, [this, name](bool readable, bool writable) {
      OnPeerFdEvent(name, readable, writable);
    });
  }
  if (observer_ != nullptr) observer_->OnPeerConnected(name);
  Status s = FlushWrites(conn);
  if (!s.ok()) DropPeerConn(name, peer, s, /*reconnect=*/true);
}

void SocketTransport::OnPeerFdEvent(const std::string& name, bool readable,
                                    bool writable) {
  auto it = peers_.find(name);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  Conn* conn = peer.conn.get();
  if (conn == nullptr || conn->fd < 0) return;

  if (conn->connecting) {
    // Readiness (or error, reported as readable) resolves the
    // non-blocking connect.
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err != 0) {
      DropPeerConn(name, &peer,
                   Status::Unavailable(std::string("connect: ") +
                                       std::strerror(err)),
                   /*reconnect=*/true);
      return;
    }
    FinishConnect(name, &peer);
    return;
  }

  if (writable) {
    Status s = FlushWrites(conn);
    if (!s.ok()) {
      DropPeerConn(name, &peer, s, /*reconnect=*/true);
      return;
    }
  }
  if (readable) {
    Status error;
    bool alive = ReadReady(conn, &error);
    while (auto msg = conn->decoder.Next()) {
      if (m_frames_in_ != nullptr) m_frames_in_->Increment();
      if (msg->type == MessageType::kAck) {
        HandleAck(name, &peer, *msg);
      }
      // Non-ack traffic on an outbound connection is not part of the
      // protocol (each federation direction uses its own connection);
      // ignore rather than guess.
    }
    if (!alive) DropPeerConn(name, &peer, error, /*reconnect=*/true);
  }
}

void SocketTransport::HandleAck(const std::string& name, Peer* peer,
                                const Message& ack) {
  auto it = peer->pending.find(ack.net_seq);
  if (it == peer->pending.end()) return;  // late ack after timeout/redrive
  SendCallback done = std::move(it->second.done);
  peer->pending.erase(it);
  peer->last_ack_at = loop_->Now();
  if (m_acks_ != nullptr) m_acks_->Increment();
  Status result =
      ack.ack_code == 0
          ? Status::OK()
          : Status(static_cast<StatusCode>(ack.ack_code), ack.name);
  CountOutcome(result);
  // Any matched ack — even one carrying a handler error — proves the
  // peer is alive and responsive; the observer treats it as liveness.
  if (observer_ != nullptr) observer_->OnPeerAck(name, result);
  if (done) done(result);
}

void SocketTransport::DropPeerConn(const std::string& name, Peer* peer,
                                   const Status& status, bool reconnect,
                                   bool notify_observer) {
  Conn* conn = peer->conn.get();
  bool had_fd = conn->fd >= 0;
  bool established = conn->established;
  if (had_fd) {
    loop_->UnwatchFd(conn->fd);
    close(conn->fd);
    conn->fd = -1;
    ++disconnects_;
    if (m_disconnects_ != nullptr) m_disconnects_->Increment();
    if (established && m_connections_ != nullptr) m_connections_->Add(-1);
  }
  MarkDisconnected(peer);
  conn->connecting = false;
  conn->established = false;
  conn->want_write = false;
  conn->decoder = MessageStreamDecoder(options_.max_frame_bytes);
  conn->outq.clear();
  conn->out_head = 0;
  conn->outq_bytes = 0;

  // Every in-flight send dies with the connection. Transport-level
  // failures surface as Unavailable (retryable); anything already more
  // specific (bad address) passes through.
  Status failure = status.ok() || status.IsUnavailable()
                       ? (status.ok() ? Status::Unavailable("connection reset")
                                      : status)
                       : status;
  auto pending = std::move(peer->pending);
  peer->pending.clear();
  for (auto& [seq, p] : pending) FailCallback(p.done, failure);

  if (notify_observer && had_fd && observer_ != nullptr) {
    if (established) {
      observer_->OnPeerDisconnected(name, failure);
    } else {
      observer_->OnPeerConnectFailed(name, failure);
    }
  }

  if (reconnect) ScheduleReconnect(name, peer);
}

void SocketTransport::MarkConnected(Peer* peer) {
  if (peer->disconnected_since == 0) return;
  peer->disconnected_total += loop_->Now() - peer->disconnected_since;
  peer->disconnected_since = 0;
  if (peer->m_peer_disconnected_secs != nullptr) {
    peer->m_peer_disconnected_secs->Set(peer->disconnected_total / kSecond);
  }
}

void SocketTransport::MarkDisconnected(Peer* peer) {
  if (peer->disconnected_since != 0) return;  // outage already running
  peer->disconnected_since = loop_->Now();
}

void SocketTransport::ScheduleReconnect(const std::string& name, Peer* peer) {
  if (shut_down_ || peer->reconnect_scheduled) return;
  peer->reconnect_scheduled = true;
  const Duration backoff = NextBackoff(
      {options_.reconnect_backoff_min, options_.reconnect_backoff_max},
      peer->last_backoff, &backoff_rng_);
  peer->last_backoff = backoff;
  std::weak_ptr<bool> alive = alive_;
  loop_->PostAfter(backoff, [this, alive, name] {
    auto self = alive.lock();
    if (self == nullptr || !*self) return;
    auto it = peers_.find(name);
    if (it == peers_.end()) return;
    Peer& peer = it->second;
    peer.reconnect_scheduled = false;
    Conn* conn = peer.conn.get();
    if (conn->fd >= 0 || conn->connecting) return;
    ++peer.reconnect_attempts;
    if (m_reconnects_ != nullptr) m_reconnects_->Increment();
    if (peer.m_peer_reconnects != nullptr) peer.m_peer_reconnects->Increment();
    StartConnect(name, &peer);
  });
}

bool SocketTransport::PeerConnected(const std::string& name) const {
  auto it = peers_.find(name);
  if (it == peers_.end()) return false;
  const Conn* conn = it->second.conn.get();
  return conn != nullptr && conn->fd >= 0 && !conn->connecting;
}

// ------------------------------------------------------- ack timeouts

void SocketTransport::ArmAckSweep() {
  if (ack_sweep_armed_ || shut_down_) return;
  ack_sweep_armed_ = true;
  Duration interval =
      std::max<Duration>(options_.ack_timeout / 4, 50 * kMillisecond);
  std::weak_ptr<bool> alive = alive_;
  loop_->PostAfter(interval, [this, alive] {
    auto self = alive.lock();
    if (self == nullptr || !*self) return;
    ack_sweep_armed_ = false;
    SweepAckTimeouts();
  });
}

void SocketTransport::SweepAckTimeouts() {
  TimePoint now = loop_->Now();
  bool any_pending = false;
  std::vector<std::string> expired;
  for (auto& [name, peer] : peers_) {
    bool timed_out = false;
    for (const auto& [seq, p] : peer.pending) {
      if (p.sent_at + options_.ack_timeout <= now) {
        timed_out = true;
        break;
      }
    }
    if (timed_out) {
      expired.push_back(name);
    } else if (!peer.pending.empty()) {
      any_pending = true;
    }
  }
  for (const std::string& name : expired) {
    auto it = peers_.find(name);
    if (it == peers_.end()) continue;
    ++ack_timeouts_;
    if (m_ack_timeouts_ != nullptr) m_ack_timeouts_->Increment();
    // A connection that stopped acking is indistinguishable from a
    // half-open peer: drop it wholesale (all pending fail, delivery
    // retries) rather than cherry-picking sequences. The observer hears
    // OnPeerAckTimeout only — the drop it causes is the same piece of
    // evidence, not a second failure.
    if (observer_ != nullptr) observer_->OnPeerAckTimeout(name);
    DropPeerConn(name, &it->second, Status::Unavailable("ack timeout"),
                 /*reconnect=*/true, /*notify_observer=*/false);
  }
  if (any_pending) ArmAckSweep();
}

// ------------------------------------------------------- inbound side

void SocketTransport::OnListenReadable() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: poll again later
    }
    SetNoDelay(fd);
    ++accepts_;
    if (m_accepts_ != nullptr) m_accepts_->Increment();
    if (m_connections_ != nullptr) m_connections_->Add(1);
    auto conn = std::make_unique<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    inbound_[fd] = std::move(conn);
    loop_->WatchFd(fd, [this, fd](bool readable, bool writable) {
      OnInboundFdEvent(fd, readable, writable);
    });
  }
}

void SocketTransport::OnInboundFdEvent(int fd, bool readable, bool writable) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  Conn* conn = it->second.get();

  if (writable) {
    Status s = FlushWrites(conn);
    if (!s.ok()) {
      DropInbound(fd);
      return;
    }
  }
  if (readable) {
    Status error;
    bool alive = ReadReady(conn, &error);
    while (auto msg = conn->decoder.Next()) {
      if (m_frames_in_ != nullptr) m_frames_in_->Increment();
      DispatchInbound(conn, *msg);
      // DispatchInbound drops the connection (erasing *conn) if the ack
      // write fails; re-resolve before touching it again.
      if (inbound_.find(fd) == inbound_.end()) return;
    }
    if (!alive) DropInbound(fd);
  }
}

void SocketTransport::DispatchInbound(Conn* conn, const Message& msg) {
  if (msg.type == MessageType::kAck) return;  // senders don't ack acks
  Status handled =
      inbound_endpoint_ != nullptr
          ? inbound_endpoint_->HandleMessage(msg)
          : Status::Unavailable("no inbound endpoint configured");
  if (msg.net_seq == 0) return;  // sender did not ask for correlation
  Message ack;
  ack.type = MessageType::kAck;
  ack.net_seq = msg.net_seq;
  ack.file_id = msg.file_id;
  ack.feed = msg.feed;
  ack.ack_code = static_cast<uint32_t>(handled.code());
  if (!handled.ok()) ack.name = std::string(handled.message());
  EnqueueFrame(conn, EncodeMessage(ack));
  Status s = FlushWrites(conn);
  if (!s.ok()) DropInbound(conn->fd);
}

void SocketTransport::DropInbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  loop_->UnwatchFd(fd);
  close(fd);
  it->second->fd = -1;
  inbound_.erase(it);
  ++disconnects_;
  if (m_disconnects_ != nullptr) m_disconnects_->Increment();
  if (m_connections_ != nullptr) m_connections_->Add(-1);
}

// ----------------------------------------------------------- metrics

void SocketTransport::AttachMetrics(MetricsRegistry* registry) {
  Transport::AttachMetrics(registry);
  m_connects_ = registry->GetCounter("bistro_net_connects_total",
                                     "Outbound TCP connections established");
  m_accepts_ = registry->GetCounter("bistro_net_accepts_total",
                                    "Inbound TCP connections accepted");
  m_disconnects_ = registry->GetCounter(
      "bistro_net_disconnects_total",
      "TCP connections closed (either side, any cause)");
  m_reconnects_ = registry->GetCounter("bistro_net_reconnects_total",
                                       "Reconnect attempts after backoff");
  m_acks_ = registry->GetCounter("bistro_net_acks_total",
                                 "Delivery acks matched to in-flight sends");
  m_ack_timeouts_ = registry->GetCounter(
      "bistro_net_ack_timeouts_total",
      "Connections dropped for exceeding ack_timeout");
  m_frames_in_ = registry->GetCounter("bistro_net_frames_in_total",
                                      "Protocol frames decoded from sockets");
  m_bytes_in_ = registry->GetCounter("bistro_net_bytes_in_total",
                                     "Bytes read from sockets");
  m_queue_rejects_ = registry->GetCounter(
      "bistro_net_queue_rejects_total",
      "Sends refused because the peer outbound queue was full");
  m_gate_rejects_ = registry->GetCounter(
      "bistro_net_gate_rejects_total",
      "Sends refused by the installed send gate (open circuit)");
  m_connections_ = registry->GetGauge("bistro_net_connections",
                                      "Established TCP connections");
  registry_ = registry;
  for (auto& [name, peer] : peers_) AttachPeerMetrics(name, &peer);
}

void SocketTransport::AttachPeerMetrics(const std::string& name, Peer* peer) {
  if (registry_ == nullptr || peer->m_peer_reconnects != nullptr) return;
  peer->m_peer_reconnects = registry_->GetCounter(
      "bistro_net_peer_" + name + "_reconnects_total",
      "Reconnect attempts toward peer " + name);
  peer->m_peer_disconnected_secs = registry_->GetGauge(
      "bistro_net_peer_" + name + "_disconnected_seconds",
      "Cumulative seconds peer " + name + " lacked a connection");
}

SocketTransport::PeerNetStats SocketTransport::GetPeerStats(
    const std::string& name) const {
  PeerNetStats stats;
  auto it = peers_.find(name);
  if (it == peers_.end()) return stats;
  const Peer& peer = it->second;
  const Conn* conn = peer.conn.get();
  stats.known = true;
  stats.connected = conn != nullptr && conn->fd >= 0 && !conn->connecting;
  stats.reconnect_attempts = peer.reconnect_attempts;
  stats.disconnected_total = peer.disconnected_total;
  if (peer.disconnected_since != 0) {
    stats.disconnected_total += loop_->Now() - peer.disconnected_since;
  }
  stats.last_ack_age =
      peer.last_ack_at == 0 ? -1 : loop_->Now() - peer.last_ack_at;
  stats.queued_bytes = conn != nullptr ? conn->outq_bytes : 0;
  stats.pending_acks = peer.pending.size();
  return stats;
}

std::vector<std::string> SocketTransport::PeerNames() const {
  std::vector<std::string> names;
  names.reserve(peers_.size());
  for (const auto& [name, peer] : peers_) names.push_back(name);
  return names;
}

}  // namespace bistro
