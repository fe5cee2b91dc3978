#include "federation/health.h"

#include <cstdio>
#include <set>
#include <sstream>

#include "federation/federation.h"

namespace bistro {

std::string_view PeerHealthName(PeerHealth health) {
  switch (health) {
    case PeerHealth::kHealthy:
      return "healthy";
    case PeerHealth::kSuspect:
      return "suspect";
    case PeerHealth::kDown:
      return "down";
    case PeerHealth::kProbation:
      return "probation";
  }
  return "unknown";
}

PeerHealthTracker::PeerHealthTracker(EventLoop* loop,
                                     SocketTransport* transport,
                                     Logger* logger)
    : loop_(loop), transport_(transport), logger_(logger) {}

PeerHealthTracker::~PeerHealthTracker() {
  *alive_ = false;
  // Detach from the transport: its own teardown (dropping live
  // connections) must not call back into a destroyed tracker.
  if (attached_) {
    transport_->SetPeerObserver(nullptr);
    transport_->SetSendGate(nullptr);
  }
}

void PeerHealthTracker::Track(const std::string& peer,
                              PeerHealthOptions options) {
  if (options.probe_interval <= 0) options.probe_interval = 5 * kSecond;
  if (options.suspect_after < 1) options.suspect_after = 1;
  if (options.down_after < options.suspect_after) {
    options.down_after = options.suspect_after;
  }
  if (options.probation_successes < 1) options.probation_successes = 1;
  Tracked& t = tracked_[peer];
  t.options = options;
  if (registry_ != nullptr && t.m_health == nullptr) {
    t.m_health = registry_->GetGauge(
        "bistro_peer_health_" + peer,
        "peer health state (0 healthy, 1 suspect, 2 down, 3 probation)");
  }
}

void PeerHealthTracker::Attach() {
  attached_ = true;
  transport_->SetPeerObserver(this);
  transport_->SetSendGate([this](const std::string& peer, const Message& msg) {
    return GateSend(peer, msg);
  });
}

void PeerHealthTracker::AttachMetrics(MetricsRegistry* registry) {
  registry_ = registry;
  m_transitions_ = registry->GetCounter("bistro_peer_health_transitions_total",
                                        "peer health state transitions");
  for (auto& [name, t] : tracked_) {
    if (t.m_health == nullptr) {
      t.m_health = registry->GetGauge(
          "bistro_peer_health_" + name,
          "peer health state (0 healthy, 1 suspect, 2 down, 3 probation)");
    }
  }
}

PeerHealth PeerHealthTracker::Health(const std::string& peer) const {
  auto it = tracked_.find(peer);
  return it == tracked_.end() ? PeerHealth::kHealthy : it->second.health;
}

Status PeerHealthTracker::GateSend(const std::string& peer,
                                   const Message& msg) {
  auto it = tracked_.find(peer);
  if (it == tracked_.end()) return Status::OK();
  // Heartbeats stay exempt so both this tracker's probes and the delivery
  // engine's offline probes can detect the heal while the circuit is open.
  if (it->second.health == PeerHealth::kDown &&
      msg.type != MessageType::kHeartbeat) {
    ++fast_fails_;
    return Status::Unavailable("peer " + peer + " is down (circuit open)");
  }
  return Status::OK();
}

void PeerHealthTracker::OnPeerConnectFailed(const std::string& peer,
                                            const Status& cause) {
  RecordFailure(peer, cause);
}

void PeerHealthTracker::OnPeerDisconnected(const std::string& peer,
                                           const Status& cause) {
  RecordFailure(peer, cause);
}

void PeerHealthTracker::OnPeerAckTimeout(const std::string& peer) {
  RecordFailure(peer, Status::Unavailable("ack timeout"));
}

void PeerHealthTracker::OnPeerAck(const std::string& peer, const Status&) {
  // Any matched ack — even one carrying a remote handler error — proves
  // the wire round trip works, which is all health tracks.
  RecordSuccess(peer);
}

void PeerHealthTracker::RecordFailure(const std::string& peer,
                                      const Status& cause) {
  auto it = tracked_.find(peer);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;
  ++t.consecutive_failures;
  t.probation_count = 0;
  switch (t.health) {
    case PeerHealth::kHealthy:
      if (t.consecutive_failures >= t.options.suspect_after) {
        Transition(peer, &t, PeerHealth::kSuspect);
      }
      [[fallthrough]];
    case PeerHealth::kSuspect:
      if (t.consecutive_failures >= t.options.down_after) {
        Transition(peer, &t, PeerHealth::kDown);
      }
      break;
    case PeerHealth::kProbation:
      // A recovering peer that fails again is not recovering.
      Transition(peer, &t, PeerHealth::kDown);
      break;
    case PeerHealth::kDown:
      break;
  }
  if (logger_ != nullptr && t.health != PeerHealth::kHealthy) {
    logger_->Debug("federation", "peer " + peer + " failure #" +
                                     std::to_string(t.consecutive_failures) +
                                     " (" + cause.message() + "), " +
                                     std::string(PeerHealthName(t.health)));
  }
}

void PeerHealthTracker::RecordSuccess(const std::string& peer) {
  auto it = tracked_.find(peer);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;
  t.consecutive_failures = 0;
  switch (t.health) {
    case PeerHealth::kHealthy:
      break;
    case PeerHealth::kSuspect:
      Transition(peer, &t, PeerHealth::kHealthy);
      break;
    case PeerHealth::kDown:
      t.probation_count = 1;
      Transition(peer, &t, PeerHealth::kProbation);
      if (t.probation_count >= t.options.probation_successes) {
        Transition(peer, &t, PeerHealth::kHealthy);
      }
      break;
    case PeerHealth::kProbation:
      ++t.probation_count;
      if (t.probation_count >= t.options.probation_successes) {
        Transition(peer, &t, PeerHealth::kHealthy);
      }
      break;
  }
}

void PeerHealthTracker::Transition(const std::string& peer, Tracked* t,
                                   PeerHealth to) {
  PeerHealth from = t->health;
  if (from == to) return;
  t->health = to;
  ++transitions_;
  if (m_transitions_ != nullptr) m_transitions_->Increment();
  if (t->m_health != nullptr) t->m_health->Set(static_cast<int64_t>(to));
  if (logger_ != nullptr) {
    LogLevel level = to == PeerHealth::kDown ? LogLevel::kWarning
                                             : LogLevel::kInfo;
    logger_->Log(level, "federation",
                 "peer " + peer + ": " + std::string(PeerHealthName(from)) +
                     " -> " + std::string(PeerHealthName(to)));
  }
  if (to != PeerHealth::kHealthy) ScheduleProbe(peer, t);
  if (on_transition_) on_transition_(peer, from, to);
}

void PeerHealthTracker::ScheduleProbe(const std::string& peer, Tracked* t) {
  if (t->probe_scheduled) return;
  t->probe_scheduled = true;
  std::weak_ptr<bool> alive = alive_;
  loop_->PostAfter(t->options.probe_interval, [this, alive, peer] {
    auto token = alive.lock();
    if (token == nullptr || !*token) return;
    ProbeTick(peer);
  });
}

void PeerHealthTracker::ProbeTick(const std::string& peer) {
  auto it = tracked_.find(peer);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;
  t.probe_scheduled = false;
  if (t.health == PeerHealth::kHealthy) return;  // probes stop on recovery
  if (!t.probe_inflight) {
    t.probe_inflight = true;
    Message probe;
    probe.type = MessageType::kHeartbeat;
    std::weak_ptr<bool> alive = alive_;
    // The completion callback records NOTHING: every piece of evidence a
    // probe produces (ack, ack timeout, drop) already arrives through the
    // observer, and counting it here too would double-weigh failures.
    transport_->Send(peer, probe, [this, alive, peer](const Status&) {
      auto token = alive.lock();
      if (token == nullptr || !*token) return;
      auto pit = tracked_.find(peer);
      if (pit != tracked_.end()) pit->second.probe_inflight = false;
    });
  }
  ScheduleProbe(peer, &t);
}

// --------------------------------------------------------------------------
// FederationRuntime

FederationRuntime::FederationRuntime(BistroServer* server,
                                     SocketTransport* transport,
                                     EventLoop* loop, Logger* logger)
    : server_(server),
      transport_(transport),
      logger_(logger),
      tracker_(loop, transport, logger) {}

Status FederationRuntime::Start(const ServerConfig& config) {
  BISTRO_RETURN_IF_ERROR(WirePeers(config, server_, transport_, logger_));
  for (const auto& peer : config.peers) {
    std::vector<FeedName> feeds = PeerFeeds(config, peer);
    base_feeds_[peer.name] = feeds;
    windows_[peer.name] = peer.window;
    PeerHealthOptions opts;
    if (peer.probe_interval) opts.probe_interval = *peer.probe_interval;
    if (peer.suspect_after) opts.suspect_after = *peer.suspect_after;
    if (peer.down_after) opts.down_after = *peer.down_after;
    tracker_.Track(peer.name, opts);
    if (!peer.failover.empty()) {
      routes_[peer.name] = Route{std::move(feeds), peer.failover, false};
    }
  }
  if (server_->metrics() != nullptr) {
    tracker_.AttachMetrics(server_->metrics());
  }
  tracker_.SetTransitionHandler(
      [this](const std::string& peer, PeerHealth from, PeerHealth to) {
        OnTransition(peer, from, to);
      });
  tracker_.Attach();
  return Status::OK();
}

void FederationRuntime::OnTransition(const std::string& peer, PeerHealth,
                                     PeerHealth to) {
  auto it = routes_.find(peer);
  if (it == routes_.end()) return;
  if (to == PeerHealth::kDown && !it->second.failed_over) {
    ActivateFailover(peer, &it->second);
  } else if (to == PeerHealth::kHealthy && it->second.failed_over) {
    DeactivateFailover(peer, &it->second);
  }
}

void FederationRuntime::ActivateFailover(const std::string& primary,
                                         Route* route) {
  const std::string& replica = route->failover;
  // The replica now carries its own feeds plus the primary's.
  std::set<FeedName> merged(route->feeds.begin(), route->feeds.end());
  auto bit = base_feeds_.find(replica);
  if (bit != base_feeds_.end()) {
    merged.insert(bit->second.begin(), bit->second.end());
  }
  SubscriberSpec spec;
  spec.name = replica;
  spec.host = replica;
  spec.feeds = {merged.begin(), merged.end()};
  spec.method = DeliveryMethod::kPush;
  auto wit = windows_.find(replica);
  spec.window = wit != windows_.end() ? wit->second : 0;

  Status status;
  if (server_->registry()->FindSubscriber(replica) != nullptr) {
    status = server_->UpdateSubscriber(spec);
  } else {
    // A pure standby (no feeds of its own) was never registered as a
    // subscriber by WirePeers; registering it now also backfills.
    status = server_->AddSubscriber(spec);
  }
  if (!status.ok()) {
    if (logger_ != nullptr) {
      logger_->Error("federation", "failover " + primary + " -> " + replica +
                                       " failed: " + status.message());
    }
    return;
  }
  ++failovers_;
  route->failed_over = true;
  if (logger_ != nullptr) {
    logger_->Alarm("federation",
                   "peer " + primary + " down; re-routing " +
                       std::to_string(route->feeds.size()) + " feeds to " +
                       replica);
  }
  // Files already queued (or receipted-but-undelivered) toward the dead
  // primary are re-offered to the replica. Overlap with what the primary
  // already has — or will receive again after recovery — is absorbed by
  // the downstream arrival-receipt dedupe.
  server_->delivery()->RerouteUndelivered(primary, replica);
}

void FederationRuntime::DeactivateFailover(const std::string& primary,
                                           Route* route) {
  const std::string& replica = route->failover;
  SubscriberSpec spec;
  spec.name = replica;
  spec.host = replica;
  auto bit = base_feeds_.find(replica);
  if (bit != base_feeds_.end()) spec.feeds = bit->second;
  spec.method = DeliveryMethod::kPush;
  auto wit = windows_.find(replica);
  spec.window = wit != windows_.end() ? wit->second : 0;

  Status status = server_->UpdateSubscriber(spec);
  if (!status.ok() && logger_ != nullptr) {
    logger_->Error("federation", "failback " + primary + " <- " + replica +
                                     " failed: " + status.message());
    return;
  }
  ++failbacks_;
  route->failed_over = false;
  if (logger_ != nullptr) {
    logger_->Info("federation",
                  "peer " + primary + " recovered; " + replica +
                      " restored to its own feeds (primary catches up via "
                      "backfill)");
  }
}

std::string FederationRuntime::RenderPeers() const {
  std::ostringstream out;
  out << "peer                 health     conn  reconn  down_secs  "
         "last_ack   queued_b  pending\n";
  for (const auto& name : transport_->PeerNames()) {
    SocketTransport::PeerNetStats stats = transport_->GetPeerStats(name);
    char line[256];
    std::string ack_age = "never";
    if (stats.last_ack_age >= 0) {
      ack_age = std::to_string(stats.last_ack_age / kMillisecond) + "ms";
    }
    std::string health(PeerHealthName(tracker_.Health(name)));
    auto rit = routes_.find(name);
    if (rit != routes_.end() && rit->second.failed_over) {
      health += "*";  // feeds currently re-routed to the failover peer
    }
    std::snprintf(line, sizeof(line),
                  "%-20s %-10s %-5s %-7llu %-10lld %-10s %-9zu %zu\n",
                  name.c_str(), health.c_str(),
                  stats.connected ? "yes" : "no",
                  static_cast<unsigned long long>(stats.reconnect_attempts),
                  static_cast<long long>(stats.disconnected_total / kSecond),
                  ack_age.c_str(), stats.queued_bytes, stats.pending_acks);
    out << line;
  }
  for (const auto& [primary, route] : routes_) {
    out << "failover: " << primary << " -> " << route.failover
        << (route.failed_over ? " (ACTIVE)" : " (standby)") << "\n";
  }
  return out.str();
}

}  // namespace bistro
