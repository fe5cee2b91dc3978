#ifndef BISTRO_FAULT_INJECTOR_H_
#define BISTRO_FAULT_INJECTOR_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace bistro {

/// Central fault decision-maker: owns the plan, a dedicated Rng seeded
/// from it, and the injection counters. FaultyFileSystem and
/// FaultyTransport consult it per operation; Arm() schedules the plan's
/// link flaps and applies degradations. One injector + one seed =>
/// one reproducible fault sequence. Thread-safe: ingest workers, the
/// receipt thread and the loop thread all draw from the one Rng.
class FaultInjector {
 public:
  /// `metrics` may be null: the injector then owns a private registry so
  /// the counters always exist (mirrors DeliveryEngine).
  explicit FaultInjector(FaultPlan plan, MetricsRegistry* metrics = nullptr);

  const FaultPlan& plan() const { return plan_; }

  /// Applies the plan's scheduled network events: degradations now, flap
  /// down/up transitions posted on the loop. Call once after links exist.
  void Arm(EventLoop* loop, SimNetwork* network);

  // ------------------------------------------------- per-op decisions
  /// Each returns true when the fault fires (and counts it). Path-scoped
  /// vfs decisions return false outside the plan's scope.
  bool InjectWriteError(const std::string& path);
  bool InjectTornWrite(const std::string& path);
  bool InjectSyncError(const std::string& path);
  bool InjectSendFailure(const std::string& endpoint);
  bool InjectCorruption(const std::string& endpoint);
  bool InjectAckLoss(const std::string& endpoint);

  /// Flips one random byte of `payload` (no-op on empty payloads).
  void CorruptPayload(std::string* payload);

  /// Total faults injected so far (all kinds).
  uint64_t injected() const;

 private:
  bool InScope(const std::string& path) const;
  /// One Bernoulli(`prob`) draw under the Rng lock; counts a fired fault.
  bool Fire(double prob, Counter* counter);

  FaultPlan plan_;
  std::mutex rng_mu_;
  Rng rng_;  // guarded by rng_mu_
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* vfs_write_errors_;
  Counter* vfs_torn_writes_;
  Counter* vfs_sync_errors_;
  Counter* net_send_failures_;
  Counter* net_corruptions_;
  Counter* net_ack_losses_;
  Counter* link_flaps_;
};

}  // namespace bistro

#endif  // BISTRO_FAULT_INJECTOR_H_
