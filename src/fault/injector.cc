#include "fault/injector.h"

namespace bistro {

FaultInjector::FaultInjector(FaultPlan plan, MetricsRegistry* metrics)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  vfs_write_errors_ =
      metrics->GetCounter("bistro_fault_vfs_write_errors_total",
                          "Injected clean write failures");
  vfs_torn_writes_ = metrics->GetCounter("bistro_fault_vfs_torn_writes_total",
                                         "Injected torn (partial) writes");
  vfs_sync_errors_ = metrics->GetCounter("bistro_fault_vfs_sync_errors_total",
                                         "Injected fsync failures");
  net_send_failures_ =
      metrics->GetCounter("bistro_fault_net_send_failures_total",
                          "Injected transient send failures");
  net_corruptions_ = metrics->GetCounter("bistro_fault_net_corruptions_total",
                                         "Injected payload corruptions");
  net_ack_losses_ = metrics->GetCounter("bistro_fault_net_ack_losses_total",
                                        "Injected acknowledgement losses");
  link_flaps_ = metrics->GetCounter("bistro_fault_link_flaps_total",
                                    "Scheduled link down transitions fired");
}

bool FaultInjector::InScope(const std::string& path) const {
  const std::string& scope = plan_.vfs.scope;
  return scope.empty() || path.compare(0, scope.size(), scope) == 0;
}

bool FaultInjector::Fire(double prob, Counter* counter) {
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (!rng_.Bernoulli(prob)) return false;
  }
  counter->Increment();
  return true;
}

bool FaultInjector::InjectWriteError(const std::string& path) {
  return InScope(path) && Fire(plan_.vfs.write_error_prob, vfs_write_errors_);
}

bool FaultInjector::InjectTornWrite(const std::string& path) {
  return InScope(path) && Fire(plan_.vfs.torn_write_prob, vfs_torn_writes_);
}

bool FaultInjector::InjectSyncError(const std::string& path) {
  return InScope(path) && Fire(plan_.vfs.sync_error_prob, vfs_sync_errors_);
}

bool FaultInjector::InjectSendFailure(const std::string&) {
  return Fire(plan_.net.send_failure_prob, net_send_failures_);
}

bool FaultInjector::InjectCorruption(const std::string&) {
  return Fire(plan_.net.corrupt_prob, net_corruptions_);
}

bool FaultInjector::InjectAckLoss(const std::string&) {
  return Fire(plan_.net.ack_loss_prob, net_ack_losses_);
}

void FaultInjector::CorruptPayload(std::string* payload) {
  if (payload->empty()) return;
  size_t at = 0;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    at = static_cast<size_t>(rng_.Uniform(payload->size()));
  }
  // XOR with a nonzero mask guarantees the byte actually changes.
  (*payload)[at] = static_cast<char>((*payload)[at] ^ 0x5A);
}

void FaultInjector::Arm(EventLoop* loop, SimNetwork* network) {
  for (const LinkDegrade& d : plan_.net.degrades) {
    network->DegradeLink(d.endpoint, d.factor);
  }
  for (const LinkFlap& f : plan_.net.flaps) {
    loop->PostAt(f.down_at, [this, network, endpoint = f.endpoint] {
      link_flaps_->Increment();
      network->SetOnline(endpoint, false);
    });
    loop->PostAt(f.up_at, [network, endpoint = f.endpoint] {
      network->SetOnline(endpoint, true);
    });
  }
}

uint64_t FaultInjector::injected() const {
  return vfs_write_errors_->value() + vfs_torn_writes_->value() +
         vfs_sync_errors_->value() + net_send_failures_->value() +
         net_corruptions_->value() + net_ack_losses_->value() +
         link_flaps_->value();
}

}  // namespace bistro
