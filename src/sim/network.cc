#include "sim/network.h"

#include <algorithm>

namespace bistro {

void SimNetwork::AttachMetrics(MetricsRegistry* registry) {
  transfers_ = registry->GetCounter("bistro_simnet_transfers_total",
                                    "Transfers scheduled on simulated links");
  failures_ = registry->GetCounter(
      "bistro_simnet_failures_total",
      "Transfers rejected (offline/unknown link) or failed in flight");
  bytes_counter_ = registry->GetCounter("bistro_simnet_bytes_total",
                                        "Bytes scheduled on simulated links");
  duration_hist_ = registry->GetHistogram(
      "bistro_simnet_transfer_duration_us",
      "Per-transfer wire time including link queueing");
}

void SimNetwork::SetLink(const std::string& subscriber, LinkSpec spec) {
  links_[subscriber].spec = spec;
}

void SimNetwork::SetOnline(const std::string& subscriber, bool online) {
  auto it = links_.find(subscriber);
  if (it != links_.end()) it->second.online = online;
}

void SimNetwork::DegradeLink(const std::string& subscriber, double factor) {
  auto it = links_.find(subscriber);
  if (it == links_.end() || factor <= 0) return;
  LinkSpec& spec = it->second.spec;
  spec.bandwidth_bytes_per_sec = std::max<uint64_t>(
      1, static_cast<uint64_t>(spec.bandwidth_bytes_per_sec / factor));
  spec.latency = static_cast<Duration>(spec.latency * factor);
}

bool SimNetwork::IsOnline(const std::string& subscriber) const {
  auto it = links_.find(subscriber);
  return it != links_.end() && it->second.online;
}

Result<Duration> SimNetwork::TransferDuration(const std::string& subscriber,
                                              uint64_t bytes) const {
  auto it = links_.find(subscriber);
  if (it == links_.end()) {
    return Status::Unavailable("no link to subscriber: " + subscriber);
  }
  const LinkSpec& spec = it->second.spec;
  uint64_t bw = std::max<uint64_t>(spec.bandwidth_bytes_per_sec, 1);
  Duration serialization =
      static_cast<Duration>((static_cast<double>(bytes) / bw) * kSecond);
  return spec.latency + serialization;
}

Result<TimePoint> SimNetwork::ScheduleTransfer(const std::string& subscriber,
                                               uint64_t bytes, TimePoint now) {
  auto it = links_.find(subscriber);
  if (it == links_.end()) {
    if (failures_ != nullptr) failures_->Increment();
    return Status::Unavailable("no link to subscriber: " + subscriber);
  }
  Link& link = it->second;
  if (!link.online) {
    if (failures_ != nullptr) failures_->Increment();
    return Status::Unavailable("subscriber offline: " + subscriber);
  }
  TimePoint start = std::max(now, link.busy_until);
  if (rng_->Bernoulli(link.spec.failure_prob)) {
    // A failed attempt still burns the setup latency on the link.
    link.busy_until = start + link.spec.latency;
    if (failures_ != nullptr) failures_->Increment();
    return Status::IoError("transfer failed to: " + subscriber);
  }
  BISTRO_ASSIGN_OR_RETURN(Duration d, TransferDuration(subscriber, bytes));
  TimePoint completion;
  if (pipelined_acks_) {
    // Link is held for serialization only; the ack returns one propagation
    // latency after the last byte leaves. Successive windowed sends thus
    // overlap their latencies instead of queueing behind them.
    Duration serialization = d - link.spec.latency;
    link.busy_until = start + serialization;
    completion = link.busy_until + link.spec.latency;
  } else {
    link.busy_until = start + d;
    completion = link.busy_until;
  }
  link.bytes_sent += bytes;
  if (transfers_ != nullptr) {
    transfers_->Increment();
    bytes_counter_->Increment(bytes);
    duration_hist_->Record(completion - now);
  }
  return completion;
}

uint64_t SimNetwork::BytesSent(const std::string& subscriber) const {
  auto it = links_.find(subscriber);
  return it == links_.end() ? 0 : it->second.bytes_sent;
}

}  // namespace bistro
