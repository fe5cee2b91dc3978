#ifndef BISTRO_SIM_NETWORK_H_
#define BISTRO_SIM_NETWORK_H_

#include <map>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace bistro {

/// Capacity and reliability of the network path to one subscriber.
struct LinkSpec {
  uint64_t bandwidth_bytes_per_sec = 100 * 1000 * 1000;  // ~1 Gbit/s
  Duration latency = 10 * kMillisecond;                  // per transfer setup
  double failure_prob = 0.0;  // chance one transfer attempt fails

  static LinkSpec Fast() { return LinkSpec{}; }
  static LinkSpec Slow() {
    return LinkSpec{1 * 1000 * 1000, 50 * kMillisecond, 0.0};
  }
  static LinkSpec Flaky(double p) {
    LinkSpec l;
    l.failure_prob = p;
    return l;
  }
};

/// Simulated network connecting a Bistro server to its subscribers
/// (substitute for the paper's production WAN; see DESIGN.md §2).
///
/// Each subscriber has one serial link: concurrent transfers to the same
/// subscriber queue behind each other (busy-until tracking), which models
/// the per-subscriber bandwidth constraint of §4.3. Links can be marked
/// offline to model subscriber failures.
class SimNetwork {
 public:
  explicit SimNetwork(Rng* rng) : rng_(rng) {}

  /// Pipelined-ack link model (off by default, preserving the legacy
  /// lockstep timing). When on, a transfer occupies the link only for its
  /// serialization time — the sender can push the next frame as soon as
  /// the last byte of the previous one leaves — while the completion
  /// (ack) still arrives a full propagation latency later. This is what
  /// lets a windowed sender overlap latency: with the legacy model the
  /// link is held for latency + serialization, so back-to-back sends
  /// serialize on latency no matter the window.
  void SetPipelinedAcks(bool on) { pipelined_acks_ = on; }
  bool pipelined_acks() const { return pipelined_acks_; }

  /// Registers WAN-level counters (transfers, failures, bytes) and a
  /// per-transfer duration histogram in `registry`. Optional.
  void AttachMetrics(MetricsRegistry* registry);

  void SetLink(const std::string& subscriber, LinkSpec spec);

  void SetOnline(const std::string& subscriber, bool online);
  bool IsOnline(const std::string& subscriber) const;

  /// Degrades a link by `factor` (>1): bandwidth is divided and latency
  /// multiplied by it. Models brownouts / congested paths in fault plans;
  /// factor <= 1 restores nothing special, it just applies the math.
  void DegradeLink(const std::string& subscriber, double factor);

  /// Reserves the link for a transfer of `bytes` starting no earlier than
  /// `now`; returns the completion time. Errors: Unavailable if the link
  /// is offline or unknown; IoError (with probability failure_prob) for a
  /// transient failure, which still occupies the link for the latency.
  Result<TimePoint> ScheduleTransfer(const std::string& subscriber,
                                     uint64_t bytes, TimePoint now);

  /// Time a transfer would take on an idle link (latency + serialization).
  Result<Duration> TransferDuration(const std::string& subscriber,
                                    uint64_t bytes) const;

  /// Total bytes successfully scheduled per subscriber.
  uint64_t BytesSent(const std::string& subscriber) const;

 private:
  struct Link {
    LinkSpec spec;
    bool online = true;
    TimePoint busy_until = 0;
    uint64_t bytes_sent = 0;
  };

  Rng* rng_;
  bool pipelined_acks_ = false;
  std::map<std::string, Link> links_;
  Counter* transfers_ = nullptr;
  Counter* failures_ = nullptr;
  Counter* bytes_counter_ = nullptr;
  Histogram* duration_hist_ = nullptr;
};

}  // namespace bistro

#endif  // BISTRO_SIM_NETWORK_H_
