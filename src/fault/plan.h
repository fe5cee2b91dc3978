#ifndef BISTRO_FAULT_PLAN_H_
#define BISTRO_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/syntax.h"
#include "common/time.h"

namespace bistro {

/// Filesystem fault probabilities (per mutating operation).
struct VfsFaultSpec {
  /// A WriteFile/AppendFile fails cleanly: nothing lands, IoError.
  double write_error_prob = 0.0;
  /// A WriteFile/AppendFile lands a torn prefix, then reports IoError —
  /// the failure mode the WAL's CRC framing exists for.
  double torn_write_prob = 0.0;
  /// A Sync reports IoError (the data stays volatile).
  double sync_error_prob = 0.0;
  /// Only paths with this prefix are injected ("" = everything). Lets a
  /// plan target the receipt database without starving the landing zone.
  std::string scope;

  bool operator==(const VfsFaultSpec&) const = default;
};

/// One scheduled link outage: the endpoint goes offline at `down_at` and
/// heals at `up_at` (simulation time).
struct LinkFlap {
  std::string endpoint;
  TimePoint down_at = 0;
  TimePoint up_at = 0;

  bool operator==(const LinkFlap&) const = default;
};

/// Permanent link degradation: bandwidth / factor, latency * factor.
struct LinkDegrade {
  std::string endpoint;
  double factor = 1.0;

  bool operator==(const LinkDegrade&) const = default;
};

/// One scheduled fault on the link between two named transport parties
/// (real sockets, applied by PartitionableTransport; see fault/partition.h).
///
///   partition  severs the link both ways at `at`: established relays
///              close and new connections are accepted-then-closed, so
///              the sender sees resets and reconnect failures.
///   blackhole  silently discards bytes flowing `from` -> `to` from `at`
///              on; connections stay up, so the sender only learns via
///              ack timeouts — the half-open failure mode.
///   slow_link  adds `delay` to every forwarded chunk (both directions).
struct LinkFault {
  enum class Kind { kPartition, kBlackhole, kSlowLink };
  Kind kind = Kind::kPartition;
  std::string from;
  std::string to;
  Duration delay = 0;  // kSlowLink only
  TimePoint at = 0;

  bool operator==(const LinkFault&) const = default;
};

/// Scheduled heal of every fault on the `from`/`to` link at `at`.
struct LinkHeal {
  std::string from;
  std::string to;
  TimePoint at = 0;

  bool operator==(const LinkHeal&) const = default;
};

/// Network fault probabilities (per send) and scheduled link events.
struct NetFaultSpec {
  /// A send fails before reaching the wire (transient IoError).
  double send_failure_prob = 0.0;
  /// A kFileData payload is corrupted in flight (one byte flipped); the
  /// frame CRC is recomputed so only the end-to-end payload CRC catches it.
  double corrupt_prob = 0.0;
  /// Delivery succeeds but the acknowledgement is lost: the endpoint
  /// handles the message, the sender sees IoError and will redeliver —
  /// the case receipt/endpoint dedupe must absorb.
  double ack_loss_prob = 0.0;
  std::vector<LinkFlap> flaps;
  std::vector<LinkDegrade> degrades;
  std::vector<LinkFault> link_faults;
  std::vector<LinkHeal> link_heals;

  bool operator==(const NetFaultSpec&) const = default;
};

/// A complete, deterministic fault-injection plan. The same plan + seed
/// reproduces the same fault sequence byte-for-byte.
///
/// Syntax (config-style; see DESIGN.md §8):
///
///   fault_plan {
///     seed 42;
///     vfs {
///       write_error 0.02; torn_write 0.01; sync_error 0.005;
///       scope "/bistro/db";
///     }
///     net {
///       send_failure 0.1; corrupt 0.03; ack_loss 0.01;
///       flap "sub0" down 10m up 35m;
///       degrade "sub1" 4.0;
///       partition "up" "down" at 2s;
///       blackhole "down" "up" at 2s;
///       slow_link "up" "down" 200ms at 0s;
///       heal "up" "down" at 6s;
///     }
///   }
struct FaultPlan {
  uint64_t seed = 1;
  VfsFaultSpec vfs;
  NetFaultSpec net;

  bool operator==(const FaultPlan&) const = default;
};

/// Parses the fault-plan syntax above.
Result<FaultPlan> ParseFaultPlan(std::string_view text);

/// Emits a plan in the syntax ParseFaultPlan accepts (round-trips).
std::string FormatFaultPlan(const FaultPlan& plan);

/// The `fault_plan { }` block's keys, as ParseFaultPlan declares them.
syntax::BlockDoc FaultPlanSchema();

}  // namespace bistro

#endif  // BISTRO_FAULT_PLAN_H_
