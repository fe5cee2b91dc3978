#ifndef BISTRO_CONFIG_SPEC_H_
#define BISTRO_CONFIG_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "pattern/normalizer.h"

namespace bistro {

/// Default tardiness bound: delivery deadline = arrival + tardiness.
constexpr Duration kDefaultTardiness = kMinute;

/// One data feed definition (paper §3.1 "Data Feeds").
///
/// Feeds live in a hierarchy expressed by their dotted full name
/// ("SNMP.CPU.POLLER1"); groups are name prefixes, so subscribing to
/// "SNMP.CPU" covers every feed beneath it.
struct FeedSpec {
  FeedName name;              // full dotted name
  std::string pattern;        // primary Bistro pattern for member filenames
  /// Alternative patterns also belonging to the feed. Real feeds change
  /// naming conventions over their lifetime (§2.1.3); rather than editing
  /// the primary pattern (and breaking old files), approved analyzer
  /// suggestions are appended here. The primary pattern's field layout
  /// drives normalization; alternates are classification-only.
  std::vector<std::string> alt_patterns;
  NormalizeSpec normalize;    // rename + compression policy
  Duration tardiness = kDefaultTardiness;  // delivery deadline bound

  bool operator==(const FeedSpec&) const = default;
};

/// How end-of-batch events are produced for a subscriber's trigger
/// (paper §2.3, §4.1).
struct BatchSpec {
  enum class Mode {
    kPerFile,      // trigger on every delivered file
    kCount,        // trigger after N files of one data interval
    kTime,         // trigger when a batch has spanned `timeout`
    kCountOrTime,  // whichever comes first (the paper's recommended combo)
    kPunctuation,  // trigger on source-provided end-of-batch markers
  };
  Mode mode = Mode::kPerFile;
  int count = 0;          // for kCount / kCountOrTime
  Duration timeout = 0;   // for kTime / kCountOrTime

  bool operator==(const BatchSpec&) const = default;
};

/// Subscriber notification hook (paper §3.1 "Notifications and triggers").
struct TriggerSpec {
  BatchSpec batch;
  std::string command;  // program to invoke; empty = no trigger
  bool remote = false;  // run on subscriber host (true) or locally (false)

  bool operator==(const TriggerSpec&) const = default;
};

/// How feed files reach a subscriber.
enum class DeliveryMethod {
  kPush,    // Bistro transmits file contents
  kNotify,  // hybrid push-pull: Bistro pushes a notification; the
            // subscriber retrieves the data at a time of its choosing
};

/// One subscriber definition (paper §3.1 "Subscribers").
struct SubscriberSpec {
  SubscriberName name;
  std::string host;         // transport endpoint identifier
  std::string destination;  // directory on the subscriber side
  std::vector<FeedName> feeds;  // feeds or feed groups of interest
  DeliveryMethod method = DeliveryMethod::kPush;
  TriggerSpec trigger;
  Duration window = 0;  // history this subscriber wants on subscribe (0 = all)

  bool operator==(const SubscriberSpec&) const = default;
};

/// A subscriber *group* (the config's `group <name> { feeds; members; }`
/// form): many endpoints that share ONE delivery identity. The server
/// schedules, dedupes and receipts the group as a single subscriber —
/// one delivery cursor, one pending entry, one receipt row per file —
/// and a local group relay re-fans each accepted file out to the
/// members. Distinguished from a feed-hierarchy `group { feed ...; }`
/// block by its attributes (members/feeds vs. nested feed definitions).
struct GroupSpec {
  SubscriberName name;          // the shared delivery identity
  std::vector<FeedName> feeds;  // feeds or feed groups of interest
  std::vector<std::string> members;  // member endpoint identifiers
  Duration window = 0;          // history wanted on subscribe (0 = all)
  /// Consecutive member failures before the relay stops holding the
  /// group ack for that member and moves it to straggler catch-up.
  std::optional<int> straggler_after;

  bool operator==(const GroupSpec&) const = default;
};

/// A dissemination relay (the config's `relay <name> { ... }` block):
/// one upstream send re-fans out to `children` endpoints, composing
/// with federation (children may be peers) so one upstream transmission
/// serves a downstream tree. The relay acks upstream only after the
/// message is durably spooled; forwarding then proceeds asynchronously
/// with retries, and downstream receipt/FileId dedupe absorbs replays.
struct RelaySpec {
  std::string name;                   // also the relay's endpoint name
  std::vector<std::string> children;  // downstream endpoint identifiers
  std::string spool;                  // durable spool directory
  std::optional<Duration> retry_backoff;
  std::optional<int> max_attempts;

  bool operator==(const RelaySpec&) const = default;
};

/// Receipt-store tuning (the config's `receipts { ... }` block). Every
/// field is optional, mirroring the other tuning blocks.
struct ReceiptTuningSpec {
  /// Hash-sharded WAL segments: receipt rows partition across this many
  /// independent KvStores, each group commit fsyncing only the shards it
  /// touched. 1 (default) = the seed's single-store layout, bit-compatible.
  std::optional<int> shards;

  bool operator==(const ReceiptTuningSpec&) const = default;
};

/// The config's `classifier { ... }` block: which filename-lookup
/// strategy the server uses (see FeedClassifier::IndexMode).
struct ClassifierTuningSpec {
  /// "automaton" (default: the whole feed table compiled into one fused
  /// DFA), "trie" (literal-prefix index) or "linear" (scan every feed).
  std::optional<std::string> mode;

  bool operator==(const ClassifierTuningSpec&) const = default;
};

/// Server-wide delivery/retry tuning (the config's `delivery { ... }`
/// block). Every field is optional: unset fields keep the engine's
/// compiled-in defaults, so configs written before a knob existed keep
/// their exact behavior.
struct DeliveryTuningSpec {
  std::optional<Duration> retry_backoff_min;  // key: retry_backoff[_min]
  std::optional<Duration> retry_backoff_max;
  std::optional<double> retry_multiplier;
  std::optional<bool> retry_jitter;           // on/off
  std::optional<int> max_attempts;
  std::optional<int> offline_after;
  std::optional<Duration> probe_interval;
  /// Pipelined per-subscriber send window (0 = unlimited, 1 = lockstep).
  std::optional<int> window;
  /// Coalesce small same-subscriber push files into one frame up to this
  /// many payload bytes (0 = off).
  std::optional<int64_t> coalesce_bytes;
  /// Staged-payload LRU cache byte budget (0 = no retention).
  std::optional<int64_t> cache_bytes;
  /// Delivery receipts per group commit (1 = immediate per-ack writes).
  std::optional<int> receipt_group;
  /// Max time a buffered delivery receipt waits for its group to fill.
  std::optional<Duration> receipt_flush_interval;

  bool operator==(const DeliveryTuningSpec&) const = default;
};

/// Ingest-pipeline tuning (the config's `ingest { ... }` block). Every
/// field is optional, mirroring DeliveryTuningSpec: unset keys keep the
/// pipeline's compiled-in defaults.
struct IngestTuningSpec {
  /// Normalize/compress worker threads. 0 = synchronous inline ingest
  /// (the deterministic default used under simulation).
  std::optional<int> workers;
  /// Bound on files queued inside the pipeline before the overload
  /// policy engages.
  std::optional<int> queue_depth;
  /// Max arrival receipts committed per group (one fsync per group).
  std::optional<int> batch;
  /// "block", "shed_oldest" or "spill" (validated at parse time).
  std::optional<std::string> overload_policy;

  bool operator==(const IngestTuningSpec&) const = default;
};

/// Feed-analyzer tuning (the config's `analyzer { ... }` block). Every
/// field is optional, mirroring the delivery/ingest blocks: unset keys
/// keep the daemon's compiled-in defaults.
struct AnalyzerTuningSpec {
  /// Worker threads folding/inducing corpus shards. 0 = inline
  /// deterministic analysis (results are identical either way).
  std::optional<int> workers;
  /// Retention budget: unmatched names kept for analysis, oldest shed
  /// first once exceeded (bounds analyzer memory, not correctness).
  std::optional<int> max_corpus;
  /// Stem-keyed corpus shards (the unit of fold/induce parallelism).
  std::optional<int> shards;
  /// Analysis cycle cadence.
  std::optional<Duration> cycle_interval;

  bool operator==(const AnalyzerTuningSpec&) const = default;
};

/// This server's network identity and socket-transport tuning (the
/// config's `server { ... }` block). Every tuning field is optional,
/// mirroring the other tuning blocks: unset keys keep the transport's
/// compiled-in defaults.
struct ServerNetSpec {
  /// "ip:port" to accept Bistro-to-Bistro connections on; empty = this
  /// server does not listen (outbound-only or purely local).
  std::string listen;
  /// Bound on a single inbound frame body (bytes).
  std::optional<int64_t> max_frame_bytes;
  /// Per-peer outbound queue cap (bytes) before sends fail with
  /// backpressure.
  std::optional<int64_t> outbound_queue_bytes;
  /// Reconnect backoff envelope (decorrelated jitter between them).
  std::optional<Duration> reconnect_backoff_min;
  std::optional<Duration> reconnect_backoff_max;
  /// Unacked sends older than this fail and drop the connection.
  std::optional<Duration> ack_timeout;

  bool operator==(const ServerNetSpec&) const = default;
};

/// A downstream Bistro server fed over the socket transport (the
/// config's `peer <name> { ... }` block) — paper Fig. 1's
/// server-feeds-server topology. A peer is registered as a push
/// subscriber whose endpoint is a TCP address; exactly-once handoff
/// rides the ordinary receipt machinery.
struct PeerSpec {
  std::string name;     // also the subscriber name upstream
  std::string address;  // "ip:port" of the peer's `server { listen; }`
  /// Feeds routed to this peer. Empty = route by sharding (below), or
  /// every feed when no sharding is set either.
  std::vector<FeedName> feeds;
  /// `shard <index> of <count>;` — feeds hash-partitioned by name across
  /// a fleet of count peers; this peer takes partition `index`.
  /// shard_count == 0 means sharding is off.
  int shard_index = -1;
  int shard_count = 0;
  /// `replicas <n>;` — with sharding, this peer carries its own shard
  /// plus the next n-1 shards (wrapping), so every feed reaches n peers
  /// and any single peer's data survives on a neighbor. 1 = plain
  /// sharding. Requires sharding; must not exceed shard_count.
  int replicas = 1;
  /// `failover <peer>;` — when this peer's health reaches `down`, its
  /// feeds re-route to the named peer until this one recovers. Must name
  /// another configured peer.
  std::string failover;
  /// Health state machine tuning (unset keys keep compiled-in defaults):
  /// keepalive-probe cadence while unhealthy, consecutive failures before
  /// healthy -> suspect, and before suspect -> down (circuit opens).
  std::optional<Duration> probe_interval;
  std::optional<int> suspect_after;
  std::optional<int> down_after;
  /// Backfill window on subscribe (0 = full history), as for subscribers.
  Duration window = 0;

  bool operator==(const PeerSpec&) const = default;
};

/// One arm of a plan's duplicate-delivery split: `split 50 to exp_a,
/// 50 to exp_b;`. Percentages must sum to 100 across a plan's arms.
struct PlanSplitArm {
  int percent = 0;        // share of files routed to this arm, in [1, 100]
  std::string to;         // subscriber/group/peer receiving the arm

  bool operator==(const PlanSplitArm&) const = default;
};

/// Default refill interval for plan quotas (`quota N per <interval>`).
constexpr Duration kDefaultQuotaInterval = kMinute;

/// A declarative ingestion plan (the config's `plan <feed-or-group> { }`
/// block): per-feed behavior for the staged pipeline, delivery routing
/// and scheduling — INGESTBASE-style "ingestion as a compiled plan"
/// layered over the paper's feed declarations. Every field is optional;
/// an unset field keeps the pipeline's default behavior for that stage.
/// Plans are validated against the registry and lowered by the plan
/// compiler (src/ingest/plan.h); a selector may be an exact feed name or
/// a group prefix, and the most specific plan wins per attribute.
struct PlanSpec {
  FeedName feed;                       // exact feed name or group prefix
  /// Restrict delivery of the plan's feeds to these subscriber/group/
  /// peer identities. Empty = every subscriber of the feed (default).
  std::vector<std::string> route;
  /// Duplicate-delivery A/B split: each file is routed to exactly one
  /// arm (deterministic name hash); arms keep independent receipts.
  std::vector<PlanSplitArm> split;
  /// Required redundancy across federated peers; validated against the
  /// configured peer fleet (replicate > peers is rejected).
  std::optional<int> replicate;
  /// Percent of files admitted into the feed (deterministic name-hash
  /// sampling); the rest never classify into it. In (0, 100].
  std::optional<double> sample;
  /// Format transform overriding the feed's normalize policy:
  /// "none", "rle", "lz" (compress) or "decompress".
  std::optional<std::string> transform;
  /// Admission quota: at most `quota_files` files (and/or `quota_bytes`
  /// bytes) per `quota_interval`, enforced as a token bucket at admit.
  /// Over-quota files stay in the landing zone for a later rescan.
  std::optional<int64_t> quota_files;
  std::optional<int64_t> quota_bytes;
  Duration quota_interval = kDefaultQuotaInterval;
  /// SLO class driving delivery priority: "interactive" (deadline pulled
  /// in 4x), "standard" (feed tardiness as-is) or "bulk" (relaxed 4x).
  std::optional<std::string> slo;
  /// Enrichment hooks run in the normalize/worker stage, in order:
  /// "provenance" (header with feed + arrival) and/or "checksum"
  /// (payload CRC32 header).
  std::vector<std::string> enrich;

  bool operator==(const PlanSpec&) const = default;
};

/// A parsed Bistro configuration.
struct ServerConfig {
  std::vector<FeedSpec> feeds;
  std::vector<SubscriberSpec> subscribers;
  std::vector<GroupSpec> groups;
  std::vector<RelaySpec> relays;
  DeliveryTuningSpec delivery;
  IngestTuningSpec ingest;
  AnalyzerTuningSpec analyzer;
  ReceiptTuningSpec receipts;
  ClassifierTuningSpec classifier;
  ServerNetSpec server;
  std::vector<PeerSpec> peers;
  std::vector<PlanSpec> plans;

  bool operator==(const ServerConfig&) const = default;
};

}  // namespace bistro

#endif  // BISTRO_CONFIG_SPEC_H_
