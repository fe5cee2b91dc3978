#ifndef BISTRO_CLASSIFY_CLASSIFIER_H_
#define BISTRO_CLASSIFY_CLASSIFIER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "classify/automaton.h"
#include "config/registry.h"
#include "obs/metrics.h"
#include "pattern/pattern.h"

namespace bistro {

/// Result of classifying one incoming filename.
struct Classification {
  /// Feeds the file belongs to (a file may match several feeds).
  std::vector<FeedName> feeds;
  /// The match of the *first* feed (staging uses its fields).
  MatchResult primary_match;
  bool matched() const { return !feeds.empty(); }
};

/// Counters exposed by the classifier for monitoring and experiment E5.
struct ClassifierStats {
  uint64_t files = 0;
  uint64_t matched = 0;
  uint64_t unmatched = 0;
  uint64_t candidate_checks = 0;  // pattern match attempts performed
};

/// Matches incoming filenames to registered consumer feeds (paper §3.2).
///
/// Three lookup strategies (experiments E5/E14 compare them):
///  - kLinear: try every feed pattern (the obvious baseline);
///  - kPrefixIndex: a byte-trie over the patterns' literal prefixes prunes
///    the candidate set to feeds whose prefix matches the filename — but
///    each surviving candidate still pays a full pattern match, so tables
///    whose patterns share prefixes (or have none) degrade to linear;
///  - kAutomaton (default): the whole feed table compiled into one fused
///    DFA (classify/automaton.h). One scan of the name yields every
///    matching feed; per-file cost is independent of the table size.
///
/// Concurrency: in kAutomaton mode the compiled table lives behind a
/// shared_ptr snapshot. Classify reads the current snapshot and,
/// if the registry version moved, rebuilds lazily (serialized by an
/// internal mutex) — the SubscriptionIndex idiom. ClassifySnapshot never
/// rebuilds: it classifies against whatever snapshot is current, so
/// ingest workers never wait for a compile while Rebuild swaps a new
/// snapshot in underneath them (the only lock they take guards the
/// shared_ptr copy itself). Registry *mutations* must still be
/// serialized against rebuilds by the caller (the ingest pipeline's
/// defs_mu_ does this), because compiling reads the registry.
/// In the legacy trie/linear modes Classify is const and thread-safe but
/// Rebuild requires external exclusion, exactly as before.
class FeedClassifier {
 public:
  enum class IndexMode { kLinear, kPrefixIndex, kAutomaton };

  explicit FeedClassifier(const FeedRegistry* registry,
                          IndexMode mode = IndexMode::kAutomaton);

  IndexMode mode() const { return mode_; }

  /// Classifies `name` against all registered feeds. Const and thread
  /// safe against concurrent Classify calls (stats are atomic). In
  /// kAutomaton mode a stale snapshot (registry version moved) is
  /// recompiled lazily before classifying.
  Classification Classify(const std::string& name) const;

  /// kAutomaton: classifies against the current snapshot without any
  /// staleness check — the ingest workers' path, which never waits for a
  /// compile; the loop thread refreshes the snapshot via Rebuild after
  /// revisions.
  /// Other modes: identical to Classify.
  Classification ClassifySnapshot(const std::string& name) const;

  /// Rebuilds the index after feed definitions change. kAutomaton:
  /// compiles a new snapshot and atomically swaps it in — concurrent
  /// ClassifySnapshot calls keep using the old one until the swap. A
  /// table over FeedAutomaton's compile budget returns ResourceExhausted
  /// and leaves the previous snapshot in place.
  /// Trie/linear: NOT safe against concurrent Classify; callers
  /// serialize (IngestPipeline holds its defs_mu_ exclusively here).
  Status Rebuild();

  /// Outcome of the latest automaton compile (OK in other modes). The
  /// constructor compiles once; BistroServer::Create refuses a config
  /// whose feed table fails here. Until a compile succeeds, classifying
  /// against no snapshot matches nothing.
  Status compile_status() const;

  /// Registers compile/size gauges and rebuild counters with `metrics`
  /// (idempotent metric names; call once at server startup).
  void AttachMetrics(MetricsRegistry* metrics);

  /// Current automaton snapshot (kAutomaton mode; nullptr otherwise).
  /// Admin/introspection surface — holds the tables alive independently
  /// of any concurrent rebuild.
  std::shared_ptr<const FeedAutomaton> automaton() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  ClassifierStats stats() const {
    ClassifierStats s;
    s.files = files_.load(std::memory_order_relaxed);
    s.matched = matched_.load(std::memory_order_relaxed);
    s.unmatched = unmatched_.load(std::memory_order_relaxed);
    s.candidate_checks = candidate_checks_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    files_.store(0, std::memory_order_relaxed);
    matched_.store(0, std::memory_order_relaxed);
    unmatched_.store(0, std::memory_order_relaxed);
    candidate_checks_.store(0, std::memory_order_relaxed);
  }

 private:
  /// One candidate to try: a feed and one of its compiled patterns
  /// (feeds may carry alternative patterns, §2.1.3 feed evolution).
  using Candidate = std::pair<const RegisteredFeed*, const Pattern*>;

  struct TrieNode {
    // Candidates whose whole literal prefix ends at or above this node.
    std::vector<Candidate> candidates;
    // Sorted flat child array: trie nodes are tiny (feed-name alphabets
    // run a dozen distinct bytes), so a binary-searched vector beats
    // pointer-chasing through red-black map nodes on the hot descent.
    std::vector<std::pair<char, std::unique_ptr<TrieNode>>> children;

    TrieNode* Child(char c) const;
    TrieNode* ChildOrNew(char c);
  };

  void Insert(const RegisteredFeed* feed, const Pattern* pattern);
  void CollectCandidates(const std::string& name,
                         std::vector<Candidate>* out) const;
  Classification ClassifyCandidates(const std::string& name) const;
  Classification ClassifyAutomaton(const FeedAutomaton& automaton,
                                   const std::string& name) const;
  /// Compiles a fresh snapshot from the registry and swaps it in; on a
  /// compile error the current snapshot stays.
  Status RebuildAutomatonLocked() const;

  const FeedRegistry* registry_;
  IndexMode mode_;
  std::unique_ptr<TrieNode> root_;

  /// kAutomaton state: RCU-style snapshot + rebuild serialization.
  /// snapshot_mu_ is held only to copy or swap the pointer, never across
  /// a compile. (libstdc++'s atomic<shared_ptr> takes a spin lock for
  /// the same copy, and its load releases that lock without release
  /// ordering, which ThreadSanitizer reports as a race with the swap.)
  mutable std::mutex snapshot_mu_;
  mutable std::shared_ptr<const FeedAutomaton> snapshot_;
  mutable std::mutex rebuild_mu_;
  /// Guarded by rebuild_mu_: the latest compile's outcome, and the
  /// registry version whose table failed to compile, so the lazy path
  /// does not retry a doomed compile on every Classify.
  mutable Status compile_status_;
  mutable std::optional<uint64_t> failed_version_;

  /// Metrics (optional; see AttachMetrics).
  Counter* rebuilds_metric_ = nullptr;
  Counter* compile_failures_metric_ = nullptr;
  Gauge* states_metric_ = nullptr;
  Gauge* accept_sets_metric_ = nullptr;
  Gauge* memory_metric_ = nullptr;
  Histogram* compile_metric_ = nullptr;

  /// Relaxed atomics: Classify is logically const (a read of the index);
  /// the counters are monitoring side-band, not synchronization.
  mutable std::atomic<uint64_t> files_{0};
  mutable std::atomic<uint64_t> matched_{0};
  mutable std::atomic<uint64_t> unmatched_{0};
  mutable std::atomic<uint64_t> candidate_checks_{0};
};

/// Parse/format helpers for the `classifier { mode ...; }` config key.
std::string_view IndexModeName(FeedClassifier::IndexMode mode);
Result<FeedClassifier::IndexMode> IndexModeFromName(std::string_view name);

}  // namespace bistro

#endif  // BISTRO_CLASSIFY_CLASSIFIER_H_
