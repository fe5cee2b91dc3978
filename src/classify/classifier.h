#ifndef BISTRO_CLASSIFY_CLASSIFIER_H_
#define BISTRO_CLASSIFY_CLASSIFIER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
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
/// The whole feed table is compiled into one fused DFA
/// (classify/automaton.h): one scan of the name yields every matching
/// feed, and the per-file cost does not depend on the table size. Feeds
/// the compile budget moved to the automaton's residual list are tried
/// pattern by pattern after the scan and merged in registry order.
///
/// Concurrency: the compiled table lives behind a shared_ptr snapshot.
/// Classify copies the pointer and classifies against it, so ingest
/// workers never wait for a compile while Rebuild swaps a new snapshot in
/// underneath them (the only lock they take guards the shared_ptr copy
/// itself). Classify never recompiles: whoever revises the registry calls
/// Rebuild, and serializes the revision and the rebuild against each
/// other (BistroServer::ReviseFeed does both under the ingest pipeline's
/// definitions lock), because compiling reads the registry.
class FeedClassifier {
 public:
  /// Compiles the registry's table; see compile_status().
  explicit FeedClassifier(const FeedRegistry* registry);

  /// Classifies `name` against the current snapshot. Thread safe against
  /// concurrent Classify and Rebuild calls (stats are atomic).
  Classification Classify(const std::string& name) const;

  /// Compiles a new snapshot from the registry and atomically swaps it
  /// in — concurrent Classify calls keep using the old one until the
  /// swap. A table over FeedAutomaton's compile budget returns
  /// ResourceExhausted and leaves the previous snapshot in place. Calls
  /// are serialized by the caller.
  Status Rebuild();

  /// Outcome of the latest compile. BistroServer::Create refuses a config
  /// whose feed table fails here. Until a compile succeeds, classifying
  /// against no snapshot matches nothing.
  Status compile_status() const { return compile_status_; }

  /// Registers compile/size gauges and rebuild counters with `metrics`
  /// (idempotent metric names; call once at server startup).
  void AttachMetrics(MetricsRegistry* metrics);

  /// Current automaton snapshot, or nullptr before the first successful
  /// compile. Admin/introspection surface — holds the tables alive
  /// independently of any concurrent rebuild.
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
  Classification ClassifyAutomaton(const FeedAutomaton& automaton,
                                   const std::string& name) const;
  /// Sets the size gauges from `automaton` (when metrics are attached).
  void PublishStats(const FeedAutomaton& automaton);

  const FeedRegistry* registry_;

  /// snapshot_mu_ is held only to copy or swap the pointer, never across
  /// a compile. (libstdc++'s atomic<shared_ptr> takes a spin lock for
  /// the same copy, and its load releases that lock without release
  /// ordering, which ThreadSanitizer reports as a race with the swap.)
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const FeedAutomaton> snapshot_;
  Status compile_status_;

  /// Metrics (optional; see AttachMetrics).
  Counter* rebuilds_metric_ = nullptr;
  Counter* compile_failures_metric_ = nullptr;
  Gauge* states_metric_ = nullptr;
  Gauge* accept_sets_metric_ = nullptr;
  Gauge* residual_metric_ = nullptr;
  Gauge* memory_metric_ = nullptr;
  Histogram* compile_metric_ = nullptr;

  /// Relaxed atomics: Classify is logically const (a read of the index);
  /// the counters are monitoring side-band, not synchronization.
  mutable std::atomic<uint64_t> files_{0};
  mutable std::atomic<uint64_t> matched_{0};
  mutable std::atomic<uint64_t> unmatched_{0};
  mutable std::atomic<uint64_t> candidate_checks_{0};
};

/// The linear oracle: tries every feed's patterns in registry order. Tests
/// and benches check the classifier against it; it shares its candidate
/// step with the classifier's residual and verify path.
Classification ClassifyLinear(const FeedRegistry& registry,
                              const std::string& name);

}  // namespace bistro

#endif  // BISTRO_CLASSIFY_CLASSIFIER_H_
