#ifndef BISTRO_FANOUT_SUBSCRIPTION_INDEX_H_
#define BISTRO_FANOUT_SUBSCRIPTION_INDEX_H_

#include <map>
#include <string>
#include <vector>

#include "config/registry.h"
#include "obs/metrics.h"

namespace bistro {
namespace fanout {

/// Per-feed subscription postings: feed -> the subscribers (individuals,
/// groups, peers — anything registered) whose interest set covers it.
/// The index inverts the interest sets once, so each lookup on the
/// staged-file, punctuation and backfill paths is O(postings for that
/// feed), not a scan over subscribers × interests.
///
/// Rebuilds are explicit: whoever changes the registry's subscribers or
/// feeds calls Rebuild in the same call (BistroServer's AddSubscriber,
/// UpdateSubscriber and ReviseFeed). Returned pointers alias the
/// registry's subscriber storage and are valid until its next mutation —
/// consume them immediately, never cache across events.
class SubscriptionIndex {
 public:
  /// Builds the index from the registry as it stands.
  explicit SubscriptionIndex(const FeedRegistry* registry);

  /// Re-inverts the registry's interest sets (after a subscriber or feed
  /// change).
  void Rebuild();

  /// Subscribers covering `feed`, in registration order, each once even
  /// when several of its interests cover the feed. Unknown feeds yield an
  /// empty list.
  const std::vector<const SubscriberSpec*>& PostingsFor(const FeedName& feed);

  /// Names of subscribers holding at least one posting, name-ordered.
  /// Startup backfill iterates this instead of the raw subscriber list.
  const std::vector<SubscriberName>& ActiveSubscribers() const {
    return active_;
  }

  uint64_t lookups() const { return lookups_; }
  uint64_t rebuilds() const { return rebuilds_; }

  /// Registers bistro_fanout_index_* series.
  void AttachMetrics(MetricsRegistry* registry);

 private:
  const FeedRegistry* registry_;
  uint64_t lookups_ = 0;
  uint64_t rebuilds_ = 0;
  int64_t postings_total_ = 0;
  std::map<FeedName, std::vector<const SubscriberSpec*>> postings_;
  std::vector<SubscriberName> active_;
  std::vector<const SubscriberSpec*> empty_;
  Counter* m_rebuilds_ = nullptr;
  Counter* m_lookups_ = nullptr;
  Gauge* m_postings_ = nullptr;
};

}  // namespace fanout
}  // namespace bistro

#endif  // BISTRO_FANOUT_SUBSCRIPTION_INDEX_H_
