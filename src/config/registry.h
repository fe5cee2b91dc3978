#ifndef BISTRO_CONFIG_REGISTRY_H_
#define BISTRO_CONFIG_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/spec.h"
#include "pattern/normalizer.h"
#include "pattern/pattern.h"

namespace bistro {

/// One registered feed, with its compiled patterns and normalizer.
struct RegisteredFeed {
  FeedSpec spec;
  Pattern pattern;              // compiled primary pattern
  std::vector<Pattern> alts;    // compiled alternative patterns
  Normalizer normalizer;

  /// Matches `name` against the primary pattern, then the alternates.
  std::optional<MatchResult> Match(std::string_view name) const {
    if (auto m = pattern.Match(name)) return m;
    for (const Pattern& alt : alts) {
      if (auto m = alt.Match(name)) return m;
    }
    return std::nullopt;
  }
};

/// The server's view of a configuration: compiled feeds, subscriber
/// records, and hierarchy resolution ("SNMP.CPU" -> every feed under it).
///
/// Feed definitions can be revised at runtime (paper §4.2: "a feed
/// definition can be revised at any moment"); UpdateFeed replaces a spec
/// in place, and the delivery layer recomputes queues from receipts.
/// A running server's registry changes only through BistroServer's
/// AddSubscriber, UpdateSubscriber and ReviseFeed, which rebuild the
/// tables derived from what they changed in the same call.
class FeedRegistry {
 public:
  /// Builds a registry from a parsed config. Rejects duplicate feed or
  /// subscriber names, subscriptions to unknown feeds/groups, and a feed
  /// name that is also used as a group prefix.
  static Result<std::unique_ptr<FeedRegistry>> Create(
      const ServerConfig& config);

  /// All registered feeds in name order.
  std::vector<const RegisteredFeed*> feeds() const;

  /// Looks up a feed by exact full name.
  const RegisteredFeed* FindFeed(const FeedName& name) const;

  /// Expands a feed-or-group name into the full names of every feed it
  /// covers ("SNMP.CPU" -> {"SNMP.CPU.POLLER1", ...}; an exact feed name
  /// expands to itself). Unknown names expand to the empty set.
  std::vector<FeedName> Expand(const FeedName& name_or_group) const;

  /// Expands a subscriber's interest set into concrete feed names.
  std::vector<FeedName> SubscribedFeeds(const SubscriberSpec& sub) const;

  /// All subscribers.
  const std::vector<SubscriberSpec>& subscribers() const { return subscribers_; }
  const SubscriberSpec* FindSubscriber(const SubscriberName& name) const;

  /// Adds or replaces a feed definition (analyzer-approved revision).
  /// A new feed is refused, as Create refuses it, when its name and an
  /// existing feed's would make one a group prefix of the other.
  /// `check`, if given, runs on the revised registry before the revision
  /// stands; if it fails, the previous definition is restored and its
  /// error returned. The caller keeps every other reader of the registry
  /// out while `check` runs (BistroServer::ReviseFeed holds the ingest
  /// pipeline's definitions lock and rebuilds the tables compiled from
  /// feed definitions in `check`).
  Status UpdateFeed(const FeedSpec& spec,
                    const std::function<Status()>& check = {});

  /// Adds a subscriber at runtime (new subscribers can appear at any
  /// moment and expect history backfill, paper §4.2).
  Status AddSubscriber(const SubscriberSpec& spec);

  /// Replaces an existing subscriber's spec in place (failover re-routes
  /// a peer's feeds onto its replica and later restores them). The feed
  /// set may be empty — a subscriber of nothing receives nothing but
  /// keeps its receipts. NotFound when the name is unknown.
  Status UpdateSubscriber(const SubscriberSpec& spec);

 private:
  FeedRegistry() = default;

  std::map<FeedName, RegisteredFeed> feeds_;
  std::vector<SubscriberSpec> subscribers_;
};

}  // namespace bistro

#endif  // BISTRO_CONFIG_REGISTRY_H_
