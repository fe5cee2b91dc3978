#include "fanout/subscription_index.h"

#include <set>

namespace bistro {
namespace fanout {

SubscriptionIndex::SubscriptionIndex(const FeedRegistry* registry)
    : registry_(registry) {
  Rebuild();
}

void SubscriptionIndex::AttachMetrics(MetricsRegistry* registry) {
  m_rebuilds_ = registry->GetCounter("bistro_fanout_index_rebuilds_total",
                                     "Subscription index rebuilds");
  m_lookups_ = registry->GetCounter("bistro_fanout_index_lookups_total",
                                    "Subscription index postings lookups");
  m_postings_ = registry->GetGauge("bistro_fanout_index_postings",
                                   "Total (feed, subscriber) postings");
  // The builds before this call (the constructor's) count here.
  m_rebuilds_->Increment(rebuilds_);
  m_postings_->Set(postings_total_);
}

void SubscriptionIndex::Rebuild() {
  postings_.clear();
  active_.clear();
  postings_total_ = 0;
  std::set<SubscriberName> active_set;
  for (const SubscriberSpec& sub : registry_->subscribers()) {
    // One posting per concrete feed, even when several interests (an
    // exact name plus a covering group prefix) expand to the same feed.
    std::set<FeedName> covered;
    for (const FeedName& interest : sub.feeds) {
      for (FeedName& feed : registry_->Expand(interest)) {
        covered.insert(std::move(feed));
      }
    }
    for (const FeedName& feed : covered) {
      postings_[feed].push_back(&sub);
      ++postings_total_;
    }
    if (!covered.empty()) active_set.insert(sub.name);
  }
  active_.assign(active_set.begin(), active_set.end());
  ++rebuilds_;
  if (m_rebuilds_ != nullptr) m_rebuilds_->Increment();
  if (m_postings_ != nullptr) m_postings_->Set(postings_total_);
}

const std::vector<const SubscriberSpec*>& SubscriptionIndex::PostingsFor(
    const FeedName& feed) {
  ++lookups_;
  if (m_lookups_ != nullptr) m_lookups_->Increment();
  auto it = postings_.find(feed);
  return it == postings_.end() ? empty_ : it->second;
}

}  // namespace fanout
}  // namespace bistro
