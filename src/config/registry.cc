#include "config/registry.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/strings.h"

namespace bistro {

namespace {
Result<RegisteredFeed> CompileFeed(const FeedSpec& spec) {
  BISTRO_ASSIGN_OR_RETURN(Pattern pattern, Pattern::Compile(spec.pattern));
  std::vector<Pattern> alts;
  for (const auto& alt : spec.alt_patterns) {
    BISTRO_ASSIGN_OR_RETURN(Pattern p, Pattern::Compile(alt));
    alts.push_back(std::move(p));
  }
  BISTRO_ASSIGN_OR_RETURN(Normalizer normalizer,
                          Normalizer::Create(spec.normalize));
  return RegisteredFeed{spec, std::move(pattern), std::move(alts),
                        std::move(normalizer)};
}

bool IsPrefixGroup(const FeedName& group, const FeedName& feed) {
  return feed.size() > group.size() && StartsWith(feed, group) &&
         feed[group.size()] == '.';
}

/// A feed name must not also denote a group (ambiguous expansion): no
/// feed in `feeds` may sit under `name`, and `name` may not sit under
/// one. The map is sorted, so the first name under "<name>." is the only
/// candidate below it.
Status CheckNotGroupPrefix(const std::map<FeedName, RegisteredFeed>& feeds,
                           const FeedName& name) {
  auto below = feeds.lower_bound(name + ".");
  if (below != feeds.end() && IsPrefixGroup(name, below->first)) {
    return Status::InvalidArgument("feed '" + name +
                                   "' is also a group prefix of '" +
                                   below->first + "'");
  }
  for (size_t dot = name.find('.'); dot != std::string::npos;
       dot = name.find('.', dot + 1)) {
    FeedName above = name.substr(0, dot);
    if (feeds.count(above) != 0) {
      return Status::InvalidArgument("feed '" + above +
                                     "' is also a group prefix of '" + name +
                                     "'");
    }
  }
  return Status::OK();
}
}  // namespace

Result<std::unique_ptr<FeedRegistry>> FeedRegistry::Create(
    const ServerConfig& config) {
  std::unique_ptr<FeedRegistry> registry(new FeedRegistry());
  for (const auto& spec : config.feeds) {
    if (registry->feeds_.count(spec.name) != 0) {
      return Status::InvalidArgument("duplicate feed: " + spec.name);
    }
    BISTRO_ASSIGN_OR_RETURN(RegisteredFeed feed, CompileFeed(spec));
    registry->feeds_.emplace(spec.name, std::move(feed));
  }
  for (const auto& [name, _] : registry->feeds_) {
    BISTRO_RETURN_IF_ERROR(CheckNotGroupPrefix(registry->feeds_, name));
  }
  std::set<SubscriberName> sub_names;
  for (const auto& sub : config.subscribers) {
    if (!sub_names.insert(sub.name).second) {
      return Status::InvalidArgument("duplicate subscriber: " + sub.name);
    }
    for (const auto& interest : sub.feeds) {
      if (registry->Expand(interest).empty()) {
        return Status::InvalidArgument("subscriber " + sub.name +
                                       " references unknown feed or group: " +
                                       interest);
      }
    }
    registry->subscribers_.push_back(sub);
  }
  return registry;
}

std::vector<const RegisteredFeed*> FeedRegistry::feeds() const {
  std::vector<const RegisteredFeed*> out;
  out.reserve(feeds_.size());
  for (const auto& [_, feed] : feeds_) out.push_back(&feed);
  return out;
}

const RegisteredFeed* FeedRegistry::FindFeed(const FeedName& name) const {
  auto it = feeds_.find(name);
  return it == feeds_.end() ? nullptr : &it->second;
}

std::vector<FeedName> FeedRegistry::Expand(const FeedName& name_or_group) const {
  std::vector<FeedName> out;
  auto it = feeds_.find(name_or_group);
  if (it != feeds_.end()) {
    out.push_back(name_or_group);
    return out;
  }
  std::string prefix = name_or_group + ".";
  for (auto fit = feeds_.lower_bound(prefix);
       fit != feeds_.end() && StartsWith(fit->first, prefix); ++fit) {
    out.push_back(fit->first);
  }
  return out;
}

std::vector<FeedName> FeedRegistry::SubscribedFeeds(
    const SubscriberSpec& sub) const {
  std::set<FeedName> expanded;
  for (const auto& interest : sub.feeds) {
    for (auto& feed : Expand(interest)) expanded.insert(std::move(feed));
  }
  return {expanded.begin(), expanded.end()};
}

const SubscriberSpec* FeedRegistry::FindSubscriber(
    const SubscriberName& name) const {
  for (const auto& sub : subscribers_) {
    if (sub.name == name) return &sub;
  }
  return nullptr;
}

Status FeedRegistry::UpdateFeed(const FeedSpec& spec,
                                const std::function<Status()>& check) {
  BISTRO_ASSIGN_OR_RETURN(RegisteredFeed feed, CompileFeed(spec));
  std::optional<RegisteredFeed> previous;
  auto it = feeds_.find(spec.name);
  if (it != feeds_.end()) {
    previous = std::move(it->second);
    it->second = std::move(feed);
  } else {
    BISTRO_RETURN_IF_ERROR(CheckNotGroupPrefix(feeds_, spec.name));
    it = feeds_.emplace(spec.name, std::move(feed)).first;
  }
  Status status = check ? check() : Status::OK();
  if (!status.ok()) {
    if (previous) {
      it->second = std::move(*previous);
    } else {
      feeds_.erase(it);
    }
  }
  return status;
}

Status FeedRegistry::AddSubscriber(const SubscriberSpec& spec) {
  if (FindSubscriber(spec.name) != nullptr) {
    return Status::AlreadyExists("subscriber: " + spec.name);
  }
  for (const auto& interest : spec.feeds) {
    if (Expand(interest).empty()) {
      return Status::InvalidArgument("unknown feed or group: " + interest);
    }
  }
  subscribers_.push_back(spec);
  return Status::OK();
}

Status FeedRegistry::UpdateSubscriber(const SubscriberSpec& spec) {
  for (const auto& interest : spec.feeds) {
    if (Expand(interest).empty()) {
      return Status::InvalidArgument("unknown feed or group: " + interest);
    }
  }
  for (auto& sub : subscribers_) {
    if (sub.name == spec.name) {
      sub = spec;
      return Status::OK();
    }
  }
  return Status::NotFound("subscriber: " + spec.name);
}

}  // namespace bistro
