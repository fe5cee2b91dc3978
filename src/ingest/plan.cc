#include "ingest/plan.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "common/hash.h"

namespace bistro {

// ---------------------------------------------------------------- QuotaBucket

QuotaBucket::QuotaBucket(int64_t files, int64_t bytes, Duration interval)
    : file_capacity_(files > 0 ? files : 0),
      byte_capacity_(bytes > 0 ? bytes : 0),
      interval_(interval > 0 ? interval : kDefaultQuotaInterval),
      file_tokens_(static_cast<double>(file_capacity_)),
      byte_tokens_(static_cast<double>(byte_capacity_)) {}

void QuotaBucket::RefillLocked(TimePoint now) {
  // The bucket starts full; the first admission pins the refill origin so
  // simulated clocks that begin at arbitrary epochs behave identically.
  if (!primed_) {
    last_ = now;
    primed_ = true;
    return;
  }
  if (now <= last_) return;
  double fraction =
      static_cast<double>(now - last_) / static_cast<double>(interval_);
  file_tokens_ = std::min(static_cast<double>(file_capacity_),
                          file_tokens_ + fraction * file_capacity_);
  byte_tokens_ = std::min(static_cast<double>(byte_capacity_),
                          byte_tokens_ + fraction * byte_capacity_);
  last_ = now;
}

bool QuotaBucket::TryAdmit(TimePoint now, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(now);
  if (file_capacity_ > 0 && file_tokens_ < 1.0) return false;
  if (byte_capacity_ > 0 && byte_tokens_ < static_cast<double>(size)) {
    return false;
  }
  if (file_capacity_ > 0) file_tokens_ -= 1.0;
  if (byte_capacity_ > 0) byte_tokens_ -= static_cast<double>(size);
  return true;
}

// ------------------------------------------------------- deterministic choices

bool PlanSampleKeeps(const FeedName& feed, const std::string& name,
                     int sample_keep_bp) {
  if (sample_keep_bp >= 10000) return true;
  return Fnv1a64("sample|" + feed + "|" + name) % 10000 <
         static_cast<uint64_t>(sample_keep_bp);
}

const PlanSplitArm* PlanSplitArmFor(const std::vector<PlanSplitArm>& arms,
                                    const std::string& name) {
  if (arms.empty()) return nullptr;
  uint64_t bucket = Fnv1a64("split|" + name) % 100;
  uint64_t cumulative = 0;
  for (const PlanSplitArm& arm : arms) {
    cumulative += static_cast<uint64_t>(arm.percent);
    if (bucket < cumulative) return &arm;
  }
  return &arms.back();
}

// ------------------------------------------------------------------- compiler

namespace {

/// The feed's own normalize policy with the plan's transform applied.
Result<NormalizeSpec> TransformedSpec(const NormalizeSpec& base,
                                      const std::string& transform) {
  NormalizeSpec spec = base;
  if (transform == "none") {
    spec.action = CompressionAction::kPassthrough;
  } else if (transform == "decompress") {
    spec.action = CompressionAction::kDecompress;
  } else {
    BISTRO_ASSIGN_OR_RETURN(spec.codec, CodecKindFromName(transform));
    spec.action = CompressionAction::kCompress;
  }
  return spec;
}

}  // namespace

PlanContext PlanContextFromConfig(const ServerConfig& config) {
  PlanContext context;
  for (const SubscriberSpec& sub : config.subscribers) {
    context.delivery_targets.push_back(sub.name);
  }
  for (const GroupSpec& group : config.groups) {
    context.delivery_targets.push_back(group.name);
  }
  for (const PeerSpec& peer : config.peers) {
    context.delivery_targets.push_back(peer.name);
  }
  context.peer_count = config.peers.size();
  return context;
}

Result<std::shared_ptr<const CompiledPlans>> CompilePlans(
    const std::vector<PlanSpec>& plans, const FeedRegistry& registry,
    const PlanContext& context,
    std::map<FeedName, std::shared_ptr<QuotaBucket>>* buckets) {
  const std::set<std::string> targets(context.delivery_targets.begin(),
                                      context.delivery_targets.end());
  auto compiled = std::make_shared<CompiledPlans>();

  // Validate every block against the registry and the delivery namespace.
  struct Covered {
    const PlanSpec* plan;
    std::vector<FeedName> feeds;
  };
  std::vector<Covered> covered;
  covered.reserve(plans.size());
  for (const PlanSpec& plan : plans) {
    std::vector<FeedName> feeds = registry.Expand(plan.feed);
    if (feeds.empty()) {
      return Status::InvalidArgument("plan " + plan.feed +
                                     " does not name a registered feed "
                                     "or feed group");
    }
    for (const std::string& target : plan.route) {
      if (!targets.count(target)) {
        return Status::InvalidArgument("plan " + plan.feed +
                                       " routes to unknown target " + target);
      }
    }
    for (const PlanSplitArm& arm : plan.split) {
      if (!targets.count(arm.to)) {
        return Status::InvalidArgument("plan " + plan.feed +
                                       " splits to unknown target " + arm.to);
      }
    }
    if (plan.replicate &&
        static_cast<size_t>(*plan.replicate) > context.peer_count) {
      return Status::InvalidArgument(
          "plan " + plan.feed + " asks for replicate " +
          std::to_string(*plan.replicate) + " but only " +
          std::to_string(context.peer_count) + " peers are configured");
    }
    covered.push_back({&plan, std::move(feeds)});
  }

  // A feed's admission budget must come from exactly one plan: letting
  // two buckets race for the same feed makes the effective quota depend
  // on classification order, so the ambiguity is rejected outright.
  std::map<FeedName, const PlanSpec*> quota_owner;
  for (const Covered& c : covered) {
    if (!c.plan->quota_files && !c.plan->quota_bytes) continue;
    for (const FeedName& feed : c.feeds) {
      auto [it, inserted] = quota_owner.emplace(feed, c.plan);
      if (!inserted && it->second != c.plan) {
        return Status::InvalidArgument(
            "conflicting quota for feed " + feed + ": plans " +
            it->second->feed + " and " + c.plan->feed + " both budget it");
      }
    }
  }

  // Lower least-specific selectors first so a more specific plan (longer
  // dotted prefix, or the exact feed name) overrides per attribute.
  std::stable_sort(covered.begin(), covered.end(),
                   [](const Covered& a, const Covered& b) {
                     return a.plan->feed.size() < b.plan->feed.size();
                   });
  for (const Covered& c : covered) {
    const PlanSpec& plan = *c.plan;
    std::shared_ptr<QuotaBucket> bucket;
    if (plan.quota_files || plan.quota_bytes) {
      // One bucket per plan block: a group-prefix quota is a single
      // budget shared by the whole subtree. Buckets persist across
      // recompilations so a feed revision never refunds tokens.
      if (buckets) {
        std::shared_ptr<QuotaBucket>& slot = (*buckets)[plan.feed];
        if (!slot) {
          slot = std::make_shared<QuotaBucket>(plan.quota_files.value_or(0),
                                               plan.quota_bytes.value_or(0),
                                               plan.quota_interval);
        }
        bucket = slot;
      } else {
        bucket = std::make_shared<QuotaBucket>(plan.quota_files.value_or(0),
                                               plan.quota_bytes.value_or(0),
                                               plan.quota_interval);
      }
    }
    for (const FeedName& feed : c.feeds) {
      FeedPlan& fp = compiled->feeds[feed];
      fp.feed = feed;
      fp.selector = plan.feed;
      if (bucket) fp.quota = bucket;
      if (plan.sample) {
        fp.sample_keep_bp = static_cast<int>(*plan.sample * 100.0 + 0.5);
      }
      if (plan.transform) {
        const RegisteredFeed* rf = registry.FindFeed(feed);
        if (rf == nullptr) {
          return Status::Internal("plan lowering lost feed " + feed);
        }
        BISTRO_ASSIGN_OR_RETURN(
            NormalizeSpec spec,
            TransformedSpec(rf->spec.normalize, *plan.transform));
        BISTRO_ASSIGN_OR_RETURN(fp.transform, Normalizer::Create(spec));
      }
      if (!plan.enrich.empty()) {
        fp.enrich.clear();
        for (const std::string& op : plan.enrich) {
          fp.enrich.push_back(op == "provenance" ? EnrichOp::kProvenance
                                                 : EnrichOp::kChecksum);
        }
      }
      if (!plan.route.empty()) fp.route = plan.route;
      if (!plan.split.empty()) fp.split = plan.split;
      if (plan.replicate) fp.replicate = *plan.replicate;
      if (plan.slo) {
        fp.slo = *plan.slo;
        if (fp.slo == "interactive") {
          fp.deadline_scale_num = 1;
          fp.deadline_scale_den = 4;
        } else if (fp.slo == "bulk") {
          fp.deadline_scale_num = 4;
          fp.deadline_scale_den = 1;
        } else {
          fp.deadline_scale_num = 1;
          fp.deadline_scale_den = 1;
        }
      }
    }
  }
  return std::shared_ptr<const CompiledPlans>(std::move(compiled));
}

// -------------------------------------------------------------- PlanRuntime

PlanRuntime::PlanRuntime(std::vector<PlanSpec> plans,
                         const FeedRegistry* registry, PlanContext context)
    : plans_(std::move(plans)),
      registry_(registry),
      context_(std::move(context)),
      owned_metrics_(std::make_unique<MetricsRegistry>()) {
  AttachMetrics(owned_metrics_.get());
}

void PlanRuntime::AttachMetrics(MetricsRegistry* registry) {
  rebuilds_ = registry->GetCounter(
      "bistro_plan_rebuilds_total",
      "Plan table compilations (initial compile included)");
  quota_shed_ = registry->GetCounter(
      "bistro_plan_quota_shed_total",
      "Feed admissions refused by a plan quota (file deferred to rescan)");
  sampled_out_ = registry->GetCounter(
      "bistro_plan_sampled_out_total",
      "Feed admissions dropped by plan sampling");
  route_filtered_ = registry->GetCounter(
      "bistro_plan_route_filtered_total",
      "Deliveries suppressed by plan routing or an unchosen split arm");
  split_routed_ = registry->GetCounter(
      "bistro_plan_split_routed_total",
      "Deliveries sent to the chosen arm of a plan split");
  enriched_ = registry->GetCounter(
      "bistro_plan_enriched_total",
      "Enrichment hooks applied in the worker stage");
  transformed_ = registry->GetCounter(
      "bistro_plan_transformed_total",
      "Files staged through a plan transform override");
  governed_gauge_ = registry->GetGauge(
      "bistro_plan_governed_feeds",
      "Feeds currently governed by an ingestion plan");
}

Status PlanRuntime::Rebuild() {
  auto result = CompilePlans(plans_, *registry_, context_, &buckets_);
  if (!result.ok()) return result.status();
  Publish(std::move(result).value());
  rebuilds_->Increment();
  return Status::OK();
}

void PlanRuntime::Publish(std::shared_ptr<const CompiledPlans> snap) {
  governed_gauge_->Set(static_cast<int64_t>(snap->feeds.size()));
  std::lock_guard<std::mutex> lock(mu_);
  snap_ = std::move(snap);
}

std::shared_ptr<const CompiledPlans> PlanRuntime::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snap_;
}

PlanRuntime::ArrivalDecision PlanRuntime::FilterArrival(
    const IncomingFile& file, TimePoint now, Classification* c) {
  std::shared_ptr<const CompiledPlans> snap = snapshot();
  if (!snap || snap->feeds.empty() || c->feeds.empty()) {
    return ArrivalDecision::kAdmit;
  }
  const FeedName original_front = c->feeds.front();
  std::vector<FeedName> kept;
  kept.reserve(c->feeds.size());
  bool quota_refused = false;
  for (FeedName& feed : c->feeds) {
    const FeedPlan* fp = snap->Find(feed);
    if (fp != nullptr) {
      if (!PlanSampleKeeps(feed, file.name, fp->sample_keep_bp)) {
        sampled_out_->Increment();
        continue;
      }
      if (fp->quota && !fp->quota->TryAdmit(now, file.size)) {
        quota_shed_->Increment();
        quota_refused = true;
        continue;
      }
    }
    kept.push_back(std::move(feed));
  }
  if (kept.empty()) {
    return quota_refused ? ArrivalDecision::kDefer : ArrivalDecision::kDiscard;
  }
  const bool front_changed = kept.front() != original_front;
  c->feeds = std::move(kept);
  if (front_changed) {
    // Staging uses the leading feed's match fields; re-derive them for
    // the new front so rename templates keep seeing the right fields.
    if (const RegisteredFeed* rf = registry_->FindFeed(c->feeds.front())) {
      if (auto m = rf->Match(file.name)) c->primary_match = *m;
    }
  }
  return ArrivalDecision::kAdmit;
}

void PlanRuntime::Enrich(const FeedPlan& fp, const IncomingFile& file,
                         const FeedName& feed, std::string* content) {
  for (EnrichOp op : fp.enrich) {
    switch (op) {
      case EnrichOp::kProvenance: {
        std::string header = "#bistro-provenance feed=" + feed +
                             " file=" + file.name +
                             " arrival=" + std::to_string(file.arrival_time) +
                             "\n";
        content->insert(0, header);
        break;
      }
      case EnrichOp::kChecksum: {
        char header[32];
        std::snprintf(header, sizeof(header), "#bistro-crc32 %08x\n",
                      Crc32(*content));
        content->insert(0, header);
        break;
      }
    }
    enriched_->Increment();
  }
}

bool PlanRuntime::AllowsDelivery(const FeedName& feed,
                                 const std::string& file_name,
                                 const SubscriberName& sub) {
  std::shared_ptr<const CompiledPlans> snap = snapshot();
  const FeedPlan* fp = snap ? snap->Find(feed) : nullptr;
  if (fp == nullptr) return true;
  if (!fp->split.empty()) {
    bool is_arm = false;
    for (const PlanSplitArm& arm : fp->split) {
      if (arm.to == sub) {
        is_arm = true;
        break;
      }
    }
    if (is_arm) {
      // An arm subscriber receives exactly the files hashed into its
      // percent range; arms bypass the route list.
      const PlanSplitArm* chosen = PlanSplitArmFor(fp->split, file_name);
      if (chosen != nullptr && chosen->to == sub) {
        split_routed_->Increment();
        return true;
      }
      route_filtered_->Increment();
      return false;
    }
  }
  if (!fp->route.empty()) {
    for (const std::string& target : fp->route) {
      if (target == sub) return true;
    }
    route_filtered_->Increment();
    return false;
  }
  return true;
}

Duration PlanRuntime::TardinessFor(const FeedName& feed, Duration base) {
  std::shared_ptr<const CompiledPlans> snap = snapshot();
  const FeedPlan* fp = snap ? snap->Find(feed) : nullptr;
  if (fp == nullptr || fp->deadline_scale_num == fp->deadline_scale_den) {
    return base;
  }
  Duration scaled = base * fp->deadline_scale_num / fp->deadline_scale_den;
  return scaled > 0 ? scaled : 1;
}

PlanStats PlanRuntime::stats() {
  PlanStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snap_) s.governed_feeds = snap_->feeds.size();
  }
  s.rebuilds = rebuilds_->value();
  s.quota_shed = quota_shed_->value();
  s.sampled_out = sampled_out_->value();
  s.route_filtered = route_filtered_->value();
  s.split_routed = split_routed_->value();
  s.enriched = enriched_->value();
  s.transformed = transformed_->value();
  return s;
}

}  // namespace bistro
