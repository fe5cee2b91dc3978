#include "core/admin.h"

#include "common/strings.h"
#include "federation/health.h"

namespace bistro {

std::string RenderStatusReport(BistroServer* server,
                               fanout::GroupManager* groups) {
  std::string out;
  ServerStats stats = server->stats();
  out += "=== Bistro server status ===\n";
  out += StrFormat(
      "pipeline: received %llu (%s), classified %llu, unmatched %llu, "
      "expired %llu, punctuations %llu\n",
      (unsigned long long)stats.files_received,
      HumanBytes(stats.bytes_received).c_str(),
      (unsigned long long)stats.files_classified,
      (unsigned long long)stats.files_unmatched,
      (unsigned long long)stats.files_expired,
      (unsigned long long)stats.punctuations);

  DeliveryStats d = server->delivery_stats();
  out += StrFormat(
      "delivery: %llu pushed, %llu notified, %llu batches, %llu triggers "
      "(%llu failed), %llu retries, %llu backfilled, %llu parked\n",
      (unsigned long long)d.files_delivered,
      (unsigned long long)d.notifications_sent,
      (unsigned long long)d.batches_closed,
      (unsigned long long)d.triggers_invoked,
      (unsigned long long)d.trigger_failures,
      (unsigned long long)d.retries, (unsigned long long)d.backfilled,
      (unsigned long long)d.parked);

  const SchedulerMetrics& m = server->scheduler_metrics();
  out += StrFormat(
      "scheduling: %llu completed, %llu failed, %llu late (%.1f%%), mean "
      "tardiness %s, max %s\n",
      (unsigned long long)m.completed, (unsigned long long)m.failed,
      (unsigned long long)m.late, 100.0 * m.LateFraction(),
      FormatDuration(static_cast<Duration>(m.MeanTardiness())).c_str(),
      FormatDuration(m.max_tardiness).c_str());

  if (groups != nullptr && !groups->groups().empty()) {
    size_t members = 0, stragglers = 0, lag = 0;
    for (const GroupSpec& spec : groups->groups()) {
      if (const fanout::GroupRelay* relay = groups->relay(spec.name)) {
        members += relay->member_count();
        stragglers += relay->straggler_count();
        lag += relay->straggler_lag();
      }
    }
    out += StrFormat(
        "groups: %zu group(s) covering %zu member(s), %zu straggler(s) "
        "owed %zu file(s)\n",
        groups->groups().size(), members, stragglers, lag);
  }

  out += "feeds:\n";
  for (const RegisteredFeed* feed : server->registry()->feeds()) {
    FeedProgress p = server->monitor()->Progress(feed->spec.name);
    out += StrFormat("  %-24s %6llu files %10s  pattern %s",
                     feed->spec.name.c_str(), (unsigned long long)p.files,
                     HumanBytes(p.bytes).c_str(), feed->spec.pattern.c_str());
    if (!feed->spec.alt_patterns.empty()) {
      out += StrFormat(" (+%zu alternates)", feed->spec.alt_patterns.size());
    }
    if (p.est_period > 0) {
      out += StrFormat("  period ~%s", FormatDuration(p.est_period).c_str());
    }
    if (p.stalled) out += "  [STALLED]";
    out += "\n";
  }

  out += "subscribers:\n";
  for (const SubscriberSpec& sub : server->registry()->subscribers()) {
    bool offline = server->delivery()->IsOffline(sub.name);
    out += StrFormat(
        "  %-24s %-7s %s  interests: %s\n", sub.name.c_str(),
        offline ? "OFFLINE" : "online",
        sub.method == DeliveryMethod::kPush ? "push  " : "notify",
        Join(sub.feeds, ", ").c_str());
  }

  // Latency histograms with data, from the shared registry.
  bool wrote_header = false;
  for (const MetricSnapshot& m : server->metrics()->Collect()) {
    if (m.type != MetricSnapshot::Type::kHistogram || m.count == 0) continue;
    if (!wrote_header) {
      out += "latency histograms:\n";
      wrote_header = true;
    }
    out += StrFormat("  %-44s n=%-7llu p50=%-12s p95=%-12s p99=%-12s max=%s\n",
                     m.name.c_str(), (unsigned long long)m.count,
                     FormatDuration(m.p50).c_str(),
                     FormatDuration(m.p95).c_str(),
                     FormatDuration(m.p99).c_str(),
                     FormatDuration(m.max).c_str());
  }

  // Per-feed pipeline stage rollups from the file tracer.
  auto feeds_with_traces = server->tracer()->RolledUpFeeds();
  if (!feeds_with_traces.empty()) {
    out += "pipeline stage latency by feed (mean/max):\n";
    for (const FeedName& feed : feeds_with_traces) {
      auto rollup = server->tracer()->FeedRollup(feed);
      out += StrFormat("  %-24s", feed.c_str());
      for (size_t i = 1; i < kNumPipelineStages; ++i) {
        if (rollup[i].count == 0) continue;
        out += StrFormat(
            " %s %s/%s", PipelineStageName(static_cast<PipelineStage>(i)).data(),
            FormatDuration(rollup[i].Mean()).c_str(),
            FormatDuration(rollup[i].max).c_str());
      }
      out += "\n";
    }
  }
  return out;
}

std::string RenderDeadLetters(BistroServer* server) {
  const std::vector<TransferJob>& dead = server->delivery()->dead_letters();
  if (dead.empty()) return "dead-letter queue empty\n";
  std::string out = StrFormat("=== Dead letters (%zu) ===\n", dead.size());
  for (const TransferJob& job : dead) {
    out += StrFormat("  file %-8llu %-32s -> %-20s feed %-16s %s, %d attempts\n",
                     (unsigned long long)job.file_id, job.name.c_str(),
                     job.subscriber.c_str(), job.feed.c_str(),
                     HumanBytes(job.size).c_str(), job.attempts);
  }
  return out;
}

std::string RenderSubscriptions(BistroServer* server,
                                fanout::GroupManager* groups) {
  std::string out = "=== Subscriptions ===\n";
  size_t individuals = 0;
  for (const SubscriberSpec& sub : server->registry()->subscribers()) {
    if (groups != nullptr && groups->relay(sub.name) != nullptr) {
      continue;  // rendered below as a group
    }
    ++individuals;
  }
  out += StrFormat("individual subscribers: %zu\n", individuals);
  if (groups == nullptr || groups->groups().empty()) {
    out += "groups: none\n";
  } else {
    out += "groups:\n";
    for (const GroupSpec& spec : groups->groups()) {
      const fanout::GroupRelay* relay = groups->relay(spec.name);
      if (relay == nullptr) continue;
      out += StrFormat(
          "  %-20s %4zu member(s)  cursor %-8llu acked %-7llu "
          "stragglers %zu (owed %zu)  interests: %s\n",
          spec.name.c_str(), relay->member_count(),
          (unsigned long long)relay->cursor(),
          (unsigned long long)relay->files_acked(), relay->straggler_count(),
          relay->straggler_lag(), Join(spec.feeds, ", ").c_str());
      for (const fanout::GroupMemberStats& m : relay->member_stats()) {
        std::string flag =
            m.straggler ? StrFormat(" [STRAGGLER, owes %zu]", m.missed)
                        : std::string();
        out += StrFormat("    - %-20s delivered %-7llu%s\n", m.name.c_str(),
                         (unsigned long long)m.delivered, flag.c_str());
      }
    }
  }
  return out;
}

std::string RenderClassifier(BistroServer* server) {
  FeedClassifier* classifier = server->classifier();
  ClassifierStats stats = classifier->stats();
  std::string out = "=== Classifier ===\n";
  out += StrFormat("files classified: %llu (%llu matched, %llu unmatched)\n",
                   (unsigned long long)stats.files,
                   (unsigned long long)stats.matched,
                   (unsigned long long)stats.unmatched);
  double per_file = stats.files == 0
                        ? 0.0
                        : static_cast<double>(stats.candidate_checks) /
                              static_cast<double>(stats.files);
  out += StrFormat("candidate pattern checks: %llu (%.2f per file)\n",
                   (unsigned long long)stats.candidate_checks, per_file);
  std::shared_ptr<const FeedAutomaton> automaton = classifier->automaton();
  if (automaton != nullptr) {
    const AutomatonStats& a = automaton->stats();
    out += StrFormat("automaton: %zu pattern(s) over %zu feed(s)\n",
                     a.patterns, automaton->feed_count());
    out += StrFormat("  dfa states: %zu (%zu dense, %zu sparse rows)\n",
                     a.dfa_states, a.dense_rows, a.sparse_rows);
    out += StrFormat("  accept sets: %zu\n", a.accept_sets);
    out += StrFormat("  residual: %zu pattern(s) of %zu feed(s)\n",
                     a.residual_patterns, a.residual_feeds);
    out += StrFormat("  table memory: %s\n", HumanBytes(a.memory_bytes).c_str());
    out += StrFormat("  last compile: %llu us\n",
                     (unsigned long long)a.compile_micros);
  }
  return out;
}

std::string RenderPlans(BistroServer* server) {
  PlanRuntime* plans = server->plans();
  if (plans == nullptr) return "no ingestion plans configured\n";
  std::shared_ptr<const CompiledPlans> snap = plans->snapshot();
  PlanStats stats = plans->stats();
  std::string out = "=== Ingestion plans ===\n";
  out += StrFormat("governed feeds: %zu (%llu rebuild(s))\n",
                   stats.governed_feeds, (unsigned long long)stats.rebuilds);
  if (snap != nullptr) {
    for (const auto& [feed, fp] : snap->feeds) {
      out += StrFormat("  %-24s (plan %s)\n", feed.c_str(),
                       fp.selector.c_str());
      if (fp.quota != nullptr) {
        std::string budget;
        if (fp.quota->file_capacity() > 0) {
          budget += StrFormat("%lld file(s)",
                              (long long)fp.quota->file_capacity());
        }
        if (fp.quota->byte_capacity() > 0) {
          if (!budget.empty()) budget += " + ";
          budget += HumanBytes(
              static_cast<uint64_t>(fp.quota->byte_capacity()));
        }
        out += StrFormat("    quota: %s per %s (shared across plan %s)\n",
                         budget.c_str(),
                         FormatDuration(fp.quota->interval()).c_str(),
                         fp.selector.c_str());
      }
      if (fp.sample_keep_bp < 10000) {
        out += StrFormat("    sample: keep %.2f%%\n",
                         fp.sample_keep_bp / 100.0);
      }
      if (fp.transform) {
        const NormalizeSpec& t = fp.transform->spec();
        const char* action =
            t.action == CompressionAction::kCompress     ? "compress"
            : t.action == CompressionAction::kDecompress ? "decompress"
                                                         : "passthrough";
        out += StrFormat("    transform: %s (%s)\n", action,
                         std::string(CodecKindName(t.codec)).c_str());
      }
      if (!fp.route.empty()) {
        out += StrFormat("    route: %s\n", Join(fp.route, ", ").c_str());
      }
      if (!fp.split.empty()) {
        std::string arms;
        for (const PlanSplitArm& arm : fp.split) {
          if (!arms.empty()) arms += ", ";
          arms += StrFormat("%d%% -> %s", arm.percent, arm.to.c_str());
        }
        out += StrFormat("    split: %s\n", arms.c_str());
      }
      if (!fp.slo.empty()) {
        out += StrFormat("    slo: %s (deadline x%d/%d)\n", fp.slo.c_str(),
                         fp.deadline_scale_num, fp.deadline_scale_den);
      }
      if (fp.replicate > 0) {
        out += StrFormat("    replicate: %d\n", fp.replicate);
      }
      if (!fp.enrich.empty()) {
        std::string ops;
        for (EnrichOp op : fp.enrich) {
          if (!ops.empty()) ops += ", ";
          ops += op == EnrichOp::kProvenance ? "provenance" : "checksum";
        }
        out += StrFormat("    enrich: %s\n", ops.c_str());
      }
    }
  }
  out += StrFormat(
      "activity: %llu quota-shed, %llu sampled out, %llu route-filtered, "
      "%llu split-routed, %llu enriched, %llu transformed\n",
      (unsigned long long)stats.quota_shed,
      (unsigned long long)stats.sampled_out,
      (unsigned long long)stats.route_filtered,
      (unsigned long long)stats.split_routed,
      (unsigned long long)stats.enriched,
      (unsigned long long)stats.transformed);
  return out;
}

std::string ExecuteAdminCommand(BistroServer* server,
                                const std::string& command,
                                FederationRuntime* federation,
                                fanout::GroupManager* groups) {
  std::string cmd(Trim(command));
  if (cmd == "status") return RenderStatusReport(server, groups);
  if (cmd == "classifier") return RenderClassifier(server);
  if (cmd == "subscriptions") return RenderSubscriptions(server, groups);
  if (cmd == "deadletters") return RenderDeadLetters(server);
  if (cmd == "redrive") {
    size_t n = server->delivery()->dead_letters().size();
    server->delivery()->RedriveDeadLetters();
    return StrFormat("redriven %zu dead-letter job(s)\n", n);
  }
  if (cmd == "peers") {
    if (federation == nullptr) return "no federation peers wired\n";
    return federation->RenderPeers();
  }
  if (cmd == "plans") return RenderPlans(server);
  if (cmd == "help") {
    return "commands: status | classifier | subscriptions | deadletters | "
           "redrive | peers | plans | help\n";
  }
  return StrFormat("unknown admin command: '%s' (try 'help')\n", cmd.c_str());
}

}  // namespace bistro
