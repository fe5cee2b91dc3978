#ifndef BISTRO_CORE_ADMIN_H_
#define BISTRO_CORE_ADMIN_H_

#include <string>

#include "core/server.h"
#include "fanout/group.h"

namespace bistro {

/// Renders a human-readable status report of a running server: per-feed
/// progress (files, volume, learned period, stall state), per-subscriber
/// delivery state (online/offline), pipeline counters and scheduler
/// quality metrics. The operational counterpart of the paper's
/// "extensive logging to track the status of all the feeds" (§3.2) —
/// what an operator reads when an alarm fires. When `groups` is wired, a
/// one-line group rollup joins the delivery section.
std::string RenderStatusReport(BistroServer* server,
                               fanout::GroupManager* groups = nullptr);

/// Renders the fan-out view behind the `subscriptions` command: the
/// individual subscriber count, then each subscriber group's member
/// count, shared delivery cursor, straggler lag and per-member state.
/// `groups` is null when the process wired no groups.
std::string RenderSubscriptions(BistroServer* server,
                                fanout::GroupManager* groups);

/// Renders the delivery dead-letter queue: one line per job that
/// exhausted its retry budget, with the file, subscriber and attempt
/// count an operator needs to decide whether to redrive.
std::string RenderDeadLetters(BistroServer* server);

/// Renders the compiled ingestion-plan table (the `plans` command): each
/// governed feed's lowered stage configuration (quota, sampling,
/// transform, routing/split, SLO class) plus the runtime's counters
/// (rebuilds, quota sheds, sampled-out drops, filtered deliveries).
std::string RenderPlans(BistroServer* server);

class FederationRuntime;

/// Executes one operator console command against a running server and
/// returns the rendered result. Commands:
///   status        — full status report (RenderStatusReport)
///   subscriptions — subscriber group fan-out view (RenderSubscriptions)
///   deadletters   — list parked dead-letter jobs (RenderDeadLetters)
///   redrive       — resubmit every dead-letter job with a fresh budget
///   peers         — per-peer health/wire table (needs a FederationRuntime)
///   plans         — compiled ingestion-plan table (RenderPlans)
///   help          — list available commands
/// Unknown commands return an error string (never crash): this is the
/// dispatch surface behind `bistrod --admin-file`. `federation` may be
/// null (non-federated daemon): `peers` then reports that no peers are
/// wired; likewise `groups` is null for a server without subscriber
/// groups.
std::string ExecuteAdminCommand(BistroServer* server,
                                const std::string& command,
                                FederationRuntime* federation = nullptr,
                                fanout::GroupManager* groups = nullptr);

}  // namespace bistro

#endif  // BISTRO_CORE_ADMIN_H_
