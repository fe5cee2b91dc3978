// bistrod — a deployable Bistro feed-management daemon.
//
// Runs a BistroServer over the local filesystem under the real clock:
// loads a configuration file, watches the landing zone for files from
// non-cooperating sources, runs maintenance (window expiry, stall
// alarms), periodic feed analysis, and prints a status report on a fixed
// cadence. Subscribers are delivered into local destination directories
// (the `destination` attribute); trigger commands run via the shell.
//
// Usage:
//   bistrod --config feeds.conf --root /var/bistro
//           [--scan-interval 10s] [--status-interval 60s]
//           [--window 7d] [--duration 0 (run forever)]
//           [--listen ip:port (accept Bistro-to-Bistro connections;
//            overrides the config's server { listen; })]
//           [--port-file <path> (write the bound listen port, for
//            ephemeral-port orchestration)]
//           [--durable (fsync staged files and receipt WAL writes)]
//           [--metrics-json <path> (dump a metrics snapshot on shutdown)]
//           [--admin-file <path> (poll for operator commands: status,
//            deadletters, redrive, peers — one per line; file is consumed)]
//
// Layout under --root: landing/ staging/ db/ plus one directory per
// subscriber without an absolute `destination`.
//
// Federation: a config with a `server { listen; }` block (or --listen)
// accepts feeds from upstream Bistro servers; `peer <name> { ... }`
// blocks push this server's feeds to downstream ones. Both run over the
// TCP socket transport; a config with neither stays purely local.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>

#include "analyzer/daemon.h"
#include "common/strings.h"
#include "config/parser.h"
#include "core/admin.h"
#include "core/server.h"
#include "fanout/group.h"
#include "federation/federation.h"
#include "federation/health.h"
#include "net/socket_transport.h"
#include "obs/export.h"
#include "vfs/localfs.h"

using namespace bistro;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

struct Args {
  std::string config_path;
  std::string root = "/tmp/bistro";
  Duration scan_interval = 10 * kSecond;
  Duration status_interval = 60 * kSecond;
  Duration window = 0;
  Duration duration = 0;  // 0 = run until signal
  std::string listen;     // overrides config server { listen; }
  std::string port_file;  // write the bound listen port here
  bool durable = false;   // fsync staging + receipt WAL
  std::string metrics_json_path;  // empty = no snapshot
  std::string admin_file;         // empty = no admin console
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--config") {
      const char* v = next();
      if (v == nullptr) return false;
      args->config_path = v;
    } else if (flag == "--root") {
      const char* v = next();
      if (v == nullptr) return false;
      args->root = v;
    } else if (flag == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->metrics_json_path = v;
    } else if (flag == "--admin-file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->admin_file = v;
    } else if (flag == "--listen") {
      const char* v = next();
      if (v == nullptr) return false;
      args->listen = v;
    } else if (flag == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      args->port_file = v;
    } else if (flag == "--durable") {
      args->durable = true;
    } else if (flag == "--scan-interval" || flag == "--status-interval" ||
               flag == "--window" || flag == "--duration") {
      const char* v = next();
      if (v == nullptr) return false;
      auto d = ParseDuration(v);
      if (!d) {
        std::fprintf(stderr, "bad duration for %s: %s\n",
                     std::string(flag).c_str(), v);
        return false;
      }
      if (flag == "--scan-interval") args->scan_interval = *d;
      if (flag == "--status-interval") args->status_interval = *d;
      if (flag == "--window") args->window = *d;
      if (flag == "--duration") args->duration = *d;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(flag).c_str());
      return false;
    }
  }
  return !args->config_path.empty();
}

void Usage() {
  std::fprintf(stderr,
               "usage: bistrod --config <file> [--root <dir>] "
               "[--scan-interval 10s]\n"
               "               [--status-interval 60s] [--window 7d] "
               "[--duration 0]\n"
               "               [--listen ip:port] [--port-file <path>] "
               "[--durable]\n"
               "               [--metrics-json <path>] [--admin-file <path>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  LocalFileSystem fs;
  RealClock clock;
  EventLoop loop(&clock);
  Logger logger(&clock);
  logger.AddSink(std::make_shared<StderrSink>());
  CommandInvoker invoker(&logger);

  auto config_text = fs.ReadFile(args.config_path);
  if (!config_text.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", args.config_path.c_str(),
                 config_text.status().ToString().c_str());
    return 1;
  }
  auto config = ParseConfig(*config_text);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  if (!args.listen.empty()) config->server.listen = args.listen;

  // One transport carries everything: local subscriber sinks (loopback
  // semantics) plus federated peers and inbound upstreams over TCP.
  // Different processes draw different reconnect jitter.
  SocketTransport transport(
      &loop, SocketOptionsFromSpec(config->server,
                                   static_cast<uint64_t>(getpid())));
  if (Status s = transport.Listen(); !s.ok()) {
    std::fprintf(stderr, "listen error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (transport.listen_port() >= 0) {
    std::fprintf(stderr, "listening for peers on %s (port %d)\n",
                 config->server.listen.c_str(), transport.listen_port());
    if (!args.port_file.empty()) {
      // Written atomically: orchestration polls for the file and must
      // never read a half-written port.
      std::string tmp = args.port_file + ".tmp";
      Status wrote =
          fs.WriteFile(tmp, std::to_string(transport.listen_port()) + "\n");
      if (wrote.ok()) wrote = fs.Rename(tmp, args.port_file);
      if (!wrote.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", args.port_file.c_str(),
                     wrote.ToString().c_str());
        return 1;
      }
    }
  }

  // Local subscribers: deliver into their destination directories.
  std::vector<std::unique_ptr<FileSinkEndpoint>> sinks;
  std::map<std::string, Endpoint*> local_endpoints;
  for (const SubscriberSpec& sub : config->subscribers) {
    std::string dest = sub.destination.empty()
                           ? path::Join(args.root, "subscribers/" + sub.name)
                           : sub.destination;
    sinks.push_back(std::make_unique<FileSinkEndpoint>(&fs, dest));
    transport.Register(sub.host.empty() ? sub.name : sub.host,
                       sinks.back().get());
    local_endpoints[sub.name] = sinks.back().get();
    std::fprintf(stderr, "subscriber %s -> %s\n", sub.name.c_str(),
                 dest.c_str());
  }

  BistroServer::Options options;
  options.landing_root = path::Join(args.root, "landing");
  options.staging_root = path::Join(args.root, "staging");
  options.db_dir = path::Join(args.root, "db");
  options.history_window = args.window;
  if (args.durable) {
    // A receipt must never outlive the bytes (or vice versa) across a
    // crash — the exactly-once federation argument leans on this.
    options.sync_staging = true;
    options.kv.sync_wal = true;
  }
  auto server = BistroServer::Create(options, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "server error: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  // Subscriber groups: members without a subscriber block of their own
  // land under root/subscribers/<member>, like destination-less
  // subscribers.
  std::vector<std::unique_ptr<FileSinkEndpoint>> member_sinks;
  fanout::GroupManager groups(server->get(), &fs, &loop, &logger);
  fanout::GroupManager* group_view = nullptr;  // set once groups are wired
  if (!config->groups.empty()) {
    Status wired = groups.Wire(
        config->groups,
        [&](const std::string& member) -> Endpoint* {
          if (auto it = local_endpoints.find(member);
              it != local_endpoints.end()) {
            return it->second;
          }
          member_sinks.push_back(std::make_unique<FileSinkEndpoint>(
              &fs, path::Join(args.root, "subscribers/" + member)));
          return member_sinks.back().get();
        },
        [&](const std::string& name, Endpoint* ep) {
          transport.Register(name, ep);
        });
    if (!wired.ok()) {
      std::fprintf(stderr, "group error: %s\n", wired.ToString().c_str());
      return 1;
    }
    groups.AttachMetrics((*server)->metrics());
    group_view = &groups;
    for (const GroupSpec& g : config->groups) {
      std::fprintf(stderr, "group %s -> %zu member(s)\n", g.name.c_str(),
                   g.members.size());
    }
  }

  // Files arriving from upstream Bistro servers enter through the same
  // ingest path as local deposits, deduped by arrival receipt.
  FederationInbound inbound(server->get(), &logger);
  inbound.AttachMetrics((*server)->metrics());
  transport.SetInboundEndpoint(&inbound);
  // Wires peers and runs the peer health state machine: suspect/down
  // transitions, circuit-broken sends, and `failover` re-routing.
  FederationRuntime federation(server->get(), &transport, &loop, &logger);
  if (Status s = federation.Start(*config); !s.ok()) {
    std::fprintf(stderr, "federation error: %s\n", s.ToString().c_str());
    return 1;
  }
  (*server)->StartMaintenanceTimer();
  AnalyzerDaemon::Options analyzer_opts;
  analyzer_opts.ApplyTuning(config->analyzer);
  AnalyzerDaemon analyzer(server->get(), &loop, &logger, analyzer_opts);
  analyzer.Start();

  std::fprintf(stderr,
               "bistrod running: root=%s feeds=%zu subscribers=%zu "
               "groups=%zu (deposit files under %s/<source>/)\n",
               args.root.c_str(), config->feeds.size(),
               config->subscribers.size(), config->groups.size(),
               options.landing_root.c_str());
  if (PlanRuntime* plans = (*server)->plans()) {
    std::fprintf(stderr, "ingestion plans: %zu block(s) governing %zu feed(s)\n",
                 config->plans.size(), plans->stats().governed_feeds);
  }

  TimePoint started = clock.Now();
  TimePoint next_scan = started;
  TimePoint next_status = started + args.status_interval;
  while (g_stop == 0) {
    TimePoint now = clock.Now();
    if (args.duration > 0 && now - started >= args.duration) break;
    if (now >= next_scan) {
      auto n = (*server)->ScanLandingZone();
      if (n.ok() && *n > 0) {
        std::fprintf(stderr, "ingested %zu file(s) from the landing zone\n", *n);
      }
      next_scan = now + args.scan_interval;
    }
    if (now >= next_status) {
      std::fputs(RenderStatusReport(server->get(), group_view).c_str(), stderr);
      next_status = now + args.status_interval;
    }
    // Operator console: another process drops commands (one per line)
    // into --admin-file; we execute them, print the results, and remove
    // the file so the next drop starts fresh.
    if (!args.admin_file.empty() && fs.Exists(args.admin_file)) {
      auto commands = fs.ReadFile(args.admin_file);
      (void)fs.Delete(args.admin_file);
      if (commands.ok()) {
        for (const std::string& line : Split(*commands, '\n')) {
          if (Trim(line).empty()) continue;
          std::fputs(ExecuteAdminCommand(server->get(), line, &federation,
                                         group_view)
                         .c_str(),
                     stderr);
        }
      }
    }
    // Run events and socket readiness for one tick; cross-thread posts,
    // peer traffic, and signals all interrupt the wait promptly.
    loop.RunFor(200 * kMillisecond);
  }

  std::fprintf(stderr, "bistrod shutting down\n");
  (*server)->delivery()->FlushBatches();
  loop.RunUntil(clock.Now());
  transport.Shutdown();
  std::fputs(RenderStatusReport(server->get(), group_view).c_str(), stderr);
  if (!args.metrics_json_path.empty()) {
    Status s = fs.WriteFile(args.metrics_json_path,
                            ExportJson((*server)->metrics()));
    if (!s.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   args.metrics_json_path.c_str(), s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 args.metrics_json_path.c_str());
  }
  return 0;
}
