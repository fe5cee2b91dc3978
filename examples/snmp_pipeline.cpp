// The paper's running example at scale: an SNMP measurement pipeline.
//
// Simulates a fleet of SNMP pollers producing CPU / MEMORY / BPS
// statistics every 5 minutes (with dropouts and late files), a Bistro
// server classifying and delivering them, and two subscribers: a
// streaming warehouse with combined count+time batch triggers and a
// real-time dashboard using per-file notifications. Runs four hours of
// simulated feed traffic deterministically, then prints a report.
//
//   ./build/examples/snmp_pipeline

#include <cstdio>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "sim/sources.h"
#include "warehouse/warehouse.h"
#include "vfs/memfs.h"

using namespace bistro;

int main() {
  TimePoint start = FromCivil(CivilTime{2010, 9, 25, 0, 0, 0});
  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kWarning);
  logger.AddSink(std::make_shared<StderrSink>());
  Rng rng(2011);

  auto config = ParseConfig(R"(
group SNMP {
  feed CPU    { pattern "CPU_POLL%i_%Y%m%d%H%M.txt";    tardiness 60s; }
  feed MEMORY { pattern "MEMORY_POLL%i_%Y%m%d%H%M.txt"; tardiness 60s; compress lz; }
  feed BPS    { pattern "BPS_POLL%i_%Y%m%d%H%M.txt";    tardiness 30s; }
}
subscriber warehouse {
  feeds SNMP;
  method push;
  trigger batch count 4 timeout 2m exec "update_partitions";
}
subscriber dashboard {
  feeds SNMP.CPU, SNMP.BPS;
  method notify;
}
)");
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }

  // The warehouse subscriber is a real (miniature) streaming data
  // warehouse: 5-minute partitions recomputed when its batch trigger
  // fires — the paper's motivating application (§2.3).
  StreamWarehouse warehouse(5 * kMinute);
  FileSinkEndpoint dashboard(&fs, "/dashboard");
  transport.Register("warehouse", &warehouse);
  transport.Register("dashboard", &dashboard);

  invoker.Register("update_partitions", [&](const BatchEvent& batch) {
    (void)batch;
    warehouse.RecomputeDirty();
    return Status::OK();
  });

  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  (*server)->StartMaintenanceTimer();

  // Three poller fleets, one per statistic. 4 pollers each, 5-minute
  // intervals, 2% dropout, occasional late files.
  auto deposit = [&](const std::string& source, const std::string& name,
                     std::string content) {
    Status s = (*server)->Deposit(source, name, std::move(content));
    if (!s.ok()) std::fprintf(stderr, "deposit: %s\n", s.ToString().c_str());
  };
  std::vector<std::unique_ptr<PollerFleet>> fleets;
  for (const char* metric : {"CPU", "MEMORY", "BPS"}) {
    PollerFleet::Options opts;
    opts.metric = metric;
    opts.source = std::string(metric) + "_pollers";
    opts.num_pollers = 4;
    opts.period = 5 * kMinute;
    opts.dropout_prob = 0.02;
    opts.late_prob = 0.01;
    opts.max_delay = 20 * kSecond;
    opts.file_size = 2000;
    fleets.push_back(
        std::make_unique<PollerFleet>(&loop, &rng, opts, deposit));
  }
  const Duration kRun = 4 * kHour;
  for (auto& fleet : fleets) fleet->ScheduleInterval(start, start + kRun);

  loop.RunUntil(start + kRun + 10 * kMinute);
  (*server)->delivery()->FlushBatches();
  // Bounded drain: the periodic maintenance timer re-posts itself, so the
  // loop never reaches "idle" — run one more minute instead.
  loop.RunUntil(start + kRun + 11 * kMinute);

  // ---- Report ----
  const ServerStats& stats = (*server)->stats();
  const DeliveryStats& d = (*server)->delivery_stats();
  const SchedulerMetrics& sched = (*server)->scheduler_metrics();
  std::printf("=== SNMP pipeline: %s of simulated traffic ===\n",
              FormatDuration(kRun).c_str());
  std::printf("files received:      %llu (%s)\n",
              (unsigned long long)stats.files_received,
              HumanBytes(stats.bytes_received).c_str());
  std::printf("classified:          %llu   unmatched: %llu\n",
              (unsigned long long)stats.files_classified,
              (unsigned long long)stats.files_unmatched);
  std::printf("deliveries (push):   %llu   notifications: %llu\n",
              (unsigned long long)d.files_delivered,
              (unsigned long long)d.notifications_sent);
  std::printf("batches closed:      %llu   partition recomputations: %llu "
              "(%zu partitions)\n",
              (unsigned long long)d.batches_closed,
              (unsigned long long)warehouse.total_recomputes(),
              warehouse.partition_count());
  std::printf("late deliveries:     %llu / %llu (%.2f%%), max tardiness %s\n",
              (unsigned long long)sched.late,
              (unsigned long long)sched.completed,
              100.0 * sched.LateFraction(),
              FormatDuration(sched.max_tardiness).c_str());
  // One sample warehouse partition, proving rows flowed end to end.
  auto sample = warehouse.View(start + kHour);
  if (sample.ok()) {
    std::printf("sample warehouse partition %s: %llu rows from %llu files, "
                "%zu entities\n",
                FormatTime(sample->start).c_str(),
                (unsigned long long)sample->rows,
                (unsigned long long)sample->raw_files,
                sample->by_entity.size());
  }
  std::printf("\nper-feed progress (monitor; STALLED flags are expected —\n"
              "traffic stopped 11 minutes before this snapshot):\n");
  for (const auto& p : (*server)->monitor()->AllProgress()) {
    std::printf("  %-12s %5llu files  %9s  period ~%s%s\n", p.feed.c_str(),
                (unsigned long long)p.files, HumanBytes(p.bytes).c_str(),
                FormatDuration(p.est_period).c_str(),
                p.stalled ? "  [STALLED]" : "");
  }
  return 0;
}
