// Quickstart: the smallest useful Bistro deployment.
//
// Defines one feed and one subscriber in the Bistro configuration
// language, starts a server over the local filesystem in a temporary
// directory, deposits three files as a data source would, and shows the
// delivery results. Runs live under the real clock.
//
//   ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/localfs.h"

using namespace bistro;

int main() {
  // 1. A workspace on the real filesystem.
  char tmpl[] = "/tmp/bistro_quickstart_XXXXXX";
  std::string root = mkdtemp(tmpl);
  std::printf("workspace: %s\n", root.c_str());

  // 2. Configuration: one CPU-measurement feed, one warehouse subscriber
  //    with a count-based batch trigger.
  std::string config_text = R"(
feed CPU {
  pattern "CPU_POLL%i_%Y%m%d%H%M.txt";
  normalize "%Y/%m/%d/CPU_POLL%i_%H%M.txt";
  tardiness 30s;
}
subscriber warehouse {
  feeds CPU;
  method push;
  trigger batch count 3 timeout 1m exec "load_partitions";
}
)";
  auto config = ParseConfig(config_text);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n", config.status().ToString().c_str());
    return 1;
  }

  // 3. Wire the server: local filesystem, in-process transport, real time.
  LocalFileSystem fs;
  RealClock clock;
  EventLoop loop(&clock);
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.AddSink(std::make_shared<StderrSink>());

  invoker.Register("load_partitions", [](const BatchEvent& batch) {
    std::printf(">>> trigger: load %zu files for interval %s into %s\n",
                batch.files.size(), FormatTime(batch.batch_time).c_str(),
                batch.subscriber.c_str());
    return Status::OK();
  });

  FileSinkEndpoint warehouse(&fs, path::Join(root, "warehouse"));
  transport.Register("warehouse", &warehouse);

  BistroServer::Options options;
  options.landing_root = path::Join(root, "landing");
  options.staging_root = path::Join(root, "staging");
  options.db_dir = path::Join(root, "db");
  auto server = BistroServer::Create(options, *config, &fs, &transport, &loop,
                                     &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "server error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  // 4. A data source deposits three poller files (the cooperating-source
  //    protocol: deposit + notify in one call).
  for (int poller = 1; poller <= 3; ++poller) {
    std::string name = StrFormat("CPU_POLL%d_201009250400.txt", poller);
    std::string payload = StrFormat("router_a,cpu,%d\n", 40 + poller);
    Status s = (*server)->Deposit("poller_fleet", name, payload);
    if (!s.ok()) {
      std::fprintf(stderr, "deposit failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("deposited %s\n", name.c_str());
  }

  // 5. Drain the event loop: classification, staging, delivery, trigger.
  //    (Bounded drain: under a real clock the batcher's 1-minute timeout
  //    tick is queued in the future; the count trigger fires immediately.)
  loop.RunUntil(clock.Now() + 2 * kSecond);

  // 6. Inspect the results.
  const ServerStats& stats = (*server)->stats();
  const DeliveryStats& delivery = (*server)->delivery_stats();
  std::printf("\nclassified %llu / %llu files, delivered %llu, batches %llu\n",
              (unsigned long long)stats.files_classified,
              (unsigned long long)stats.files_received,
              (unsigned long long)delivery.files_delivered,
              (unsigned long long)delivery.batches_closed);
  auto delivered = fs.ListRecursive(path::Join(root, "warehouse"));
  if (delivered.ok()) {
    std::printf("warehouse now holds:\n");
    for (const auto& info : *delivered) {
      std::printf("  %s (%llu bytes)\n", info.path.c_str(),
                  (unsigned long long)info.size);
    }
  }
  std::printf("\n(cleanup: rm -rf %s)\n", root.c_str());
  return 0;
}
