// The paper's introduction scenario: a shipping company's feeds.
//
// Four source feeds — package drop-off logs, barcode scans, truck GPS
// readings, and delivery signatures — flow into one Bistro server.
// Three analyst groups subscribe: Atlanta marketing (drop-offs only),
// Dallas operations (scans + GPS), and the corporate warehouse (all
// feeds, batch-triggered loads). The GPS source's handheld uplink drops
// offline mid-run and is backfilled automatically when it returns.
//
//   ./build/examples/shipping_company

#include <cstdio>

#include "common/strings.h"
#include "config/parser.h"
#include "core/server.h"
#include "vfs/memfs.h"

using namespace bistro;

int main() {
  TimePoint start = FromCivil(CivilTime{2011, 6, 12, 8, 0, 0});
  SimClock clock(start);
  EventLoop loop(&clock);
  InMemoryFileSystem fs;
  SimTransport transport(&loop);
  CallbackInvoker invoker;
  Logger logger(&clock);
  logger.SetMinLevel(LogLevel::kInfo);
  logger.AddSink(std::make_shared<StderrSink>());
  Rng rng(7);

  auto config = ParseConfig(R"(
group SHIPPING {
  feed DROPOFF   { pattern "dropoff_center%i_%Y%m%d%H%M.log"; }
  feed BARCODE   { pattern "scan_%s_%Y%m%d%H%M.csv"; compress lz; }
  feed GPS       { pattern "gps_truck%i_%Y%m%d%H%M.nmea"; tardiness 30s; }
  feed SIGNATURE { pattern "sig_%s_%Y%m%d.dat"; }
}
subscriber atlanta_marketing {
  feeds SHIPPING.DROPOFF;
  method push;
}
subscriber dallas_operations {
  feeds SHIPPING.BARCODE, SHIPPING.GPS;
  method push;
  trigger file exec "realtime_alert";
}
subscriber corporate_warehouse {
  feeds SHIPPING;
  method push;
  trigger batch count 6 timeout 10m exec "warehouse_load";
  window 1d;
}
)");
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }

  FileSinkEndpoint atlanta(&fs, "/atlanta");
  FileSinkEndpoint dallas(&fs, "/dallas");
  FileSinkEndpoint corporate(&fs, "/corporate");
  transport.Register("atlanta_marketing", &atlanta);
  transport.Register("dallas_operations", &dallas);
  transport.Register("corporate_warehouse", &corporate);

  uint64_t alerts = 0, loads = 0;
  invoker.Register("realtime_alert", [&](const BatchEvent&) {
    ++alerts;
    return Status::OK();
  });
  invoker.Register("warehouse_load", [&](const BatchEvent&) {
    ++loads;
    return Status::OK();
  });

  auto server = BistroServer::Create(BistroServer::Options(), *config, &fs,
                                     &transport, &loop, &invoker, &logger);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  // Generate a business day of feed files every 10 minutes.
  auto deposit = [&](std::string name, std::string payload) {
    Status s = (*server)->Deposit("operations", name, std::move(payload));
    if (!s.ok()) std::fprintf(stderr, "deposit: %s\n", s.ToString().c_str());
  };
  const Duration kPeriod = 10 * kMinute;
  const int kIntervals = 6 * 6;  // six hours
  for (int i = 0; i < kIntervals; ++i) {
    TimePoint t = start + i * kPeriod;
    CivilTime c = ToCivil(t);
    loop.PostAt(t, [&, c, i] {
      std::string stamp = StrFormat("%04d%02d%02d%02d%02d", c.year, c.month,
                                    c.day, c.hour, c.minute);
      deposit(StrFormat("dropoff_center%d_%s.log", 1 + i % 3, stamp.c_str()),
              "pkg,drop\n");
      deposit(StrFormat("scan_hub%c_%s.csv", 'a' + i % 2, stamp.c_str()),
              std::string(500, 's'));
      deposit(StrFormat("gps_truck%d_%s.nmea", 10 + i % 5, stamp.c_str()),
              "$GPGGA,...\n");
      if (c.minute == 0) {
        deposit(StrFormat("sig_batch%d_%04d%02d%02d.dat", i, c.year, c.month,
                          c.day),
                "signature-blob");
      }
    });
  }

  // The Dallas uplink fails two hours in and recovers an hour later.
  loop.PostAt(start + 2 * kHour, [&] {
    std::fprintf(stderr, "--- dallas uplink goes down ---\n");
    dallas.SetFailing(true);
  });
  loop.PostAt(start + 3 * kHour, [&] {
    std::fprintf(stderr, "--- dallas uplink restored ---\n");
    dallas.SetFailing(false);
  });

  loop.RunUntil(start + 7 * kHour);
  (*server)->delivery()->FlushBatches();
  loop.RunUntilIdle();

  const ServerStats& stats = (*server)->stats();
  const DeliveryStats& d = (*server)->delivery_stats();
  std::printf("=== shipping company, six business hours ===\n");
  std::printf("files received %llu, classified %llu\n",
              (unsigned long long)stats.files_received,
              (unsigned long long)stats.files_classified);
  std::printf("atlanta received   %llu files (drop-offs only)\n",
              (unsigned long long)atlanta.files_received());
  std::printf("dallas received    %llu files (scans+gps; offline 1h, "
              "backfilled %llu)\n",
              (unsigned long long)dallas.files_received(),
              (unsigned long long)d.backfilled);
  std::printf("corporate received %llu files (everything)\n",
              (unsigned long long)corporate.files_received());
  std::printf("real-time alerts: %llu, warehouse loads: %llu\n",
              (unsigned long long)alerts, (unsigned long long)loads);
  std::printf("offline episodes detected: %llu, retries: %llu\n",
              (unsigned long long)d.offline_transitions,
              (unsigned long long)d.retries);
  return 0;
}
