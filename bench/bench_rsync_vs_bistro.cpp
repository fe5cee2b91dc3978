// Experiment E2 (paper §2.2.2, §4.2): rsync/cron delivery vs Bistro's
// receipt-database delivery queues.
//
// Claim: rsync keeps no state, so every sync cycle rescans the full
// history on both sides — "the cost of the directory scan grows linearly
// and completely dominates the actual data transmission time". Bistro
// computes a subscriber's queue from the arrival/delivery receipt
// database, so per-cycle cost tracks the number of UNDELIVERED files,
// not the history size. Also reproduces cron's job-overlap pathology.

#include <cstdio>

#include "baseline/rsync_like.h"
#include "common/strings.h"
#include "kv/receipts.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

// Records one arrival as a group of one; the database assigns ids 1, 2,
// ... in commit order.
FileId Arrive(ReceiptDatabase* db, ArrivalReceipt r) {
  std::vector<ArrivalReceipt> group = {std::move(r)};
  return db->RecordArrivalGroup(&group).ok() ? group[0].file_id : 0;
}

void ScanCostSweep() {
  std::printf("--- E2a: per-cycle cost vs stored history (10 new files/cycle) ---\n");
  std::printf("%10s %24s %26s\n", "history",
              "rsync entries scanned/cycle", "bistro receipts touched/cycle");
  for (size_t history : {1000u, 5000u, 20000u, 100000u}) {
    // rsync side.
    InMemoryFileSystem src, dst;
    for (size_t i = 0; i < history; ++i) {
      (void)src.WriteFile(StrFormat("/data/f%07zu.csv", i), "x");
    }
    RsyncLike sync(&src, "/data", &dst, "/mirror");
    (void)sync.Sync();  // initial mirror
    for (size_t i = 0; i < 10; ++i) {
      (void)src.WriteFile(StrFormat("/data/new%03zu.csv", i), "x");
    }
    auto stats = sync.Sync();
    uint64_t rsync_scanned =
        stats.ok() ? stats->source_entries_scanned + stats->dest_entries_scanned
                   : 0;

    // Bistro side: the same history as receipts, all delivered; 10 new
    // arrivals undelivered. Queue computation touches the feed index +
    // the undelivered receipts.
    InMemoryFileSystem fs;
    auto db = ReceiptDatabase::Open(&fs, "/db");
    for (size_t i = 0; i < history; ++i) {
      ArrivalReceipt r;
      r.name = StrFormat("f%07zu.csv", i);
      r.staged_path = "/staging/" + r.name;
      r.arrival_time = static_cast<TimePoint>(i);
      r.feeds = {"F"};
      FileId id = Arrive(db->get(), r);
      (void)(*db)->RecordDeliveryGroup({{"sub", id, r.arrival_time}});
    }
    for (size_t i = 0; i < 10; ++i) {
      ArrivalReceipt r;
      r.name = StrFormat("new%03zu.csv", i);
      r.staged_path = "/staging/" + r.name;
      r.arrival_time = static_cast<TimePoint>(history + i);
      r.feeds = {"F"};
      (void)Arrive(db->get(), r);
    }
    // In the real engine new arrivals are pushed directly; the queue
    // recompute below is the recovery path. Either way the expensive part
    // is proportional to undelivered files; we report the queue length
    // (receipts materialized) as "touched".
    auto queue = (*db)->ComputeDeliveryQueue("sub", {"F"});
    std::printf("%10zu %24llu %26zu\n", history,
                (unsigned long long)rsync_scanned, queue.size());
  }
  std::printf("(note: Bistro's feed index scan is an ordered prefix scan; "
              "the materialized receipts — the dominant cost — track only "
              "the 10 undelivered files)\n");
}

void WallClockSweep() {
  std::printf("\n--- E2b: steady-state cycle wall time, rsync vs receipts ---\n");
  std::printf("%10s %18s %22s\n", "history", "rsync cycle", "bistro queue compute");
  for (size_t history : {1000u, 10000u, 50000u}) {
    InMemoryFileSystem src, dst;
    for (size_t i = 0; i < history; ++i) {
      (void)src.WriteFile(StrFormat("/data/f%07zu.csv", i), "x");
    }
    RsyncLike sync(&src, "/data", &dst, "/mirror");
    (void)sync.Sync();
    RealClock rc;
    TimePoint t0 = rc.Now();
    (void)sync.Sync();
    Duration rsync_time = rc.Now() - t0;

    InMemoryFileSystem fs;
    auto db = ReceiptDatabase::Open(&fs, "/db");
    for (size_t i = 0; i < history; ++i) {
      ArrivalReceipt r;
      r.name = StrFormat("f%07zu.csv", i);
      r.feeds = {"F"};
      FileId id = Arrive(db->get(), r);
      (void)(*db)->RecordDeliveryGroup({{"sub", id, 0}});
    }
    t0 = rc.Now();
    auto queue = (*db)->ComputeDeliveryQueue("sub", {"F"});
    Duration bistro_time = rc.Now() - t0;
    std::printf("%10zu %18s %22s\n", history,
                FormatDuration(rsync_time).c_str(),
                FormatDuration(bistro_time).c_str());
  }
}

void CronOverlap() {
  std::printf("\n--- E2c: cron overlap as history grows (cron interval 5m) ---\n");
  std::printf("%10s %14s %18s\n", "history", "cycle time", "overlapping runs");
  for (size_t history : {10000u, 50000u, 200000u, 800000u}) {
    // Model: a sync cycle costs 0.5ms of wall time per entry scanned
    // (remote metadata-bound), converted to simulated job duration.
    Duration cycle = static_cast<Duration>(history) * 500 + 10 * kSecond;
    CronRunner cron(5 * kMinute, [&](TimePoint) { return cycle; });
    cron.AdvanceTo(12 * kHour);
    std::printf("%10zu %14s %16llu/%llu\n", history,
                FormatDuration(cycle).c_str(),
                (unsigned long long)cron.overlapping_runs(),
                (unsigned long long)cron.runs());
  }
  std::printf("(Bistro's event-driven delivery has no fixed-interval jobs "
              "to overlap)\n");
}

}  // namespace

int main() {
  std::printf("=== E2: rsync/cron vs Bistro receipt-based delivery ===\n\n");
  ScanCostSweep();
  WallClockSweep();
  CronOverlap();
  return 0;
}
