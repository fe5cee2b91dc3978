// Experiment E8 (paper §4.2): reliability machinery costs.
//
// Measures the receipt database's write path (arrival + delivery receipt
// per file), delivery-queue recomputation as a function of backlog size,
// and crash-recovery (WAL replay) time as a function of history size —
// the operations behind "queues can always be recomputed" and "new
// subscribers receive full history".

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "kv/receipts.h"
#include "vfs/memfs.h"

using namespace bistro;

namespace {

ArrivalReceipt MakeReceipt(FileId id) {
  ArrivalReceipt r;
  r.file_id = id;
  r.name = StrFormat("CPU_POLL1_2010092504%02llu.txt",
                     (unsigned long long)(id % 60));
  r.staged_path = "/staging/CPU/" + r.name;
  r.rel_path = "CPU/" + r.name;
  r.size = 50000;
  r.arrival_time = static_cast<TimePoint>(id) * kSecond;
  r.data_time = r.arrival_time - kMinute;
  r.feeds = {"SNMP.CPU"};
  return r;
}

// Records file `id` as an arrival group of one. The database assigns
// ids 1, 2, ... in commit order, so a loop counting up from 1 gets back
// exactly `id`.
Status Arrive(ReceiptDatabase* db, FileId id) {
  std::vector<ArrivalReceipt> group = {MakeReceipt(id)};
  return db->RecordArrivalGroup(&group);
}

// Records the delivery of `id` to "sub" as a group of one.
Status Deliver(ReceiptDatabase* db, FileId id, TimePoint when) {
  return db->RecordDeliveryGroup({{"sub", id, when}});
}

// Write path: one arrival receipt + one delivery receipt, each a group of
// one (the arrival group also carries the id sequence bump).
void BM_ReceiptWritePath(benchmark::State& state) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/db");
  FileId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Arrive(db->get(), id));
    benchmark::DoNotOptimize(
        Deliver(db->get(), id, static_cast<TimePoint>(id) * kSecond));
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}

// Queue recomputation with `range(0)` undelivered files atop a
// fully-delivered history of 50k files.
void BM_QueueRecompute(benchmark::State& state) {
  InMemoryFileSystem fs;
  auto db = ReceiptDatabase::Open(&fs, "/db");
  const FileId kHistory = 50000;
  for (FileId id = 1; id <= kHistory; ++id) {
    (void)Arrive(db->get(), id);
    (void)Deliver(db->get(), id, 0);
  }
  FileId backlog = static_cast<FileId>(state.range(0));
  for (FileId id = kHistory + 1; id <= kHistory + backlog; ++id) {
    (void)Arrive(db->get(), id);
  }
  for (auto _ : state) {
    auto queue = db->get()->ComputeDeliveryQueue("sub", {"SNMP.CPU"});
    benchmark::DoNotOptimize(queue);
    if (queue.size() != backlog) state.SkipWithError("bad queue size");
  }
}

// Recovery: reopen a database whose WAL holds `range(0)` receipts.
void BM_CrashRecovery(benchmark::State& state) {
  InMemoryFileSystem fs;
  {
    KvStore::Options opts;
    opts.checkpoint_wal_bytes = 0;  // force everything through the WAL
    auto db = ReceiptDatabase::Open(&fs, "/db", opts);
    for (FileId id = 1; id <= static_cast<FileId>(state.range(0)); ++id) {
      (void)Arrive(db->get(), id);
    }
  }
  for (auto _ : state) {
    KvStore::Options opts;
    opts.checkpoint_wal_bytes = 0;
    auto db = ReceiptDatabase::Open(&fs, "/db", opts);
    benchmark::DoNotOptimize(db);
    if (!db.ok()) state.SkipWithError("recovery failed");
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// Recovery after checkpoint: the WAL is short regardless of history.
void BM_RecoveryAfterCheckpoint(benchmark::State& state) {
  InMemoryFileSystem fs;
  {
    auto db = ReceiptDatabase::Open(&fs, "/db");
    for (FileId id = 1; id <= static_cast<FileId>(state.range(0)); ++id) {
      (void)Arrive(db->get(), id);
    }
    (void)db->get()->kv()->Checkpoint();
  }
  for (auto _ : state) {
    auto db = ReceiptDatabase::Open(&fs, "/db");
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_ReceiptWritePath);
BENCHMARK(BM_QueueRecompute)->Arg(10)->Arg(1000)->Arg(10000);
BENCHMARK(BM_CrashRecovery)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_RecoveryAfterCheckpoint)->Arg(100000);

BENCHMARK_MAIN();
