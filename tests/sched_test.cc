// Tests for scheduling: policies (FIFO/EDF/RR), responsiveness tracking,
// and the single-policy vs partitioned schedulers — including the §4.3
// isolation property (a backlogged partition cannot starve another).

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "sched/scheduler.h"

namespace bistro {
namespace {

TransferJob MakeJob(FileId id, const std::string& sub, TimePoint deadline,
                    uint64_t size = 100) {
  TransferJob job;
  job.file_id = id;
  job.subscriber = sub;
  job.feed = "F";
  job.size = size;
  job.arrival_time = 0;
  job.deadline = deadline;
  return job;
}

// ---------------------------------------------------------------- Policies

TEST(PolicyTest, NamesRoundTrip) {
  for (PolicyKind k :
       {PolicyKind::kFifo, PolicyKind::kEdf, PolicyKind::kRoundRobin}) {
    auto parsed = PolicyKindFromName(PolicyKindName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(PolicyKindFromName("lifo").ok());
}

TEST(PolicyTest, FifoOrder) {
  auto p = MakePolicy(PolicyKind::kFifo);
  p->Add(MakeJob(1, "a", 300));
  p->Add(MakeJob(2, "a", 100));
  p->Add(MakeJob(3, "a", 200));
  EXPECT_EQ(p->Next()->file_id, 1u);
  EXPECT_EQ(p->Next()->file_id, 2u);
  EXPECT_EQ(p->Next()->file_id, 3u);
  EXPECT_FALSE(p->Next().has_value());
}

TEST(PolicyTest, EdfOrdersByDeadline) {
  auto p = MakePolicy(PolicyKind::kEdf);
  p->Add(MakeJob(1, "a", 300));
  p->Add(MakeJob(2, "b", 100));
  p->Add(MakeJob(3, "c", 200));
  EXPECT_EQ(p->Next()->file_id, 2u);
  EXPECT_EQ(p->Next()->file_id, 3u);
  EXPECT_EQ(p->Next()->file_id, 1u);
}

TEST(PolicyTest, EdfTiesAreFifo) {
  auto p = MakePolicy(PolicyKind::kEdf);
  p->Add(MakeJob(1, "a", 100));
  p->Add(MakeJob(2, "a", 100));
  EXPECT_EQ(p->Next()->file_id, 1u);
  EXPECT_EQ(p->Next()->file_id, 2u);
}

TEST(PolicyTest, RoundRobinAlternatesSubscribers) {
  auto p = MakePolicy(PolicyKind::kRoundRobin);
  // Subscriber "a" floods the queue; "b" has one job.
  for (FileId i = 1; i <= 5; ++i) p->Add(MakeJob(i, "a", 100));
  p->Add(MakeJob(100, "b", 100));
  std::vector<SubscriberName> order;
  while (auto job = p->Next()) order.push_back(job->subscriber);
  ASSERT_EQ(order.size(), 6u);
  // "b"'s job must appear within the first two pops, not after all of a's.
  EXPECT_TRUE(order[0] == "b" || order[1] == "b");
}

TEST(PolicyTest, NextForFilePullsMatchingJob) {
  for (PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kEdf, PolicyKind::kRoundRobin}) {
    auto p = MakePolicy(kind);
    p->Add(MakeJob(1, "a", 100));
    p->Add(MakeJob(2, "b", 200));
    p->Add(MakeJob(2, "c", 300));
    auto job = p->NextForFile(2);
    ASSERT_TRUE(job.has_value()) << PolicyKindName(kind);
    EXPECT_EQ(job->file_id, 2u);
    EXPECT_EQ(p->Size(), 2u);
    EXPECT_FALSE(p->NextForFile(99).has_value());
  }
}

// ---------------------------------------------------------- Responsiveness

TEST(ResponsivenessTest, TracksThroughputEwma) {
  ResponsivenessTracker t(0.5);
  t.RecordTransfer("s", 1000, kSecond);  // 1000 B/s
  EXPECT_DOUBLE_EQ(t.ThroughputBps("s"), 1000.0);
  t.RecordTransfer("s", 3000, kSecond);  // 3000 B/s -> EWMA 2000
  EXPECT_DOUBLE_EQ(t.ThroughputBps("s"), 2000.0);
  EXPECT_EQ(t.ThroughputBps("unknown"), 0.0);
}

TEST(ResponsivenessTest, FailuresLowerScoreAndSuccessHeals) {
  ResponsivenessTracker t;
  t.RecordTransfer("s", 1000, kSecond);
  double healthy = t.Score("s");
  t.RecordFailure("s");
  t.RecordFailure("s");
  EXPECT_LT(t.Score("s"), healthy);
  EXPECT_EQ(t.ConsecutiveFailures("s"), 2);
  t.RecordTransfer("s", 1000, kSecond);
  EXPECT_EQ(t.ConsecutiveFailures("s"), 0);
  EXPECT_GT(t.Score("s"), t.Score("s") / 2);  // sanity: finite positive
}

TEST(ResponsivenessTest, ResetForgets) {
  ResponsivenessTracker t;
  t.RecordFailure("s");
  t.Reset("s");
  EXPECT_EQ(t.ConsecutiveFailures("s"), 0);
  EXPECT_EQ(t.FailureScore("s"), 0.0);
}

// ---------------------------------------------------------- SinglePolicy

TEST(SinglePolicySchedulerTest, CapacityLimitsInFlight) {
  SinglePolicyScheduler sched(PolicyKind::kFifo, 2);
  for (FileId i = 1; i <= 5; ++i) sched.Submit(MakeJob(i, "a", 100));
  auto j1 = sched.Dequeue();
  auto j2 = sched.Dequeue();
  ASSERT_TRUE(j1.has_value());
  ASSERT_TRUE(j2.has_value());
  EXPECT_FALSE(sched.Dequeue().has_value());  // capacity exhausted
  EXPECT_EQ(sched.in_flight(), 2u);
  sched.OnComplete(*j1, true, /*now=*/50, /*elapsed=*/50);
  EXPECT_TRUE(sched.Dequeue().has_value());
}

TEST(SinglePolicySchedulerTest, MetricsTrackTardiness) {
  SinglePolicyScheduler sched(PolicyKind::kEdf, 1);
  sched.Submit(MakeJob(1, "a", /*deadline=*/100));
  auto job = sched.Dequeue();
  sched.OnComplete(*job, true, /*now=*/250, /*elapsed=*/10);
  EXPECT_EQ(sched.metrics().completed, 1u);
  EXPECT_EQ(sched.metrics().late, 1u);
  EXPECT_EQ(sched.metrics().max_tardiness, 150);
  sched.Submit(MakeJob(2, "a", /*deadline=*/10000));
  job = sched.Dequeue();
  sched.OnComplete(*job, true, /*now=*/300, /*elapsed=*/10);
  EXPECT_EQ(sched.metrics().late, 1u);  // on time
  EXPECT_DOUBLE_EQ(sched.metrics().LateFraction(), 0.5);
}

// ---------------------------------------------------------- Partitioned

TEST(PartitionedSchedulerTest, DefaultsToPartitionZero) {
  PartitionedScheduler sched;
  EXPECT_EQ(sched.PartitionOf("anyone"), 0u);
  sched.SetPartition("slow", 2);
  EXPECT_EQ(sched.PartitionOf("slow"), 2u);
  sched.SetPartition("clamped", 99);
  EXPECT_EQ(sched.PartitionOf("clamped"), 2u);  // clamped to last
}

TEST(PartitionedSchedulerTest, BackloggedPartitionCannotStarveOthers) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 2;
  opts.slots_per_partition = 1;
  PartitionedScheduler sched(opts);
  sched.SetPartition("slow", 1);
  sched.SetPartition("fast", 0);
  // The slow subscriber has a huge backlog with older deadlines.
  for (FileId i = 1; i <= 100; ++i) sched.Submit(MakeJob(i, "slow", 10));
  sched.Submit(MakeJob(200, "fast", 100000));
  // Two dequeues must yield one job from each partition: the fast
  // subscriber is never starved even though every slow deadline is older.
  auto a = sched.Dequeue();
  auto b = sched.Dequeue();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  std::set<SubscriberName> subs{a->subscriber, b->subscriber};
  EXPECT_TRUE(subs.count("fast") == 1) << "fast subscriber starved";
  // Third dequeue: both partitions' single slots are busy.
  EXPECT_FALSE(sched.Dequeue().has_value());
}

TEST(PartitionedSchedulerTest, GlobalEdfDoesStarveByContrast) {
  // The contrast case for E3: one global EDF queue lets the backlog
  // (older deadlines) run first.
  SinglePolicyScheduler sched(PolicyKind::kEdf, 2);
  for (FileId i = 1; i <= 100; ++i) sched.Submit(MakeJob(i, "slow", 10));
  sched.Submit(MakeJob(200, "fast", 100000));
  auto a = sched.Dequeue();
  auto b = sched.Dequeue();
  EXPECT_EQ(a->subscriber, "slow");
  EXPECT_EQ(b->subscriber, "slow");
}

TEST(PartitionedSchedulerTest, LocalityPrefersSameFile) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 1;
  opts.slots_per_partition = 4;
  opts.locality = true;
  PartitionedScheduler sched(opts);
  // File 7 goes to three subscribers; file 8 has an earlier deadline.
  sched.Submit(MakeJob(7, "a", 500));
  sched.Submit(MakeJob(8, "a2", 100));
  sched.Submit(MakeJob(7, "b", 600));
  sched.Submit(MakeJob(7, "c", 700));
  auto first = sched.Dequeue();
  ASSERT_TRUE(first.has_value());
  // EDF picks file 8 first (earliest deadline); after that the anchor is
  // 8, no more 8-jobs exist, so EDF order resumes with 7s.
  EXPECT_EQ(first->file_id, 8u);
  auto second = sched.Dequeue();
  EXPECT_EQ(second->file_id, 7u);
  // Anchor is now 7: remaining 7s are preferred consecutively.
  EXPECT_EQ(sched.Dequeue()->file_id, 7u);
  EXPECT_EQ(sched.Dequeue()->file_id, 7u);
}

TEST(PartitionedSchedulerTest, PendingAndInFlightAccounting) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 2;
  opts.slots_per_partition = 1;
  PartitionedScheduler sched(opts);
  sched.SetPartition("p1", 1);
  sched.Submit(MakeJob(1, "p0", 100));
  sched.Submit(MakeJob(2, "p1", 100));
  sched.Submit(MakeJob(3, "p1", 200));
  EXPECT_EQ(sched.pending(), 3u);
  auto a = sched.Dequeue();
  auto b = sched.Dequeue();
  EXPECT_EQ(sched.in_flight(), 2u);
  EXPECT_EQ(sched.pending(), 1u);
  sched.OnComplete(*a, true, 10, 10);
  sched.OnComplete(*b, false, 10, 10);
  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_EQ(sched.metrics().completed, 1u);
  EXPECT_EQ(sched.metrics().failed, 1u);
}

// ------------------------------------------------- Per-subscriber windows

TEST(WindowTest, SinglePolicyWindowParksExcessAndReleasesFifo) {
  SinglePolicyScheduler sched(PolicyKind::kFifo, 16);
  sched.SetSubscriberWindow(2);
  for (FileId i = 1; i <= 5; ++i) sched.Submit(MakeJob(i, "a", 100));
  sched.Submit(MakeJob(10, "b", 100));
  auto j1 = sched.Dequeue();
  auto j2 = sched.Dequeue();
  ASSERT_TRUE(j1.has_value());
  ASSERT_TRUE(j2.has_value());
  EXPECT_EQ(sched.InFlightFor("a"), 2u);
  // "a" is window-full: the next dequeue skips over its parked backlog
  // and hands out "b"'s job instead.
  auto j3 = sched.Dequeue();
  ASSERT_TRUE(j3.has_value());
  EXPECT_EQ(j3->subscriber, "b");
  EXPECT_FALSE(sched.Dequeue().has_value());
  // The window-full pops were parked, not lost: still pending.
  EXPECT_EQ(sched.parked(), 3u);
  EXPECT_EQ(sched.pending(), 3u);
  // An ack reopens the window; parked jobs release in FIFO order.
  sched.OnComplete(*j1, true, 10, 10);
  auto j4 = sched.Dequeue();
  ASSERT_TRUE(j4.has_value());
  EXPECT_EQ(j4->file_id, 3u);
  EXPECT_EQ(sched.InFlightFor("a"), 2u);
  EXPECT_FALSE(sched.Dequeue().has_value());
}

TEST(WindowTest, WindowZeroIsUnlimited) {
  SinglePolicyScheduler sched(PolicyKind::kFifo, 16);
  for (FileId i = 1; i <= 5; ++i) sched.Submit(MakeJob(i, "a", 100));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sched.Dequeue().has_value());
  EXPECT_EQ(sched.InFlightFor("a"), 5u);
  EXPECT_EQ(sched.parked(), 0u);
}

TEST(WindowTest, PartitionedWindowChargesSlotsOnlyForDispatchedJobs) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 1;
  opts.slots_per_partition = 4;
  PartitionedScheduler sched(opts);
  sched.SetSubscriberWindow(1);
  for (FileId i = 1; i <= 3; ++i) sched.Submit(MakeJob(i, "a", 100));
  sched.Submit(MakeJob(10, "b", 50));  // earlier deadline than a's backlog
  auto first = sched.Dequeue();
  auto second = sched.Dequeue();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // One job each: "a"'s window of 1 cannot eat both partition slots.
  EXPECT_NE(first->subscriber, second->subscriber);
  // Parked a-jobs don't hold partition slots: in_flight is exactly 2.
  EXPECT_EQ(sched.in_flight(), 2u);
  EXPECT_FALSE(sched.Dequeue().has_value());
  const TransferJob& a_job = first->subscriber == "a" ? *first : *second;
  sched.OnComplete(a_job, true, 10, 10);
  auto next = sched.Dequeue();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->subscriber, "a");
  EXPECT_EQ(sched.InFlightFor("a"), 1u);
  // Drain: completing everything leaves no in-flight and no parked jobs.
  sched.OnComplete(first->subscriber == "a" ? *second : *first, true, 10, 10);
  sched.OnComplete(*next, true, 10, 10);
  while (auto j = sched.Dequeue()) sched.OnComplete(*j, true, 10, 10);
  EXPECT_EQ(sched.in_flight(), 0u);
  EXPECT_EQ(sched.parked(), 0u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(PartitionedSchedulerTest, RebalanceMovesSlowSubscriberDown) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 2;
  opts.slots_per_partition = 4;
  opts.rebalance_every = 1;
  PartitionedScheduler sched(opts);
  sched.SetPartition("fast", 0);
  sched.SetPartition("slow", 0);
  // Feed observations: fast moves 1 MB/s, slow 1 KB/s with failures.
  for (int i = 0; i < 20; ++i) {
    sched.Submit(MakeJob(100 + i, "fast", 1000));
    sched.Submit(MakeJob(200 + i, "slow", 1000));
    auto a = sched.Dequeue();
    auto b = sched.Dequeue();
    ASSERT_TRUE(a.has_value() && b.has_value());
    auto finish = [&](const TransferJob& j) {
      if (j.subscriber == "fast") {
        sched.OnComplete(j, true, 10, kMillisecond);
      } else {
        sched.OnComplete(j, true, 10, kSecond);
      }
    };
    finish(*a);
    finish(*b);
  }
  EXPECT_EQ(sched.PartitionOf("fast"), 0u);
  EXPECT_EQ(sched.PartitionOf("slow"), 1u);
}

// ------------------------------------------------- Golden dispatch order

// One seeded job for the golden traces: files 1-6 (so several
// subscribers share a file), subscribers a-d, deadlines and sizes drawn
// from small ranges so ties exercise every tie-break.
TransferJob SeededJob(Rng* rng) {
  FileId file = 1 + rng->Uniform(6);
  std::string sub(1, static_cast<char>('a' + rng->Uniform(4)));
  TimePoint deadline = static_cast<TimePoint>(rng->Uniform(40));
  uint64_t size = 100 * (1 + rng->Uniform(4));
  return MakeJob(file, sub, deadline, size);
}

std::string Token(const std::optional<TransferJob>& job) {
  return job ? std::to_string(job->file_id) + job->subscriber + " " : "- ";
}

// Replays one seeded sequence of Add / Next / NextForFile calls through a
// policy and lists the pops in order ("-" for an empty pop).
std::string PolicyTrace(PolicyKind kind) {
  auto policy = MakePolicy(kind);
  Rng rng(29);
  std::string out;
  for (int op = 0; op < 160; ++op) {
    uint64_t r = rng.Uniform(10);
    if (r < 5) {
      policy->Add(SeededJob(&rng));
    } else if (r < 8) {
      out += Token(policy->Next());
    } else {
      out += Token(policy->NextForFile(1 + rng.Uniform(6)));
    }
  }
  return out;
}

// The same for a partitioned scheduler with locality on, two partitions
// of three slots and a subscriber window of 2: Submit / Dequeue /
// OnComplete of a random in-flight job. A (file, subscriber) pair is
// submitted again only after its earlier job completed.
std::string PartitionedTrace(PolicyKind kind) {
  PartitionedScheduler::Options opts;
  opts.num_partitions = 2;
  opts.slots_per_partition = 3;
  opts.intra_policy = kind;
  opts.locality = true;
  PartitionedScheduler sched(opts);
  sched.SetSubscriberWindow(2);
  sched.SetPartition("c", 1);
  sched.SetPartition("d", 1);
  Rng rng(29);
  std::set<std::pair<FileId, SubscriberName>> live;
  std::vector<TransferJob> running;
  std::string out;
  for (int op = 0; op < 240; ++op) {
    uint64_t r = rng.Uniform(10);
    if (r < 5) {
      TransferJob job = SeededJob(&rng);
      if (live.insert({job.file_id, job.subscriber}).second) {
        sched.Submit(std::move(job));
      }
    } else if (r < 8) {
      auto job = sched.Dequeue();
      out += Token(job);
      if (job) running.push_back(std::move(*job));
    } else if (!running.empty()) {
      size_t i = rng.Uniform(running.size());
      sched.OnComplete(running[i], true, 0, 0);
      live.erase({running[i].file_id, running[i].subscriber});
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return out;
}

// Pins the pop order of every policy, alone and inside the partitioned
// scheduler, to the order the original linear-scan policies produced.
TEST(PolicyTest, GoldenDispatchOrder) {
  const PolicyKind kinds[] = {PolicyKind::kFifo, PolicyKind::kEdf,
                              PolicyKind::kRoundRobin,
                              PolicyKind::kMaxBenefit};
  const char* const policy_golden[] = {
      "- - 2b 1a - - 5c 6c 3b - - - - 6c - 5b 2b 4a 2c 2d - 4c 3a - "
      "2b 3c 4c 5d 4c 4a 5d 6c 2b 3c 1a - 5c - - 4a - 3b 6c 3a 1c 5c "
      "4c - 5a 3b 3d 3a 1d 2b 6d 5c 6b 2a 5a 4d 3b 6a 5b 4c 5d 2a 3c "
      "- 1c 4a - 1a 6c 5c - 5c - 6a 5a 6c 4c 3c 4c 2c 2b - ",
      "- - 2b 1a - - 6c 3b 5c - - - - 2d - 4c 2c 6c 4a 5b - 3a 3c - "
      "2b 5d 4c 5d 3c 4a 2b 1a 6c 5c - 2b 3b - - 6c 4c 6d - 1c - 5c "
      "4c - 5a 3d 2b 5b 1d - 2a 5c 6a - 4c 4a 5d 3c 3a 1c 2a - 3b 3a "
      "1a 5c - - 6a 4c - 4c - 2c 6c 6c 2d 5b 5b 3c 5c - ",
      "- - 2b 1a - - 5c 3b 6c - - - - 2d - 5b 2b 4a 6c 2c - 3a 4c - "
      "2b 5d 3c 5d 2b 4a 1a 4c 4a 4c - - 3b - - 3a - 6c 6c 3d 1c 3b "
      "4c - 5a 3a 3c 6d 1d 2b 3b 5a 6a 2a 5c 4a 4d 6b 2a 5c 5d - 3c "
      "- 1a 5b - 1c 6a 5c - 2b - 5a 4c 6c 2d 5b 4a 5c 5b - ",
      "- - 2b 1a - - 3b 5c 6c - - - - 2d - 5b 2c 6c 4a 4c - 3c 3a - "
      "2b 5d 4c 5d 1a 4a 5c 4a 6c 4c - 2b 3b - - 6c - 6d - 1c - 5c "
      "4c 2b 5c 1d 6b 2b - - 2a 5b 6a - 3b 4a 4d 3b 5d 1c 6c 2a 3c "
      "3d 1a 5c - - 4c 2c - 3c - 5a 2a 6c 5b 4c 3c 4a 4c - ",
  };
  const char* const partitioned_golden[] = {
      "- 2b 2d 1a 5c 3b 6c 5b 2c 2b 4c 4a 3a 2b - 5d 3c 1a - - 6c 3b "
      "6d 3a 5c 5a 3d 5b 1c 6b 1d 6a 4c 2b 4d 2a 4c 2b 5d 2a 5c 4a "
      "3c 5b 6c - 2d - 1c 2c - - 3b - 2c - - - - 1a 6a 5a 2c 3a 1b "
      "2d 1a ",
      "- 1a 6c 2b 2d 3b 2d 4a 2c 5b - 4c 3a 5c 5d 3c 1a 4a - - 3b 6c "
      "3a 6d 5a 1c 6a 1d 6b 3d 2a 3c 2b 5d 5b 5c 5a 2c 6a 1c 4a 2d "
      "5b 3c 2b - 2a - 5c 3a - - 3b - 1a - - - - 4d 4c 1a 3d 1b 3c "
      "1a 3d ",
      "- 1a 5c 2b 2d 3b 2c 4a 2d 5b 6c 3a - 5d 2b 4c 4a 1a - - 3c 3b "
      "3d 3a 6d 5a 6c 5b 5c 6b 5d 6a 1d 2a 1c 2b 4c 2b 4d 2a 2d 5b "
      "2c 5a 3c - - - 6c 4a 3d - 3b - 2d - - - - 1a 5c 6a 3a 3c 3a "
      "6d 4c ",
      "- 2b 2d 3b 5c 1a 6c 5b 4c 4a 2c 3a 2b 2b - 5d 3c 1a - - 5c 4a "
      "6d 3b 6c 3a 1c 6b 1d 6a 4d 2a 4c 2b 1c 4a 2c 5b 6c 5a 4c 5b "
      "5d 2a 5c - 2c - 2b 2d 4c - - - 3d - - - - 3b 3a 1b 1a 3c 5c "
      "5d 2a ",
  };
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(PolicyTrace(kinds[i]), policy_golden[i])
        << PolicyKindName(kinds[i]);
    EXPECT_EQ(PartitionedTrace(kinds[i]), partitioned_golden[i])
        << PolicyKindName(kinds[i]);
  }
}

}  // namespace
}  // namespace bistro
