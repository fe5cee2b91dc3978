#ifndef BISTRO_SCHED_POLICY_H_
#define BISTRO_SCHED_POLICY_H_

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "sched/job.h"

namespace bistro {

/// Queueing discipline for transfer jobs within one scheduling domain.
///
/// The paper surveys EDF, prioritized EDF and rate-monotonic approaches
/// and observes that classical policies behave well within a homogeneous
/// partition (§4.3); these are the interchangeable building blocks the
/// partitioned scheduler composes — and the baselines E3 compares.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual void Add(TransferJob job) = 0;
  /// Removes and returns the next job to run, or nullopt if empty.
  virtual std::optional<TransferJob> Next() = 0;
  virtual size_t Size() const = 0;

  /// Removes and returns the first pending job for `file_id` in policy
  /// order, if one exists (locality heuristic: deliver the same file to
  /// several subscribers back-to-back while it is hot). Every policy
  /// indexes its queue by file, so this costs O(log n).
  virtual std::optional<TransferJob> NextForFile(FileId file_id) = 0;
};

enum class PolicyKind { kFifo, kEdf, kRoundRobin, kMaxBenefit };

/// Parses "fifo" / "edf" / "rr" / "maxbenefit".
Result<PolicyKind> PolicyKindFromName(std::string_view name);
std::string_view PolicyKindName(PolicyKind kind);

/// Creates a fresh policy instance.
std::unique_ptr<SchedulingPolicy> MakePolicy(PolicyKind kind);

}  // namespace bistro

#endif  // BISTRO_SCHED_POLICY_H_
