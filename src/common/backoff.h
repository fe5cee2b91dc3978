#ifndef BISTRO_COMMON_BACKOFF_H_
#define BISTRO_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/random.h"
#include "common/time.h"

namespace bistro {

/// The retry envelope shared by delivery retries and socket reconnects.
struct BackoffPolicy {
  Duration min = 0;  // the first retry waits exactly this (at least 1)
  Duration max = 0;  // the cap (at least min)
  double multiplier = 3.0;
  bool jitter = true;
};

/// The delay to wait after a failure whose previous delay was `last` (0 =
/// first failure). Exponential growth from the previous delay, capped at
/// max. With jitter it is decorrelated: the delay is drawn uniformly from
/// [min, grown], and the next one grows from that *draw*, not from the
/// deterministic envelope. Each caller passes its own seeded Rng; a window
/// one value wide draws nothing.
inline Duration NextBackoff(const BackoffPolicy& policy, Duration last,
                            Rng* rng) {
  const Duration base = std::max<Duration>(policy.min, 1);
  const Duration cap = std::max<Duration>(policy.max, base);
  if (last <= 0) return base;
  double grown =
      static_cast<double>(last) * std::max(policy.multiplier, 1.0);
  Duration next =
      grown >= static_cast<double>(cap) ? cap : static_cast<Duration>(grown);
  if (policy.jitter && next > base) {
    next = base + static_cast<Duration>(
                      rng->Uniform(static_cast<uint64_t>(next - base) + 1));
  }
  return next;
}

}  // namespace bistro

#endif  // BISTRO_COMMON_BACKOFF_H_
