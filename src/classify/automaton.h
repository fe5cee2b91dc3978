#ifndef BISTRO_CLASSIFY_AUTOMATON_H_
#define BISTRO_CLASSIFY_AUTOMATON_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/registry.h"
#include "pattern/pattern.h"

namespace bistro {

/// Compile/size statistics for one compiled feed-table automaton, exposed
/// through metrics and the `classifier` admin command.
struct AutomatonStats {
  uint64_t patterns = 0;       // (feed, pattern) pairs compiled in
  uint64_t nfa_states = 0;     // states before subset construction
  uint64_t dfa_states = 0;
  uint64_t dense_rows = 0;     // byte-indexed 256-entry rows (hot states)
  uint64_t sparse_rows = 0;    // range-list fallback rows (cold states)
  uint64_t accept_sets = 0;    // distinct terminal (feed, pattern) sets
  uint64_t residual_patterns = 0;  // patterns matched after the scan
  uint64_t residual_feeds = 0;     // feeds those patterns belong to
  uint64_t memory_bytes = 0;   // resident footprint of the tables
  uint64_t compile_micros = 0;  // every attempt, the retry included
};

/// The entire feed table compiled into one DFA (ROADMAP item 3): every
/// registered feed's primary and alternative patterns fuse into a single
/// table-driven automaton, so classifying a filename is one left-to-right
/// scan — no per-candidate pattern dispatch, however many feeds overlap.
///
/// Construction is the classic pipeline: each printf-style pattern lowers
/// to an NFA fragment (literals become byte chains; the constrained
/// two-digit time fields become tiny alternations over their positional
/// digit classes, e.g. month = '0'[1-9] | '1'[0-2]; `%s`/`%i` become
/// self-loop states), the fragments share one start state, and subset
/// construction produces a DFA whose terminal states carry a precomputed
/// *accept set*: the (feed, pattern) pairs that match, in registry order,
/// deduplicated to the feed-name list a Classification needs plus the
/// first matching pattern as the field-capture plan. Hot states (breadth-
/// first from the root) get dense 256-entry rows; the long cold tails of
/// 10^4–10^5-pattern tables fall back to sorted byte-range rows, keeping
/// the table tens of bytes per pattern instead of a kilobyte per state.
///
/// Exactness: the DFA accepts a name iff some backtracking split of
/// `Pattern::Match` accepts it, with one deliberate exception — `%i`
/// compiles to an unbounded digit self-loop, while the interpreter's
/// ParseInt refuses spans that overflow int64. The two can only diverge
/// when the name contains a digit run of >= kVerifyDigitRun characters,
/// which the scan detects as it goes; callers re-verify the accept set
/// with the exact matcher on that (vanishingly rare) path. Everything
/// else — `%s` non-emptiness, time-field ranges, `%%` literals — is
/// encoded in the states themselves.
///
/// Residual list: a few "contains this id" patterns (`%s_DEV7_%s`) can
/// multiply the DFA's states past its compile budget. When a compile
/// trips the budget, the feeds whose patterns sit in more than
/// 1/kDominantShare of the state subsets built so far move, whole, to a
/// residual list, and the table compiles once more without them. Residual
/// patterns are tried one by one after the scan, and their matches merge
/// with the DFA's in registry feed order, so a Classification is the same
/// as if every pattern were in the DFA. Tables within budget compile once
/// and have an empty residual list.
///
/// Layout: state ids are assigned depth-first after construction, so the
/// long single-successor chains at the bottom of the table (each
/// pattern's literal suffix) occupy consecutive States and consecutive
/// ranges — a whole chain is a couple of cache lines instead of one miss
/// per byte. The dense-row budget is still granted breadth-first: the
/// shallowest states are the ones every scan walks through.
///
/// An automaton is immutable once compiled and safe to share across
/// threads; FeedClassifier swaps snapshots behind a shared_ptr
/// (RCU-style) so ingest workers keep classifying during rebuilds. It
/// is also self-contained — patterns and feed names are copied in — so a
/// stale snapshot never dangles into a registry that was revised after
/// the compile.
class FeedAutomaton {
 public:
  /// A digit run at least this long can make ParseInt's int64-overflow
  /// backoff visible; the scan flags such names for re-verification.
  static constexpr uint32_t kVerifyDigitRun = 19;

  /// One (feed, pattern) pair a terminal state accepts, or a residual
  /// pattern. Indices point into feed_name() / pattern(); entries are
  /// ordered by registry feed order, then primary-before-alternates
  /// within a feed — the same order the linear oracle probes in.
  struct AcceptEntry {
    uint32_t feed = 0;
    uint32_t pattern = 0;
  };

  /// Precomputed classification for one terminal state.
  struct AcceptSet {
    std::vector<AcceptEntry> entries;
    /// Deduplicated feed names in entry order — copied verbatim into
    /// Classification::feeds.
    std::vector<FeedName> feeds;
    /// The capture plan: entries[0].pattern, i.e. the first matching
    /// pattern of the first matching feed. The classifier runs one
    /// non-allocating TryMatch with it to extract the primary fields.
    uint32_t primary_pattern = 0;
  };

  struct ScanOutcome {
    /// Terminal accept set, or nullptr if no feed matches. Points into
    /// the automaton; valid while the snapshot is held.
    const AcceptSet* accepts = nullptr;
    /// True when the name contains a >= kVerifyDigitRun digit run and
    /// `accepts` must be re-verified with the exact pattern matcher.
    bool verify = false;
  };

  /// Compile budgets. Subset construction is exponential in the worst
  /// case — "contains this id" tables (`%s_DEV<n>_%s`) multiply states
  /// with every feed — so a construction that would need more states, or
  /// more NFA-state entries summed over all state subsets, stops instead
  /// of exhausting memory. E14's 10^5-pattern table needs ~711k states;
  /// the 2,000-feed smallfile table ~59k.
  static constexpr uint32_t kMaxDfaStates = 1u << 20;
  static constexpr uint32_t kMaxSubsetEntries = 1u << 24;
  /// A pattern is moved to the residual list when its NFA states occur
  /// more often than once per kDominantShare subsets built. On a table of
  /// 2,000 distinct-prefix feeds plus 25 contains-id feeds the two groups
  /// sit four orders of magnitude apart (<= 39 against ~700k occurrences
  /// over ~430k subsets), so this is a constant, not a tuning knob.
  static constexpr uint64_t kDominantShare = 8;
  /// Residual patterns cost a full match each per file, so the list is
  /// short by construction; a table that needs more is refused.
  static constexpr size_t kMaxResidualPatterns = 256;

  /// Compiles every feed in `registry` (primary + alternative patterns),
  /// moving the feeds that break the compile budget to the residual list.
  /// ResourceExhausted, naming those feeds, when the residual list would
  /// exceed kMaxResidualPatterns or the table without them still exceeds
  /// a budget.
  static Result<std::shared_ptr<const FeedAutomaton>> Compile(
      const FeedRegistry& registry);

  /// Classifies `name` in one scan. Residual patterns are not consulted.
  ScanOutcome Scan(std::string_view name) const;

  /// The residual (feed, pattern) pairs, in registry order; empty for
  /// every table within the compile budget.
  const std::vector<AcceptEntry>& residual() const { return residual_; }
  /// The residual feeds' names for logs and errors: the first 16, then
  /// "and N more".
  std::string ResidualFeedNames() const;

  const Pattern& pattern(uint32_t idx) const { return patterns_[idx]; }
  const FeedName& feed_name(uint32_t idx) const { return feed_names_[idx]; }
  size_t feed_count() const { return feed_names_.size(); }

  const AutomatonStats& stats() const { return stats_; }

  /// FNV-1a digest of the compiled tables: states, ranges, dense rows and
  /// accept entries. Equal digests mean a bit-identical automaton; tests
  /// pin it to catch any change in state numbering or layout.
  uint64_t TableDigest() const;

 private:
  static constexpr uint32_t kNoState = 0xFFFFFFFFu;
  static constexpr uint32_t kNoAccept = 0xFFFFFFFFu;
  /// States created this early in the breadth-first construction order
  /// get dense rows; everything deeper uses range rows.
  static constexpr uint32_t kDenseRowLimit = 2048;

  /// One contiguous byte range [lo, hi] -> target state.
  struct Range {
    uint8_t lo = 0;
    uint8_t hi = 0;
    uint32_t target = kNoState;
  };

  /// 12 bytes; `dense` fits int16 because kDenseRowLimit < 32768. Keeping
  /// the row small matters: a scan touches one State per byte, and the
  /// cold tail of a 10^5-pattern table lives or dies on cache lines.
  struct State {
    uint32_t accept = kNoAccept;   // index into accept_sets_
    uint32_t first_range = 0;      // offset into ranges_
    uint16_t num_ranges = 0;
    int16_t dense = -1;            // index into dense_rows_, or -1
  };

  FeedAutomaton() = default;

  /// One subset construction over every pattern not in residual_: fills
  /// the tables and stats_'s size fields. On a budget trip returns
  /// ResourceExhausted and appends to `dominant` the patterns that occupy
  /// more than 1/kDominantShare of the subsets built so far.
  Status Build(const std::vector<uint32_t>& pattern_feed,
               std::vector<uint32_t>* dominant);

  uint32_t Step(uint32_t state, uint8_t byte) const {
    const State& s = states_[state];
    if (s.dense >= 0) return dense_rows_[static_cast<size_t>(s.dense)][byte];
    const Range* r = &ranges_[s.first_range];
    for (uint16_t i = 0; i < s.num_ranges; ++i, ++r) {
      if (byte < r->lo) break;  // ranges are sorted and disjoint
      if (byte <= r->hi) return r->target;
    }
    return kNoState;
  }

  std::vector<State> states_;
  std::vector<Range> ranges_;
  std::vector<std::array<uint32_t, 256>> dense_rows_;
  std::vector<AcceptSet> accept_sets_;
  std::vector<AcceptEntry> residual_;
  /// Snapshot-owned copies (see class comment on self-containment).
  std::vector<Pattern> patterns_;
  std::vector<FeedName> feed_names_;
  AutomatonStats stats_;
};

}  // namespace bistro

#endif  // BISTRO_CLASSIFY_AUTOMATON_H_
