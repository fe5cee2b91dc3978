#include "classify/automaton.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "analyzer/tokenizer.h"
#include "common/strings.h"

namespace bistro {

namespace {

/// One NFA transition over a contiguous byte range.
struct NfaEdge {
  uint8_t lo = 0;
  uint8_t hi = 0;
  uint32_t target = 0;
};

/// The whole table's NFA, stored flat: state s's edges are
/// edges[first_edge[s], first_edge[s + 1]), in the order they were added.
/// State 0 is the shared start. Its only transitions are epsilon edges to
/// each pattern's first state (`starts`), and no edge leads back to it, so
/// every other subset is already epsilon-closed.
struct Nfa {
  std::vector<NfaEdge> edges;
  std::vector<uint32_t> first_edge;  // size() + 1 offsets into edges
  std::vector<int32_t> accept;       // global pattern id, -1 = none
  std::vector<uint32_t> owner;       // global pattern id owning each state
  std::vector<uint32_t> starts;      // each pattern's first state

  uint32_t size() const { return static_cast<uint32_t>(accept.size()); }
};

/// Lowers each pattern's token list to an NFA fragment hanging off the
/// shared start state 0.
class NfaBuilder {
 public:
  NfaBuilder() {  // state 0 = start
    nfa_.accept.push_back(-1);
    nfa_.owner.push_back(0);
  }

  void AddPattern(const Pattern& pattern, int32_t pattern_id) {
    owner_ = static_cast<uint32_t>(pattern_id);
    uint32_t cur = NewState();
    nfa_.starts.push_back(cur);
    for (const PatternToken& t : pattern.tokens()) {
      using Kind = PatternToken::Kind;
      switch (t.kind) {
        case Kind::kLiteral:
          for (char c : t.literal) cur = ByteEdge(cur, static_cast<uint8_t>(c));
          break;
        case Kind::kString: {
          // Non-empty arbitrary string: enter the loop on any byte, then
          // self-loop. Exit is implicit: the loop state continues the chain.
          uint32_t loop = NewState();
          Edge(cur, 0, 255, loop);
          Edge(loop, 0, 255, loop);
          cur = loop;
          break;
        }
        case Kind::kInt: {
          // Unbounded digit self-loop; int64-overflow exactness is
          // restored by the scan's long-run verify flag (see header).
          uint32_t loop = NewState();
          Edge(cur, '0', '9', loop);
          Edge(loop, '0', '9', loop);
          cur = loop;
          break;
        }
        case Kind::kYear4:
          cur = DigitChain(cur, 4);
          break;
        case Kind::kYear2:
          cur = DigitChain(cur, 2);
          break;
        case Kind::kMonth:
          cur = TwoDigitRange(cur, 1, 12);
          break;
        case Kind::kDay:
          cur = TwoDigitRange(cur, 1, 31);
          break;
        case Kind::kHour:
          cur = TwoDigitRange(cur, 0, 23);
          break;
        case Kind::kMinute:
        case Kind::kSecond:
          cur = TwoDigitRange(cur, 0, 59);
          break;
      }
    }
    nfa_.accept[cur] = pattern_id;
  }

  /// Buckets the edges by source state. The counting sort is stable, so
  /// each state keeps its edges in the order they were added.
  Nfa Finish() && {
    const uint32_t n = nfa_.size();
    nfa_.first_edge.assign(n + 1, 0);
    for (const RawEdge& e : raw_) ++nfa_.first_edge[e.from + 1];
    for (uint32_t s = 0; s < n; ++s) {
      nfa_.first_edge[s + 1] += nfa_.first_edge[s];
    }
    nfa_.edges.resize(raw_.size());
    std::vector<uint32_t> fill(nfa_.first_edge.begin(),
                               nfa_.first_edge.end() - 1);
    for (const RawEdge& e : raw_) nfa_.edges[fill[e.from]++] = e.edge;
    return std::move(nfa_);
  }

 private:
  struct RawEdge {
    uint32_t from;
    NfaEdge edge;
  };

  uint32_t NewState() {
    nfa_.accept.push_back(-1);
    nfa_.owner.push_back(owner_);
    return nfa_.size() - 1;
  }
  void Edge(uint32_t from, uint8_t lo, uint8_t hi, uint32_t to) {
    raw_.push_back({from, {lo, hi, to}});
  }
  uint32_t ByteEdge(uint32_t cur, uint8_t c) {
    uint32_t n = NewState();
    Edge(cur, c, c, n);
    return n;
  }
  uint32_t DigitChain(uint32_t cur, int width) {
    for (int i = 0; i < width; ++i) {
      uint32_t n = NewState();
      Edge(cur, '0', '9', n);
      cur = n;
    }
    return cur;
  }
  /// A constrained two-digit field [lo, hi] decomposes into positional
  /// digit classes: month [1,12] = '0'[1-9] | '1'[0-2], hour [0,23] =
  /// [0-1][0-9] | '2'[0-3], and so on — exactly the interpreter's range
  /// check, expressed as states.
  uint32_t TwoDigitRange(uint32_t cur, int lo, int hi) {
    uint32_t out = NewState();
    for (int d1 = lo / 10; d1 <= hi / 10; ++d1) {
      int lo2 = (d1 == lo / 10) ? lo % 10 : 0;
      int hi2 = (d1 == hi / 10) ? hi % 10 : 9;
      uint32_t mid = NewState();
      Edge(cur, static_cast<uint8_t>('0' + d1), static_cast<uint8_t>('0' + d1),
           mid);
      Edge(mid, static_cast<uint8_t>('0' + lo2),
           static_cast<uint8_t>('0' + hi2), out);
    }
    return out;
  }

  Nfa nfa_;
  std::vector<RawEdge> raw_;
  uint32_t owner_ = 0;  // pattern whose states NewState is adding
};

/// The NFA subset behind each DFA state, all stored back to back in one
/// arena and interned with no allocation per subset. Singletons — almost
/// every state of a large table, since each pattern's literal suffix is
/// its own chain — are found by direct index on their one NFA state; the
/// rest go through an open-addressing table of DFA ids keyed by the
/// subset's arena span.
class SubsetTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  explicit SubsetTable(uint32_t nfa_states) : singleton_(nfa_states, kNone) {
    offsets_.push_back(0);
    slots_.assign(1024, kNone);
  }

  uint32_t size() const { return static_cast<uint32_t>(offsets_.size() - 1); }
  size_t arena_size() const { return arena_.size(); }

  const uint32_t* begin(uint32_t id) const {
    return arena_.data() + offsets_[id];
  }
  const uint32_t* end(uint32_t id) const {
    return arena_.data() + offsets_[id + 1];
  }
  uint32_t length(uint32_t id) const {
    return offsets_[id + 1] - offsets_[id];
  }

  /// The DFA id of the sorted subset `set`, or kNone if it is new.
  uint32_t Find(const std::vector<uint32_t>& set) const {
    if (set.size() == 1) return singleton_[set[0]];
    for (size_t i = Hash(set.data(), set.size()) & (slots_.size() - 1);;
         i = (i + 1) & (slots_.size() - 1)) {
      uint32_t id = slots_[i];
      if (id == kNone) return kNone;
      if (length(id) == set.size() &&
          std::memcmp(begin(id), set.data(), set.size() * sizeof(uint32_t)) ==
              0) {
        return id;
      }
    }
  }

  /// Appends `set` (not yet present) as the next DFA id.
  uint32_t Add(const std::vector<uint32_t>& set) {
    if (set.size() > 1 && 2 * ++hashed_ > slots_.size()) Grow();
    uint32_t id = size();
    arena_.insert(arena_.end(), set.begin(), set.end());
    offsets_.push_back(static_cast<uint32_t>(arena_.size()));
    if (set.size() == 1) {
      singleton_[set[0]] = id;
    } else {
      Place(id);
    }
    return id;
  }

 private:
  static size_t Hash(const uint32_t* p, size_t n) {
    uint64_t h = 0x9E3779B97F4A7C15ull ^ n;
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0xFF51AFD7ED558CCDull;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
  void Place(uint32_t id) {
    size_t i = Hash(begin(id), length(id)) & (slots_.size() - 1);
    while (slots_[i] != kNone) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = id;
  }
  void Grow() {
    slots_.assign(slots_.size() * 2, kNone);
    for (uint32_t id = 0; id < size(); ++id) {
      if (length(id) != 1) Place(id);
    }
  }

  std::vector<uint32_t> arena_;
  std::vector<uint32_t> offsets_;    // size() + 1 offsets into arena_
  std::vector<uint32_t> singleton_;  // NFA state -> DFA id of {state}
  std::vector<uint32_t> slots_;      // open addressing over multi-member ids
  uint32_t hashed_ = 0;              // multi-member subsets in slots_
};

struct IntVecHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    uint64_t h = 1469598103934665603ull;
    for (int32_t x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

Result<std::shared_ptr<const FeedAutomaton>> FeedAutomaton::Compile(
    const FeedRegistry& registry) {
  auto t0 = std::chrono::steady_clock::now();
  auto automaton = std::shared_ptr<FeedAutomaton>(new FeedAutomaton());
  FeedAutomaton& a = *automaton;

  // Snapshot-owned copies of the table: feed names and compiled patterns
  // in registry order, primary before alternates. Global pattern ids are
  // therefore ordered exactly the way the linear oracle probes.
  std::vector<uint32_t> pattern_feed;  // pattern id -> feed index
  for (const RegisteredFeed* feed : registry.feeds()) {
    uint32_t fi = static_cast<uint32_t>(a.feed_names_.size());
    a.feed_names_.push_back(feed->spec.name);
    a.patterns_.push_back(feed->pattern);
    pattern_feed.push_back(fi);
    for (const Pattern& alt : feed->alts) {
      a.patterns_.push_back(alt);
      pattern_feed.push_back(fi);
    }
  }

  std::vector<uint32_t> dominant;
  Status built = a.Build(pattern_feed, &dominant);
  if (!built.ok()) {
    // Move every pattern of each dominant pattern's feed to the residual
    // list, then compile once more without them.
    std::vector<bool> moved(a.feed_names_.size(), false);
    for (uint32_t p : dominant) moved[pattern_feed[p]] = true;
    for (uint32_t p = 0; p < a.patterns_.size(); ++p) {
      if (moved[pattern_feed[p]]) a.residual_.push_back({pattern_feed[p], p});
    }
    if (a.residual_.empty()) {
      return Status::ResourceExhausted(
          built.message() + "; no feed's patterns dominate its states");
    }
    a.stats_.residual_patterns = a.residual_.size();
    a.stats_.residual_feeds =
        static_cast<uint64_t>(std::count(moved.begin(), moved.end(), true));
    std::string residual = StrFormat(
        "%zu pattern(s) of %zu feed(s) occur in over 1/%llu of its states: "
        "%s",
        a.residual_.size(), (size_t)a.stats_.residual_feeds,
        (unsigned long long)kDominantShare, a.ResidualFeedNames().c_str());
    if (a.residual_.size() > kMaxResidualPatterns) {
      return Status::ResourceExhausted(StrFormat(
          "%s; %s, more than the %zu residual patterns a table may have",
          built.message().c_str(), residual.c_str(), kMaxResidualPatterns));
    }
    built = a.Build(pattern_feed, &dominant);
    if (!built.ok()) {
      return Status::ResourceExhausted(
          StrFormat("%s even without the residual list; %s",
                    built.message().c_str(), residual.c_str()));
    }
  }

  auto t1 = std::chrono::steady_clock::now();
  AutomatonStats& st = a.stats_;
  st.compile_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
  uint64_t bytes = a.states_.size() * sizeof(State) +
                   a.ranges_.size() * sizeof(Range) +
                   a.dense_rows_.size() * sizeof(a.dense_rows_[0]) +
                   a.residual_.size() * sizeof(AcceptEntry);
  for (const AcceptSet& s : a.accept_sets_) {
    bytes += s.entries.size() * sizeof(AcceptEntry);
    for (const FeedName& f : s.feeds) bytes += f.size() + sizeof(FeedName);
  }
  for (const Pattern& p : a.patterns_) {
    bytes += p.spec().size() * 2 + p.tokens().size() * sizeof(PatternToken);
  }
  for (const FeedName& f : a.feed_names_) bytes += f.size() + sizeof(FeedName);
  st.memory_bytes = bytes;
  return std::shared_ptr<const FeedAutomaton>(std::move(automaton));
}

std::string FeedAutomaton::ResidualFeedNames() const {
  constexpr size_t kNamed = 16;
  std::vector<std::string> names;
  size_t feeds = 0;
  for (size_t i = 0; i < residual_.size(); ++i) {
    if (i > 0 && residual_[i].feed == residual_[i - 1].feed) continue;
    if (feeds++ < kNamed) names.push_back(feed_names_[residual_[i].feed]);
  }
  if (feeds > kNamed) {
    names.push_back(StrFormat("and %zu more", feeds - kNamed));
  }
  return Join(names, ", ");
}

Status FeedAutomaton::Build(const std::vector<uint32_t>& pattern_feed,
                            std::vector<uint32_t>* dominant) {
  states_.clear();
  ranges_.clear();
  dense_rows_.clear();
  accept_sets_.clear();

  NfaBuilder builder;
  auto residual = residual_.begin();  // sorted by pattern id
  for (size_t pid = 0; pid < patterns_.size(); ++pid) {
    if (residual != residual_.end() && residual->pattern == pid) {
      ++residual;
      continue;
    }
    builder.AddPattern(patterns_[pid], static_cast<int32_t>(pid));
  }
  const Nfa nfa = std::move(builder).Finish();

  // Subset construction. The worklist is processed in creation order
  // (breadth-first from the root); the relayout pass below renumbers the
  // result depth-first for locality while the dense-row budget keeps
  // following this breadth-first discovery order.
  SubsetTable subsets(nfa.size());
  std::unordered_map<std::vector<int32_t>, uint32_t, IntVecHash> accept_ids;
  std::vector<int32_t> pats;

  // The DFA id of the sorted subset `set`, creating the state and its
  // accept set if it is new; kNoState once a budget would be exceeded.
  auto intern = [&](const std::vector<uint32_t>& set) {
    uint32_t id = subsets.Find(set);
    if (id != SubsetTable::kNone) return id;
    if (subsets.size() >= kMaxDfaStates ||
        subsets.arena_size() + set.size() > kMaxSubsetEntries) {
      return kNoState;
    }
    id = subsets.Add(set);
    states_.emplace_back();
    // Accept set: the pattern ids of accepting members, sorted = ordered
    // by (feed, primary-before-alt) thanks to the id assignment above.
    pats.clear();
    for (uint32_t s : set) {
      if (nfa.accept[s] >= 0) pats.push_back(nfa.accept[s]);
    }
    if (!pats.empty()) {
      std::sort(pats.begin(), pats.end());
      auto ait = accept_ids.find(pats);
      if (ait != accept_ids.end()) {
        states_[id].accept = ait->second;
      } else {
        uint32_t aid = static_cast<uint32_t>(accept_sets_.size());
        accept_ids.emplace(pats, aid);
        AcceptSet set_out;
        set_out.entries.reserve(pats.size());
        for (int32_t p : pats) {
          set_out.entries.push_back({pattern_feed[static_cast<size_t>(p)],
                                     static_cast<uint32_t>(p)});
        }
        for (const AcceptEntry& e : set_out.entries) {
          if (set_out.feeds.empty() ||
              feed_names_[e.feed] != set_out.feeds.back()) {
            set_out.feeds.push_back(feed_names_[e.feed]);
          }
        }
        set_out.primary_pattern = set_out.entries.front().pattern;
        accept_sets_.push_back(std::move(set_out));
        states_[id].accept = aid;
      }
    }
    return id;
  };
  // On a budget trip: count how often each pattern's states occur in the
  // subsets built so far. Subset 0 is skipped; it alone holds the start
  // states, one per pattern.
  auto budget_error = [&] {
    std::vector<uint64_t> occupancy(patterns_.size(), 0);
    for (uint32_t id = 1; id < subsets.size(); ++id) {
      for (const uint32_t* s = subsets.begin(id); s != subsets.end(id); ++s) {
        ++occupancy[nfa.owner[*s]];
      }
    }
    for (uint32_t p = 0; p < occupancy.size(); ++p) {
      if (occupancy[p] * kDominantShare > subsets.size()) {
        dominant->push_back(p);
      }
    }
    std::string budget =
        subsets.size() >= kMaxDfaStates
            ? StrFormat("%u DFA states", kMaxDfaStates)
            : StrFormat("%u subset entries", kMaxSubsetEntries);
    return Status::ResourceExhausted(
        "feed table exceeds the classifier compile budget of " + budget);
  };

  // The start subset: state 0 plus its epsilon closure, every pattern's
  // first state (already ascending).
  std::vector<uint32_t> seed{0};
  seed.insert(seed.end(), nfa.starts.begin(), nfa.starts.end());
  if (intern(seed) == kNoState) return budget_error();

  std::vector<NfaEdge> edges;
  std::vector<int> bounds;
  std::vector<uint32_t> mark(nfa.size(), 0);
  uint32_t epoch = 0;
  for (uint32_t id = 0; id < subsets.size(); ++id) {
    edges.clear();
    for (const uint32_t* s = subsets.begin(id); s != subsets.end(id); ++s) {
      edges.insert(edges.end(), nfa.edges.begin() + nfa.first_edge[*s],
                   nfa.edges.begin() + nfa.first_edge[*s + 1]);
    }
    // Split the byte axis at every edge boundary; within one segment the
    // active edge set — and so the successor subset — is constant.
    bounds.clear();
    for (const NfaEdge& e : edges) {
      bounds.push_back(e.lo);
      bounds.push_back(e.hi + 1);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    uint32_t first_range = static_cast<uint32_t>(ranges_.size());
    for (size_t bi = 0; bi + 1 <= bounds.size(); ++bi) {
      int b = bounds[bi];
      if (b > 255) break;
      int hi = (bi + 1 < bounds.size()) ? bounds[bi + 1] - 1 : 255;
      ++epoch;
      seed.clear();
      for (const NfaEdge& e : edges) {
        if (e.lo <= b && b <= e.hi && mark[e.target] != epoch) {
          mark[e.target] = epoch;
          seed.push_back(e.target);
        }
      }
      if (seed.empty()) continue;
      // Members are visited in ascending order and almost every edge
      // points forward, so the seed usually arrives sorted already.
      if (!std::is_sorted(seed.begin(), seed.end())) {
        std::sort(seed.begin(), seed.end());
      }
      uint32_t target = intern(seed);
      if (target == kNoState) return budget_error();
      // Merge with the previous range when contiguous and same target.
      if (states_[id].num_ranges > 0) {
        Range& prev = ranges_.back();
        if (prev.target == target && static_cast<int>(prev.hi) + 1 == b) {
          prev.hi = static_cast<uint8_t>(hi);
          continue;
        }
      }
      ranges_.push_back(
          {static_cast<uint8_t>(b), static_cast<uint8_t>(hi), target});
      states_[id].first_range = first_range;
      ++states_[id].num_ranges;
    }
  }

  // Path-contiguous relayout: renumber states depth-first. Construction
  // order is breadth-first, which scatters each pattern's suffix chain
  // (one state per literal byte) across distant layers — at 10^5 patterns
  // every byte of a scan was a fresh cache miss. Pre-order DFS lays each
  // chain out consecutively in states_ and ranges_, so walking it touches
  // a couple of lines instead.
  const size_t n = states_.size();
  std::vector<uint32_t> order;  // new id -> construction id
  order.reserve(n);
  {
    std::vector<uint32_t> remap(n, kNoState);
    std::vector<uint32_t> stack{0};
    remap[0] = 0;
    while (!stack.empty()) {
      uint32_t old_id = stack.back();
      stack.pop_back();
      order.push_back(old_id);
      const State& os = states_[old_id];
      // Push children reversed so the lowest byte range is walked first.
      for (uint16_t i = os.num_ranges; i > 0; --i) {
        uint32_t t = ranges_[os.first_range + i - 1].target;
        if (remap[t] == kNoState) {
          remap[t] = 0;  // mark visited; final id assigned below
          stack.push_back(t);
        }
      }
    }
    for (uint32_t new_id = 0; new_id < order.size(); ++new_id) {
      remap[order[new_id]] = new_id;
    }
    std::vector<State> new_states(n);
    std::vector<Range> new_ranges;
    new_ranges.reserve(ranges_.size());
    for (uint32_t new_id = 0; new_id < order.size(); ++new_id) {
      const State& os = states_[order[new_id]];
      State ns = os;
      ns.first_range = static_cast<uint32_t>(new_ranges.size());
      for (uint16_t i = 0; i < os.num_ranges; ++i) {
        const Range& r = ranges_[os.first_range + i];
        new_ranges.push_back({r.lo, r.hi, remap[r.target]});
      }
      new_states[new_id] = ns;
    }
    states_ = std::move(new_states);
    ranges_ = std::move(new_ranges);

    // Dense rows go to the breadth-first head — the states every scan
    // passes through — not the DFS head (which is one deep leftmost path).
    size_t dense_count =
        std::min<size_t>(n, FeedAutomaton::kDenseRowLimit);
    dense_rows_.resize(dense_count);
    size_t next_row = 0;
    for (uint32_t old_id = 0; old_id < dense_count; ++old_id) {
      uint32_t id = remap[old_id];
      auto& row = dense_rows_[next_row];
      row.fill(kNoState);
      const State& st = states_[id];
      for (uint16_t i = 0; i < st.num_ranges; ++i) {
        const Range& r = ranges_[st.first_range + i];
        for (int b = r.lo; b <= r.hi; ++b) {
          row[static_cast<size_t>(b)] = r.target;
        }
      }
      states_[id].dense = static_cast<int16_t>(next_row++);
    }
  }

  AutomatonStats& st = stats_;
  st.patterns = patterns_.size() - residual_.size();
  st.nfa_states = nfa.size();
  st.dfa_states = states_.size();
  st.dense_rows = dense_rows_.size();
  st.sparse_rows = states_.size() - dense_rows_.size();
  st.accept_sets = accept_sets_.size();
  return Status::OK();
}

uint64_t FeedAutomaton::TableDigest() const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h ^= v & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const State& s : states_) {
    mix(s.accept);
    mix(s.first_range);
    mix(s.num_ranges);
    mix(static_cast<uint16_t>(s.dense));
  }
  for (const Range& r : ranges_) {
    mix(r.lo);
    mix(r.hi);
    mix(r.target);
  }
  for (const auto& row : dense_rows_) {
    for (uint32_t t : row) mix(t);
  }
  for (const AcceptSet& set : accept_sets_) {
    mix(set.entries.size());
    for (const AcceptEntry& e : set.entries) {
      mix(e.feed);
      mix(e.pattern);
    }
    mix(set.primary_pattern);
  }
  return h;
}

FeedAutomaton::ScanOutcome FeedAutomaton::Scan(std::string_view name) const {
  ScanOutcome out;
  uint32_t s = 0;
  uint32_t digit_run = 0;
  for (char ch : name) {
    uint8_t c = static_cast<uint8_t>(ch);
    if (kNameCharClass[c] == NameCharKind::kDigit) {
      if (++digit_run >= kVerifyDigitRun) out.verify = true;
    } else {
      digit_run = 0;
    }
    s = Step(s, c);
    if (s == kNoState) return out;  // no pattern can match any extension
  }
  const State& st = states_[s];
  if (st.accept != kNoAccept) out.accepts = &accept_sets_[st.accept];
  return out;
}

}  // namespace bistro
