#include "classify/classifier.h"

namespace bistro {

namespace {

/// The candidate step shared by the linear oracle and the automaton's
/// exact path: on a match, `feed` joins `out`. Only the first matching
/// feed's pattern extracts fields; every later candidate runs the
/// capture-free accept test, which builds no MatchResult vectors.
bool TryCandidate(const std::string& name, const FeedName& feed,
                  const Pattern& pattern, Classification* out) {
  if (out->feeds.empty() ? !pattern.TryMatch(name, &out->primary_match)
                         : !pattern.Matches(name)) {
    return false;
  }
  out->feeds.push_back(feed);
  return true;
}

}  // namespace

FeedClassifier::FeedClassifier(const FeedRegistry* registry)
    : registry_(registry) {
  (void)Rebuild();
}

Status FeedClassifier::Rebuild() {
  auto compiled = FeedAutomaton::Compile(*registry_);
  compile_status_ = compiled.status();
  if (!compiled.ok()) {
    if (compile_failures_metric_ != nullptr) {
      compile_failures_metric_->Increment();
    }
    return compile_status_;
  }
  std::shared_ptr<const FeedAutomaton> fresh = std::move(compiled).value();
  if (rebuilds_metric_ != nullptr) {
    rebuilds_metric_->Increment();
    compile_metric_->Record(
        static_cast<int64_t>(fresh->stats().compile_micros));
  }
  PublishStats(*fresh);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(fresh);
  }
  return Status::OK();  // the previous table is freed here, unlocked
}

void FeedClassifier::PublishStats(const FeedAutomaton& automaton) {
  if (states_metric_ == nullptr) return;
  const AutomatonStats& s = automaton.stats();
  states_metric_->Set(static_cast<int64_t>(s.dfa_states));
  accept_sets_metric_->Set(static_cast<int64_t>(s.accept_sets));
  residual_metric_->Set(static_cast<int64_t>(s.residual_patterns));
  memory_metric_->Set(static_cast<int64_t>(s.memory_bytes));
}

void FeedClassifier::AttachMetrics(MetricsRegistry* metrics) {
  rebuilds_metric_ = metrics->GetCounter(
      "bistro_classifier_rebuilds_total",
      "Feed-table automaton recompilations (feed revisions)");
  compile_failures_metric_ = metrics->GetCounter(
      "bistro_classifier_compile_failures_total",
      "Feed-table compiles refused for exceeding the automaton budget");
  states_metric_ = metrics->GetGauge("bistro_classifier_dfa_states",
                                     "DFA states in the compiled feed table");
  accept_sets_metric_ =
      metrics->GetGauge("bistro_classifier_accept_sets",
                        "Distinct terminal (feed, pattern) accept sets");
  residual_metric_ = metrics->GetGauge(
      "bistro_classifier_residual_patterns",
      "Patterns outside the DFA, matched one by one after the scan");
  memory_metric_ = metrics->GetGauge(
      "bistro_classifier_table_bytes",
      "Resident footprint of the compiled classifier tables");
  compile_metric_ = metrics->GetHistogram(
      "bistro_classifier_compile_micros",
      "Feed-table automaton compile time in microseconds");
  // Surface the stats of the snapshot compiled before metrics attached.
  if (auto snap = automaton()) PublishStats(*snap);
}

Classification FeedClassifier::ClassifyAutomaton(
    const FeedAutomaton& automaton, const std::string& name) const {
  Classification result;
  FeedAutomaton::ScanOutcome scan = automaton.Scan(name);
  const std::vector<FeedAutomaton::AcceptEntry>& residual =
      automaton.residual();
  if (!scan.verify && residual.empty()) {
    if (scan.accepts == nullptr) return result;
    result.feeds = scan.accepts->feeds;
    automaton.pattern(scan.accepts->primary_pattern)
        .TryMatch(name, &result.primary_match);
    return result;
  }
  // Exact path, for names with a digit run long enough that %i's
  // int64-overflow backoff can disagree with the DFA's digit loops, and
  // for tables with residual patterns. Each accepted and each residual
  // (feed, pattern) pair is checked with the exact matcher, merged in
  // registry feed order: both lists are feed-major, and a feed is in only
  // one of them.
  static const std::vector<FeedAutomaton::AcceptEntry> kNoAccepts;
  const std::vector<FeedAutomaton::AcceptEntry>& accepted =
      scan.accepts != nullptr ? scan.accepts->entries : kNoAccepts;
  auto a = accepted.begin();
  auto r = residual.begin();
  uint32_t last_feed = 0;
  uint64_t checks = 0;
  while (a != accepted.end() || r != residual.end()) {
    const FeedAutomaton::AcceptEntry& e =
        r == residual.end() || (a != accepted.end() && a->feed < r->feed)
            ? *a++
            : *r++;
    if (!result.feeds.empty() && e.feed == last_feed) continue;
    ++checks;
    if (TryCandidate(name, automaton.feed_name(e.feed),
                     automaton.pattern(e.pattern), &result)) {
      last_feed = e.feed;
    }
  }
  candidate_checks_.fetch_add(checks, std::memory_order_relaxed);
  return result;
}

Classification FeedClassifier::Classify(const std::string& name) const {
  std::shared_ptr<const FeedAutomaton> snap = automaton();
  files_.fetch_add(1, std::memory_order_relaxed);
  Classification result =
      snap != nullptr ? ClassifyAutomaton(*snap, name) : Classification{};
  (result.matched() ? matched_ : unmatched_)
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

Classification ClassifyLinear(const FeedRegistry& registry,
                              const std::string& name) {
  Classification result;
  for (const RegisteredFeed* feed : registry.feeds()) {
    if (TryCandidate(name, feed->spec.name, feed->pattern, &result)) continue;
    for (const Pattern& alt : feed->alts) {
      if (TryCandidate(name, feed->spec.name, alt, &result)) break;
    }
  }
  return result;
}

}  // namespace bistro
