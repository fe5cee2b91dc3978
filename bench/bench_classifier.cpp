// Experiment E14 (DESIGN.md §15): the fused classify+extract automaton
// against the linear oracle, which tries every feed's patterns in turn.
//
// Real feed tables are adversarial for per-candidate matching: hundreds
// of pollers share one naming family ("SNMP_CPU_POLL..."), and
// analyzer-suggested patterns often start with a variable field. Three
// workloads cover the spectrum:
//
//   unique_prefix   metric<N>_POLL%i_%Y%m%d%H%M.csv   distinct prefixes
//   shared_prefix   SNMP_CPU_POLL%i_host<N>.%Y%m%d.csv  one family, the
//                   distinguishing digits come after the first %i, so
//                   every feed shares the literal prefix "SNMP_CPU_POLL"
//   prefixless      %s_POLL%i_f<N>.csv                 no literal prefix
//
// The oracle tries each of a table's patterns once per file, so its
// checks/file is the feed count. A separate scale sweep (m<NNNNN>_%i.csv)
// grows the table to 10^5 patterns to show the automaton's per-file cost
// stays flat: the scan is O(name length) whatever the table size. Each
// scale row is the best of 5 passes over the same names, so one noisy
// pass on a shared host does not decide the gate.
//
// Time base: wall clock (the classifier is pure CPU).
//
// Acceptance: automaton >= 12.5x the linear oracle's files/sec at 1000
// shared-prefix feeds, and automaton per-file cost at the largest scale
// row <= 1.5x its 1000-feed cost.
//
// Env:
//   BISTRO_BENCH_QUICK  non-empty -> smaller corpus, scale stops at 10^4
//   BISTRO_BENCH_OUT    JSON output path (default BENCH_classifier.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "common/random.h"
#include "common/strings.h"
#include "config/parser.h"

using namespace bistro;

namespace {

std::unique_ptr<FeedRegistry> MakeRegistry(const std::string& config_text) {
  auto parsed = ParseConfig(config_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config: %s\n", parsed.status().ToString().c_str());
    std::abort();
  }
  auto registry = FeedRegistry::Create(*parsed);
  if (!registry.ok()) {
    std::fprintf(stderr, "registry: %s\n",
                 registry.status().ToString().c_str());
    std::abort();
  }
  return std::move(*registry);
}

struct Workload {
  const char* name;
  std::string (*pattern)(int i);                 // feed i's pattern
  std::string (*file)(Rng& rng, int num_feeds);  // a matching filename
  std::string (*junk)(Rng& rng);                 // an unmatched filename
};

const Workload kWorkloads[] = {
    {"unique_prefix",
     [](int i) {
       return StrFormat("metric%04d_POLL%%i_%%Y%%m%%d%%H%%M.csv", i);
     },
     [](Rng& rng, int n) {
       return StrFormat("metric%04d_POLL%d_201009250%d%d5.csv",
                        (int)rng.Uniform(n), (int)rng.Uniform(8),
                        (int)rng.Uniform(10), (int)rng.Uniform(6));
     },
     [](Rng& rng) { return rng.AlnumString(24); }},
    {"shared_prefix",
     [](int i) {
       return StrFormat("SNMP_CPU_POLL%%i_host%04d.%%Y%%m%%d.csv", i);
     },
     [](Rng& rng, int n) {
       return StrFormat("SNMP_CPU_POLL%d_host%04d.20100925.csv",
                        (int)rng.Uniform(64), (int)rng.Uniform(n));
     },
     // Junk that still wears the family prefix, so the trie walks deep
     // before every candidate fails.
     [](Rng& rng) {
       return StrFormat("SNMP_CPU_POLL%d_host%04d.20100925.txt",
                        (int)rng.Uniform(64), (int)rng.Uniform(1000));
     }},
    {"prefixless",
     [](int i) { return StrFormat("%%s_POLL%%i_f%04d.csv", i); },
     [](Rng& rng, int n) {
       return StrFormat("%s_POLL%d_f%04d.csv", rng.AlnumString(6).c_str(),
                        (int)rng.Uniform(9), (int)rng.Uniform(n));
     },
     [](Rng& rng) { return rng.AlnumString(24); }},
};

std::string BuildConfig(const Workload& w, int num_feeds) {
  std::string config;
  config.reserve(static_cast<size_t>(num_feeds) * 64);
  for (int i = 0; i < num_feeds; ++i) {
    config += StrFormat("feed F%05d { pattern \"%s\"; }\n", i,
                        w.pattern(i).c_str());
  }
  return config;
}

std::vector<std::string> MakeNames(const Workload& w, int num_feeds,
                                   size_t n) {
  Rng rng(7);
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(rng.Bernoulli(0.1) ? w.junk(rng) : w.file(rng, num_feeds));
  }
  return names;
}

struct RunResult {
  std::string workload;
  std::string mode;
  int feeds = 0;
  size_t files = 0;
  double ns_per_file = 0;
  double checks_per_file = 0;
  double matched_pct = 0;
  double compile_ms = 0;  // automaton only
  AutomatonStats automaton;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One row: a feed table, the names to classify, and the engine — the
// automaton, or the linear oracle. A row keeps its fastest timed pass.
class Row {
 public:
  Row(const Workload& w, int num_feeds, std::vector<std::string> names,
      bool linear)
      : registry_(MakeRegistry(BuildConfig(w, num_feeds))),
        names_(std::move(names)),
        linear_(linear) {
    result_.workload = w.name;
    result_.mode = linear ? "linear" : "automaton";
    result_.feeds = num_feeds;
    result_.files = names_.size();
    if (linear) {
      result_.checks_per_file = num_feeds;  // every pattern, every file
      return;
    }
    double t0 = NowMs();
    classifier_ = std::make_unique<FeedClassifier>(registry_.get());
    result_.compile_ms = NowMs() - t0;
    result_.automaton = classifier_->automaton()->stats();
    // Warm-up over a slice: faults the tables in and settles the branch
    // predictors before the timed passes.
    for (size_t i = 0; i < names_.size() && i < 2048; ++i) {
      (void)classifier_->Classify(names_[i]);
    }
  }

  void TimePass() {
    if (classifier_) classifier_->ResetStats();
    size_t matched = 0;
    double t0 = NowMs();
    for (const std::string& name : names_) {
      matched += (linear_ ? ClassifyLinear(*registry_, name)
                          : classifier_->Classify(name))
                     .matched();
    }
    const double files = static_cast<double>(names_.size());
    const double ns = (NowMs() - t0) * 1e6 / files;
    if (passes_++ > 0 && ns >= result_.ns_per_file) return;
    result_.ns_per_file = ns;
    result_.matched_pct = 100.0 * static_cast<double>(matched) / files;
    if (classifier_) {
      result_.checks_per_file =
          static_cast<double>(classifier_->stats().candidate_checks) / files;
    }
  }

  const RunResult& result() const { return result_; }

 private:
  std::unique_ptr<FeedRegistry> registry_;
  std::unique_ptr<FeedClassifier> classifier_;  // automaton rows only
  std::vector<std::string> names_;
  bool linear_;
  int passes_ = 0;
  RunResult result_;
};

}  // namespace

int main() {
  const bool quick = std::getenv("BISTRO_BENCH_QUICK") != nullptr;
  const char* out_env = std::getenv("BISTRO_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_classifier.json";

  const size_t linear_names = quick ? 2000 : 6000;
  const size_t fast_names = quick ? 10000 : 40000;

  std::printf("=== Classifier: workload x mode sweep%s ===\n\n",
              quick ? " (quick)" : "");
  std::printf("%-14s %-9s %7s %10s %12s %9s %11s\n", "workload", "mode",
              "feeds", "ns/file", "checks/file", "matched", "compile ms");

  std::vector<RunResult> sweep;
  double linear_shared_1000 = 0, automaton_shared_1000 = 0;
  for (const Workload& w : kWorkloads) {
    for (int num_feeds : {100, 1000}) {
      auto names = MakeNames(w, num_feeds, fast_names);
      for (bool linear : {true, false}) {
        // Linear at 1000 feeds is ~1000 full match attempts per file;
        // give it the smaller corpus so the row stays cheap.
        Row row(w, num_feeds,
                linear ? std::vector<std::string>(
                             names.begin(),
                             names.begin() + static_cast<ptrdiff_t>(
                                                 linear_names))
                       : names,
                linear);
        row.TimePass();
        const RunResult& r = row.result();
        if (w.name == std::string("shared_prefix") && num_feeds == 1000) {
          (linear ? linear_shared_1000 : automaton_shared_1000) =
              r.ns_per_file;
        }
        sweep.push_back(r);
        std::printf("%-14s %-9s %7d %10.0f %12.1f %8.1f%% %11.1f\n",
                    r.workload.c_str(), r.mode.c_str(), r.feeds, r.ns_per_file,
                    r.checks_per_file, r.matched_pct, r.compile_ms);
      }
    }
    std::printf("\n");
  }

  // ---- Scale sweep: the automaton's per-file cost vs table size.
  // Arrival order follows the landing zone's real shape: a feed's
  // generator deposits a cycle's worth of files at once (paper §2.1 —
  // feeds are periodic batches), so consecutive arrivals cluster by feed
  // rather than sampling 10^5 feeds uniformly one file at a time.
  const Workload scale_workload = {
      "scale", [](int i) { return StrFormat("m%05d_%%i.csv", i); },
      [](Rng& rng, int n) {
        return StrFormat("m%05d_%d.csv", (int)rng.Uniform(n),
                         (int)rng.Uniform(100000));
      },
      [](Rng& rng) { return rng.AlnumString(20); }};
  auto make_burst_names = [](int num_feeds, size_t n) {
    Rng rng(7);
    std::vector<std::string> names;
    names.reserve(n);
    while (names.size() < n) {
      if (rng.Bernoulli(0.1)) {
        names.push_back(rng.AlnumString(20));  // unmatched junk
        continue;
      }
      int feed = (int)rng.Uniform(num_feeds);
      size_t burst = 4 + rng.Uniform(12);
      for (size_t b = 0; b < burst && names.size() < n; ++b) {
        names.push_back(
            StrFormat("m%05d_%d.csv", feed, (int)rng.Uniform(100000)));
      }
    }
    return names;
  };
  std::vector<int> scales = {1000, 10000};
  if (!quick) scales.push_back(100000);

  std::printf("=== Automaton scale sweep (m<NNNNN>_%%i.csv) ===\n\n");
  std::printf("%7s %10s %11s %11s %9s %9s %10s %10s\n", "feeds", "ns/file",
              "compile ms", "dfa states", "dense", "sparse", "accepts",
              "table MB");
  // Every row is built first, then timed round-robin, one pass per row
  // per round: a burst of host noise then costs one pass of each row, not
  // every pass of one row.
  std::vector<Row> rows;
  for (int num_feeds : scales) {
    rows.emplace_back(scale_workload, num_feeds,
                      make_burst_names(num_feeds, fast_names),
                      /*linear=*/false);
  }
  for (int pass = 0; pass < 5; ++pass) {
    for (Row& row : rows) row.TimePass();
  }
  std::vector<RunResult> scale_rows;
  for (const Row& row : rows) {
    const RunResult& r = row.result();
    scale_rows.push_back(r);
    std::printf("%7d %10.0f %11.1f %11llu %9llu %9llu %10llu %10.1f\n",
                r.feeds, r.ns_per_file, r.compile_ms,
                (unsigned long long)r.automaton.dfa_states,
                (unsigned long long)r.automaton.dense_rows,
                (unsigned long long)r.automaton.sparse_rows,
                (unsigned long long)r.automaton.accept_sets,
                static_cast<double>(r.automaton.memory_bytes) / 1e6);
  }
  const double scale_base_ns = scale_rows.front().ns_per_file;
  const double scale_top_ns = scale_rows.back().ns_per_file;
  std::printf("\n");

  const double speedup =
      automaton_shared_1000 > 0 ? linear_shared_1000 / automaton_shared_1000
                                : 0;
  const double flatness = scale_base_ns > 0 ? scale_top_ns / scale_base_ns : 0;

  std::string json = StrFormat(
      "{\n  \"bench\": \"classifier\",\n  \"quick\": %s,\n"
      "  \"sweep\": [\n",
      quick ? "true" : "false");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const RunResult& r = sweep[i];
    json += StrFormat(
        "    {\"workload\": \"%s\", \"mode\": \"%s\", \"feeds\": %d, "
        "\"files\": %zu, \"ns_per_file\": %.1f, \"checks_per_file\": %.2f, "
        "\"matched_pct\": %.1f, \"compile_ms\": %.2f}%s\n",
        r.workload.c_str(), r.mode.c_str(), r.feeds, r.files, r.ns_per_file,
        r.checks_per_file, r.matched_pct, r.compile_ms,
        i + 1 < sweep.size() ? "," : "");
  }
  json += "  ],\n  \"scale\": [\n";
  for (size_t i = 0; i < scale_rows.size(); ++i) {
    const RunResult& r = scale_rows[i];
    json += StrFormat(
        "    {\"feeds\": %d, \"ns_per_file\": %.1f, \"compile_ms\": %.2f, "
        "\"dfa_states\": %llu, \"dense_rows\": %llu, \"sparse_rows\": %llu, "
        "\"accept_sets\": %llu, \"memory_bytes\": %llu}%s\n",
        r.feeds, r.ns_per_file, r.compile_ms,
        (unsigned long long)r.automaton.dfa_states,
        (unsigned long long)r.automaton.dense_rows,
        (unsigned long long)r.automaton.sparse_rows,
        (unsigned long long)r.automaton.accept_sets,
        (unsigned long long)r.automaton.memory_bytes,
        i + 1 < scale_rows.size() ? "," : "");
  }
  json += StrFormat(
      "  ],\n  \"speedup_vs_linear_shared_prefix_1000\": %.2f,\n"
      "  \"scale_per_file_ratio\": %.3f,\n  \"scale_top_feeds\": %d\n}\n",
      speedup, flatness, scales.back());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::printf("\nExpected shape: the linear oracle pays one match attempt "
              "per feed for\nevery file while the automaton stays a single "
              "scan (0 checks); on the\nscale sweep the automaton's per-file "
              "cost is flat in table size.\nAcceptance: automaton >= 12.5x "
              "linear at 1000 shared-prefix feeds;\nscale per-file ratio "
              "<= 1.5x (best of 5 passes per row).\n");
  bool ok = true;
  if (speedup < 12.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: automaton %.0f ns/file vs linear %.0f "
                 "ns/file = %.1fx < 12.5x at 1000 shared-prefix feeds\n",
                 automaton_shared_1000, linear_shared_1000, speedup);
    ok = false;
  } else {
    std::printf("ACCEPTANCE PASS: automaton %.1fx linear at 1000 "
                "shared-prefix feeds\n",
                speedup);
  }
  if (flatness > 1.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: per-file cost at %d feeds is %.2fx the "
                 "1000-feed cost (> 1.5x)\n",
                 scales.back(), flatness);
    ok = false;
  } else {
    std::printf("ACCEPTANCE PASS: per-file cost at %d feeds is %.2fx the "
                "1000-feed cost\n",
                scales.back(), flatness);
  }
  return ok ? 0 : 1;
}
