#include "config/parser.h"

#include <set>
#include <type_traits>

#include "pattern/pattern.h"

namespace bistro {

namespace {

using syntax::Alias;
using syntax::BlockDoc;
using syntax::Choice;
using syntax::Cursor;
using syntax::Custom;
using syntax::Dur;
using syntax::DurationLiteral;
using syntax::Field;
using syntax::Int;
using syntax::Key;
using syntax::List;
using syntax::Num;
using syntax::OnOff;
using syntax::Quote;
using syntax::Statements;
using syntax::Str;
using syntax::Token;

// Reads a quoted pattern and compiles it: load-time errors beat
// classification-time errors.
Status ReadPattern(Cursor& in, std::string* out) {
  const size_t at = in.Peek().offset;
  BISTRO_ASSIGN_OR_RETURN(*out, in.String());
  Status compiled = Pattern::Compile(*out).status();
  if (!compiled.ok()) return in.ErrAt(at, compiled.message());
  return Status::OK();
}

// ------------------------------------------------------------------ feed

const std::vector<Key<FeedSpec>> kFeedKeys = {
    // The first clause is the primary pattern; repeats are alternates
    // (typically analyzer-suggested revisions that were approved).
    Custom<FeedSpec>(
        "pattern", "quoted pattern",
        [](Cursor& in, FeedSpec& f) -> Status {
          const size_t at = in.Peek().offset;
          std::string pattern;
          BISTRO_RETURN_IF_ERROR(ReadPattern(in, &pattern));
          if (pattern.empty()) return in.ErrAt(at, "pattern is empty");
          (f.pattern.empty() ? f.pattern : f.alt_patterns.emplace_back()) =
              std::move(pattern);
          return Status::OK();
        },
        [](const FeedSpec& f, Statements* out) {
          if (f.pattern.empty()) return;
          out->push_back("pattern " + Quote(f.pattern));
          for (const std::string& alt : f.alt_patterns) {
            out->push_back("pattern " + Quote(alt));
          }
        })
        .Required(),
    Custom<FeedSpec>(
        "normalize", "quoted pattern",
        [](Cursor& in, FeedSpec& f) {
          return ReadPattern(in, &f.normalize.rename_template);
        },
        [](const FeedSpec& f, Statements* out) {
          const std::string& t = f.normalize.rename_template;
          if (!t.empty()) out->push_back("normalize " + Quote(t));
        }),
    Custom<FeedSpec>(
        "compress", "none / rle / lz",
        [](Cursor& in, FeedSpec& f) -> Status {
          const size_t at = in.Peek().offset;
          BISTRO_ASSIGN_OR_RETURN(std::string name, in.Ident());
          Result<CodecKind> codec = CodecKindFromName(name);
          if (!codec.ok()) return in.ErrAt(at, codec.status().message());
          f.normalize.codec = *codec;
          f.normalize.action = CompressionAction::kCompress;
          return Status::OK();
        },
        [](const FeedSpec& f, Statements* out) {
          if (f.normalize.action != CompressionAction::kCompress) return;
          out->push_back("compress " +
                         std::string(CodecKindName(f.normalize.codec)));
        }),
    Custom<FeedSpec>(
        "decompress", "flag",
        [](Cursor&, FeedSpec& f) {
          f.normalize.action = CompressionAction::kDecompress;
          f.normalize.codec = NormalizeSpec{}.codec;
          return Status::OK();
        },
        [](const FeedSpec& f, Statements* out) {
          if (f.normalize.action == CompressionAction::kDecompress) {
            out->push_back("decompress");
          }
        }),
    Dur("tardiness", &FeedSpec::tardiness),
};

// ------------------------------------------------------------ subscriber

Status ParseTrigger(Cursor& in, SubscriberSpec& sub) {
  BatchSpec& batch = sub.trigger.batch;
  if (in.Take("file")) {
    batch.mode = BatchSpec::Mode::kPerFile;
  } else if (in.Take("punctuation")) {
    batch.mode = BatchSpec::Mode::kPunctuation;
  } else if (in.Take("batch")) {
    bool count = false, timeout = false;
    for (;;) {
      if (in.Take("count")) {
        const size_t at = in.Peek().offset;
        BISTRO_ASSIGN_OR_RETURN(int64_t n, in.Int());
        if (n <= 0 || n > INT32_MAX) {
          return in.ErrAt(at, "batch count must be positive");
        }
        batch.count = static_cast<int>(n);
        count = true;
      } else if (in.Take("timeout")) {
        BISTRO_ASSIGN_OR_RETURN(batch.timeout, in.Dur());
        timeout = true;
      } else {
        break;
      }
    }
    if (!count && !timeout) {
      return in.Err("batch trigger needs count and/or timeout");
    }
    batch.mode = count && timeout ? BatchSpec::Mode::kCountOrTime
                 : count          ? BatchSpec::Mode::kCount
                                  : BatchSpec::Mode::kTime;
  } else {
    return in.Err("trigger must be file, punctuation or batch");
  }
  for (;;) {
    if (in.Take("exec")) {
      BISTRO_ASSIGN_OR_RETURN(sub.trigger.command, in.String());
    } else if (in.Take("remote")) {
      sub.trigger.remote = true;
    } else {
      return Status::OK();
    }
  }
}

const char kTriggerSyntax[] =
    "(file / punctuation / batch [count N] [timeout D]) [exec \"cmd\"] "
    "[remote]";

void FormatTrigger(const SubscriberSpec& sub, Statements* out) {
  const TriggerSpec& t = sub.trigger;
  if (t == TriggerSpec{}) return;
  std::string s = "trigger ";
  switch (t.batch.mode) {
    case BatchSpec::Mode::kPerFile:
      s += "file";
      break;
    case BatchSpec::Mode::kPunctuation:
      s += "punctuation";
      break;
    case BatchSpec::Mode::kCount:
      s += StrFormat("batch count %d", t.batch.count);
      break;
    case BatchSpec::Mode::kTime:
      s += "batch timeout " + DurationLiteral(t.batch.timeout);
      break;
    case BatchSpec::Mode::kCountOrTime:
      s += StrFormat("batch count %d timeout ", t.batch.count) +
           DurationLiteral(t.batch.timeout);
      break;
  }
  if (!t.command.empty()) s += " exec " + Quote(t.command);
  if (t.remote) s += " remote";
  out->push_back(std::move(s));
}

const std::vector<Key<SubscriberSpec>> kSubscriberKeys = {
    Str("host", &SubscriberSpec::host),
    Str("destination", &SubscriberSpec::destination),
    List("feeds", &SubscriberSpec::feeds).Required(),
    Choice("method", &SubscriberSpec::method, {"push", "notify"},
           {DeliveryMethod::kPush, DeliveryMethod::kNotify}),
    Custom<SubscriberSpec>("trigger", kTriggerSyntax, ParseTrigger,
                           FormatTrigger),
    Dur("window", &SubscriberSpec::window),
};

// ------------------------------------------- subscriber group and relay

const std::vector<Key<GroupSpec>> kGroupKeys = {
    List("feeds", &GroupSpec::feeds).Required(),
    List("members", &GroupSpec::members).Required(),
    Dur("window", &GroupSpec::window),
    Int("straggler_after", &GroupSpec::straggler_after, 1),
};

std::string CheckGroup(const GroupSpec& group) {
  std::set<std::string> seen;
  for (const std::string& member : group.members) {
    if (!seen.insert(member).second) return "lists member '" + member + "' twice";
  }
  return "";
}

const std::vector<Key<RelaySpec>> kRelayKeys = {
    List("children", &RelaySpec::children).Required(),
    Str("spool", &RelaySpec::spool),
    Dur("retry_backoff", &RelaySpec::retry_backoff, true),
    Int("max_attempts", &RelaySpec::max_attempts, 1),
};

// ------------------------------------------------------------------ plan

// `quota N [per <interval>]` and `quota_bytes ...` share one interval.
Key<PlanSpec> QuotaKey(std::string name,
                       std::optional<int64_t> PlanSpec::*budget) {
  return Custom<PlanSpec>(
      name, "N [per <duration>]",
      [name, budget](Cursor& in, PlanSpec& plan) -> Status {
        const size_t at = in.Peek().offset;
        BISTRO_ASSIGN_OR_RETURN(int64_t n, in.Int());
        if (n < 1) return in.ErrAt(at, name + " must be at least 1");
        plan.*budget = n;
        if (!in.Take("per")) return Status::OK();
        const size_t per = in.Peek().offset;
        BISTRO_ASSIGN_OR_RETURN(plan.quota_interval, in.Dur());
        if (plan.quota_interval <= 0) {
          return in.ErrAt(per, "quota interval must be positive");
        }
        return Status::OK();
      },
      [name, budget](const PlanSpec& plan, Statements* out) {
        if (!(plan.*budget)) return;
        out->push_back(name + " " + std::to_string(*(plan.*budget)) +
                       " per " + DurationLiteral(plan.quota_interval));
      });
}

const std::vector<Key<PlanSpec>> kPlanKeys = {
    List("route", &PlanSpec::route),
    Custom<PlanSpec>(
        "split", "N to <id>, ...",
        [](Cursor& in, PlanSpec& plan) -> Status {
          const size_t at = in.Peek().offset;
          plan.split.clear();
          int total = 0;
          std::set<std::string> arms;
          do {
            PlanSplitArm arm;
            const size_t pct_at = in.Peek().offset;
            BISTRO_ASSIGN_OR_RETURN(int64_t pct, in.Int());
            if (pct < 1 || pct > 100) {
              return in.ErrAt(pct_at, "split percent must be in [1, 100]");
            }
            arm.percent = static_cast<int>(pct);
            total += arm.percent;
            BISTRO_RETURN_IF_ERROR(in.Expect("to"));
            const size_t to_at = in.Peek().offset;
            BISTRO_ASSIGN_OR_RETURN(arm.to, in.Ident());
            if (!arms.insert(arm.to).second) {
              return in.ErrAt(to_at, "split lists arm '" + arm.to + "' twice");
            }
            plan.split.push_back(std::move(arm));
          } while (in.Take(","));
          if (total != 100) return in.ErrAt(at, "split percents must sum to 100");
          return Status::OK();
        },
        [](const PlanSpec& plan, Statements* out) {
          if (plan.split.empty()) return;
          std::vector<std::string> arms;
          for (const PlanSplitArm& arm : plan.split) {
            arms.push_back(std::to_string(arm.percent) + " to " + arm.to);
          }
          out->push_back("split " + Join(arms, ", "));
        }),
    Int("replicate", &PlanSpec::replicate, 1),
    Num("sample", &PlanSpec::sample, 0, 100, /*lo_open=*/true),
    Choice("transform", &PlanSpec::transform,
           {"none", "rle", "lz", "decompress"}),
    QuotaKey("quota", &PlanSpec::quota_files),
    QuotaKey("quota_bytes", &PlanSpec::quota_bytes),
    Choice("slo", &PlanSpec::slo, {"interactive", "standard", "bulk"}),
    List("enrich", &PlanSpec::enrich, {"provenance", "checksum"}),
};

std::string CheckPlan(const PlanSpec& plan) {
  PlanSpec blank;
  blank.feed = plan.feed;
  return plan == blank ? "declares nothing" : "";
}

// ---------------------------------------------------------- tuning blocks

const std::vector<Key<DeliveryTuningSpec>> kDeliveryKeys = {
    Dur("retry_backoff_min", &DeliveryTuningSpec::retry_backoff_min),
    // Predates the exponential schedule; sets the same floor.
    Alias<DeliveryTuningSpec>("retry_backoff", "retry_backoff_min"),
    Dur("retry_backoff_max", &DeliveryTuningSpec::retry_backoff_max),
    Num("retry_multiplier", &DeliveryTuningSpec::retry_multiplier, 1),
    OnOff("retry_jitter", &DeliveryTuningSpec::retry_jitter),
    Int("max_attempts", &DeliveryTuningSpec::max_attempts, 1),
    Int("offline_after", &DeliveryTuningSpec::offline_after, 1),
    Dur("probe_interval", &DeliveryTuningSpec::probe_interval),
    Int("window", &DeliveryTuningSpec::window, 0),
    Int("coalesce_bytes", &DeliveryTuningSpec::coalesce_bytes, 0),
    Int("cache_bytes", &DeliveryTuningSpec::cache_bytes, 0),
    Int("receipt_group", &DeliveryTuningSpec::receipt_group, 1),
    Dur("receipt_flush_interval", &DeliveryTuningSpec::receipt_flush_interval),
};

const std::vector<Key<IngestTuningSpec>> kIngestKeys = {
    Int("workers", &IngestTuningSpec::workers, 0),
    Int("queue_depth", &IngestTuningSpec::queue_depth, 1),
    Int("batch", &IngestTuningSpec::batch, 1),
    Choice("overload_policy", &IngestTuningSpec::overload_policy,
           {"block", "shed_oldest", "spill"}),
};

const std::vector<Key<AnalyzerTuningSpec>> kAnalyzerKeys = {
    Int("workers", &AnalyzerTuningSpec::workers, 0),
    Int("max_corpus", &AnalyzerTuningSpec::max_corpus, 1),
    Int("shards", &AnalyzerTuningSpec::shards, 1),
    Dur("cycle_interval", &AnalyzerTuningSpec::cycle_interval, true),
};

const std::vector<Key<ReceiptTuningSpec>> kReceiptKeys = {
    Int("shards", &ReceiptTuningSpec::shards, 1, 256),
};

const std::vector<Key<ClassifierTuningSpec>> kClassifierKeys = {
    Choice("mode", &ClassifierTuningSpec::mode,
           {"automaton", "trie", "linear"}),
};

// ---------------------------------------------------- server and peers

const std::vector<Key<ServerNetSpec>> kServerKeys = {
    Str("listen", &ServerNetSpec::listen),
    Int("max_frame_bytes", &ServerNetSpec::max_frame_bytes, 1),
    Int("outbound_queue_bytes", &ServerNetSpec::outbound_queue_bytes, 1),
    Dur("reconnect_backoff_min", &ServerNetSpec::reconnect_backoff_min, true),
    Dur("reconnect_backoff_max", &ServerNetSpec::reconnect_backoff_max, true),
    Dur("ack_timeout", &ServerNetSpec::ack_timeout, true),
};

const std::vector<Key<PeerSpec>> kPeerKeys = {
    Str("address", &PeerSpec::address).Required(),
    List("feeds", &PeerSpec::feeds),
    Custom<PeerSpec>(
        "shard", "<i> of <n>",
        [](Cursor& in, PeerSpec& peer) -> Status {
          const size_t at = in.Peek().offset;
          BISTRO_ASSIGN_OR_RETURN(int64_t index, in.Int());
          BISTRO_RETURN_IF_ERROR(in.Expect("of"));
          BISTRO_ASSIGN_OR_RETURN(int64_t count, in.Int());
          if (count <= 0 || count > INT32_MAX) {
            return in.ErrAt(at, "shard count must be positive");
          }
          if (index < 0 || index >= count) {
            return in.ErrAt(at, "shard index must be in [0, count)");
          }
          peer.shard_index = static_cast<int>(index);
          peer.shard_count = static_cast<int>(count);
          return Status::OK();
        },
        [](const PeerSpec& peer, Statements* out) {
          if (peer.shard_count == 0) return;
          out->push_back(StrFormat("shard %d of %d", peer.shard_index,
                                   peer.shard_count));
        }),
    Dur("window", &PeerSpec::window),
    Int("replicas", &PeerSpec::replicas, 1),
    Field("failover", &PeerSpec::failover, "peer name",
          [](Cursor& in) { return in.Ident(); },
          [](const std::string& peer) { return peer; }),
    Dur("probe_interval", &PeerSpec::probe_interval, true),
    Int("suspect_after", &PeerSpec::suspect_after, 1),
    Int("down_after", &PeerSpec::down_after, 1),
};

std::string CheckPeer(const PeerSpec& peer) {
  if (peer.address.empty()) return "has no address";
  if (!peer.feeds.empty() && peer.shard_count > 0) {
    return "sets both explicit feeds and sharding";
  }
  if (peer.replicas > 1 && peer.shard_count == 0) {
    return "sets replicas without sharding";
  }
  if (peer.shard_count > 0 && peer.replicas > peer.shard_count) {
    return "sets replicas above its shard count";
  }
  if (peer.failover == peer.name) return "names itself as failover";
  if (peer.suspect_after && peer.down_after &&
      *peer.down_after < *peer.suspect_after) {
    return "sets down_after below suspect_after";
  }
  return "";
}

// ------------------------------------------------------- top-level blocks

/// One top-level statement: `keyword [NAME] { ... }`.
struct Statement {
  BlockDoc doc;
  std::function<Status(Cursor&, ServerConfig*)> parse;  // after the keyword
  std::function<void(const ServerConfig&, std::string*)> format;
};

template <class S>
using Check = std::string (*)(const S&);

// Parses `NAME { ... }` into a new S appended to `out`; `prefix` is the
// enclosing feed group's dotted name.
template <class S>
Status ParseNamed(Cursor& in, const std::vector<Key<S>>& keys,
                  const std::string& keyword, std::string S::*name,
                  std::type_identity_t<Check<S>> check, std::vector<S>* out,
                  const std::string& prefix = "") {
  const size_t at = in.Peek().offset;
  S s;
  BISTRO_ASSIGN_OR_RETURN(s.*name, in.Ident());
  if (!prefix.empty()) s.*name = prefix + "." + s.*name;
  const std::string label = keyword + " " + s.*name;
  BISTRO_RETURN_IF_ERROR(syntax::ParseBody(in, keys, &s, label));
  const std::string error = check ? check(s) : "";
  if (!error.empty()) return in.ErrAt(at, label + " " + error);
  out->push_back(std::move(s));
  return Status::OK();
}

template <class S>
void FormatNamed(const std::vector<Key<S>>& keys, const std::string& keyword,
                 std::string S::*name, const std::vector<S>& list,
                 std::string* out) {
  for (const S& s : list) {
    *out += keyword + " " + s.*name + " " + syntax::FormatBody(keys, s) + "\n";
  }
}

template <class S>
Statement Named(std::string keyword, std::vector<S> ServerConfig::*list,
                std::string S::*name, const std::vector<Key<S>>* keys,
                Check<S> check = nullptr) {
  return Statement{
      BlockDoc{keyword, true, syntax::Docs(*keys)},
      [=](Cursor& in, ServerConfig* c) {
        return ParseNamed(in, *keys, keyword, name, check, &(c->*list));
      },
      [=](const ServerConfig& c, std::string* out) {
        FormatNamed(*keys, keyword, name, c.*list, out);
      }};
}

// A singleton tuning block; every key is optional and repeats merge.
template <class S>
Statement Overlay(std::string keyword, S ServerConfig::*block,
                  const std::vector<Key<S>>* keys) {
  return Statement{
      BlockDoc{keyword, false, syntax::Docs(*keys)},
      [=](Cursor& in, ServerConfig* c) {
        return syntax::ParseBody(in, *keys, &(c->*block), keyword);
      },
      [=](const ServerConfig& c, std::string* out) {
        if (c.*block == S{}) return;
        *out += keyword + " " + syntax::FormatBody(*keys, c.*block) + "\n";
      }};
}

// `group NAME { ... }` is overloaded: a block of nested `feed`/`group`
// definitions is a feed-hierarchy prefix; a block of subscriber-group keys
// (`feeds`, `members`, ...) is a *subscriber group* — one shared delivery
// identity fanned out to many member endpoints. Feed groups flatten into
// dotted feed names. The cursor is at NAME.
Status ParseGroup(Cursor& in, const std::string& prefix, ServerConfig* c) {
  const Token& first = in.Peek(2);  // NAME { FIRST
  for (const Key<GroupSpec>& key : kGroupKeys) {
    if (first.kind != syntax::TokKind::kIdent || first.text != key.name) {
      continue;
    }
    if (!prefix.empty()) {
      return in.Err("subscriber group cannot be nested inside feed group " +
                    prefix);
    }
    return ParseNamed(in, kGroupKeys, "group", &GroupSpec::name, CheckGroup,
                      &c->groups);
  }
  BISTRO_ASSIGN_OR_RETURN(std::string name, in.Ident());
  const std::string full = prefix.empty() ? name : prefix + "." + name;
  BISTRO_RETURN_IF_ERROR(in.Expect("{"));
  while (!in.Take("}")) {
    if (in.Take("group")) {
      BISTRO_RETURN_IF_ERROR(ParseGroup(in, full, c));
    } else if (in.Take("feed")) {
      BISTRO_RETURN_IF_ERROR(ParseNamed(in, kFeedKeys, "feed", &FeedSpec::name,
                                        nullptr, &c->feeds, full));
    } else {
      return in.Err(in.AtEof() ? "unterminated group " + full
                               : "expected 'group' or 'feed' inside group " +
                                     full);
    }
  }
  return Status::OK();
}

// Format order is table order.
const std::vector<Statement> kStatements = {
    Named("feed", &ServerConfig::feeds, &FeedSpec::name, &kFeedKeys),
    Named("subscriber", &ServerConfig::subscribers, &SubscriberSpec::name,
          &kSubscriberKeys),
    Statement{BlockDoc{"group", true, syntax::Docs(kGroupKeys)},
              [](Cursor& in, ServerConfig* c) { return ParseGroup(in, "", c); },
              [](const ServerConfig& c, std::string* out) {
                FormatNamed(kGroupKeys, "group", &GroupSpec::name, c.groups,
                            out);
              }},
    Overlay("delivery", &ServerConfig::delivery, &kDeliveryKeys),
    Overlay("ingest", &ServerConfig::ingest, &kIngestKeys),
    Overlay("analyzer", &ServerConfig::analyzer, &kAnalyzerKeys),
    Overlay("receipts", &ServerConfig::receipts, &kReceiptKeys),
    Overlay("classifier", &ServerConfig::classifier, &kClassifierKeys),
    Named("plan", &ServerConfig::plans, &PlanSpec::feed, &kPlanKeys,
          CheckPlan),
    Overlay("server", &ServerConfig::server, &kServerKeys),
    Named("peer", &ServerConfig::peers, &PeerSpec::name, &kPeerKeys,
          CheckPeer),
    Named("relay", &ServerConfig::relays, &RelaySpec::name, &kRelayKeys),
};

// Checks that need the whole config. Deeper plan checks (unknown feeds,
// route targets, replication vs the peer fleet) run in the plan compiler,
// which sees the resolved registry.
Status CheckConfig(const ServerConfig& config) {
  std::set<std::string> peers, subscribers, groups, relays, plans;
  for (const PeerSpec& peer : config.peers) peers.insert(peer.name);
  for (const PeerSpec& peer : config.peers) {
    if (!peer.failover.empty() && peers.count(peer.failover) == 0) {
      return Status::InvalidArgument("peer " + peer.name +
                                     " names unknown failover peer '" +
                                     peer.failover + "'");
    }
  }
  // Group/subscriber identities share one delivery namespace.
  for (const SubscriberSpec& sub : config.subscribers) {
    subscribers.insert(sub.name);
  }
  for (const GroupSpec& group : config.groups) {
    if (subscribers.count(group.name) != 0) {
      return Status::InvalidArgument("group " + group.name +
                                     " is also a subscriber name");
    }
    if (!groups.insert(group.name).second) {
      return Status::InvalidArgument("duplicate group: " + group.name);
    }
  }
  for (const RelaySpec& relay : config.relays) {
    if (!relays.insert(relay.name).second) {
      return Status::InvalidArgument("duplicate relay: " + relay.name);
    }
  }
  for (const PlanSpec& plan : config.plans) {
    if (!plans.insert(plan.feed).second) {
      return Status::InvalidArgument("duplicate plan for " + plan.feed);
    }
  }
  return Status::OK();
}

}  // namespace

Result<ServerConfig> ParseConfig(std::string_view text) {
  BISTRO_ASSIGN_OR_RETURN(Cursor in, Cursor::Lex(text, "config"));
  ServerConfig config;
  while (!in.AtEof()) {
    const Statement* statement = nullptr;
    for (const Statement& s : kStatements) {
      if (in.Take(s.doc.keyword)) {
        statement = &s;
        break;
      }
    }
    if (statement == nullptr) {
      std::vector<std::string> keywords;
      for (const Statement& s : kStatements) keywords.push_back(s.doc.keyword);
      return in.Err("expected one of " + Join(keywords, ", "));
    }
    BISTRO_RETURN_IF_ERROR(statement->parse(in, &config));
  }
  BISTRO_RETURN_IF_ERROR(CheckConfig(config));
  return config;
}

std::string FormatConfig(const ServerConfig& config) {
  std::string out;
  for (const Statement& s : kStatements) s.format(config, &out);
  return out;
}

std::vector<syntax::BlockDoc> ConfigSchema() {
  std::vector<syntax::BlockDoc> out;
  for (const Statement& s : kStatements) out.push_back(s.doc);
  return out;
}

}  // namespace bistro
