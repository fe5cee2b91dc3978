#include "obs/export.h"

#include <cctype>

#include "common/strings.h"

namespace bistro {

namespace {

std::string_view TypeName(MetricSnapshot::Type type) {
  switch (type) {
    case MetricSnapshot::Type::kCounter:
      return "counter";
    case MetricSnapshot::Type::kGauge:
      return "gauge";
    case MetricSnapshot::Type::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// Escapes a HELP string per the exposition format.
std::string EscapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ExportPrometheus(MetricsRegistry* registry) {
  std::string out;
  for (const MetricSnapshot& m : registry->Collect()) {
    out += "# HELP " + m.name + " " + EscapeHelp(m.help) + "\n";
    out += "# TYPE " + m.name + " " + std::string(TypeName(m.type)) + "\n";
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        out += StrFormat("%s %llu\n", m.name.c_str(),
                         (unsigned long long)m.counter_value);
        break;
      case MetricSnapshot::Type::kGauge:
        out += StrFormat("%s %lld\n", m.name.c_str(), (long long)m.gauge_value);
        break;
      case MetricSnapshot::Type::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.bounds.size(); ++i) {
          cumulative += m.buckets[i];
          out += StrFormat("%s_bucket{le=\"%lld\"} %llu\n", m.name.c_str(),
                           (long long)m.bounds[i],
                           (unsigned long long)cumulative);
        }
        out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", m.name.c_str(),
                         (unsigned long long)m.count);
        out += StrFormat("%s_sum %lld\n", m.name.c_str(), (long long)m.sum);
        out += StrFormat("%s_count %llu\n", m.name.c_str(),
                         (unsigned long long)m.count);
        break;
      }
    }
  }
  return out;
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ExportJson(MetricsRegistry* registry) {
  auto snapshots = registry->Collect();
  std::string counters, gauges, histograms;
  for (const MetricSnapshot& m : snapshots) {
    switch (m.type) {
      case MetricSnapshot::Type::kCounter:
        if (!counters.empty()) counters += ",\n";
        counters += StrFormat("    \"%s\": %llu", JsonEscape(m.name).c_str(),
                              (unsigned long long)m.counter_value);
        break;
      case MetricSnapshot::Type::kGauge:
        if (!gauges.empty()) gauges += ",\n";
        gauges += StrFormat("    \"%s\": %lld", JsonEscape(m.name).c_str(),
                            (long long)m.gauge_value);
        break;
      case MetricSnapshot::Type::kHistogram: {
        if (!histograms.empty()) histograms += ",\n";
        std::string buckets;
        for (size_t i = 0; i < m.bounds.size(); ++i) {
          if (!buckets.empty()) buckets += ", ";
          buckets += StrFormat("{\"le\": %lld, \"count\": %llu}",
                               (long long)m.bounds[i],
                               (unsigned long long)m.buckets[i]);
        }
        if (!buckets.empty()) buckets += ", ";
        buckets += StrFormat("{\"le\": \"overflow\", \"count\": %llu}",
                             (unsigned long long)m.buckets.back());
        histograms += StrFormat(
            "    \"%s\": {\"count\": %llu, \"sum\": %lld, \"max\": %lld, "
            "\"p50\": %lld, \"p95\": %lld, \"p99\": %lld,\n"
            "      \"buckets\": [%s]}",
            JsonEscape(m.name).c_str(), (unsigned long long)m.count,
            (long long)m.sum, (long long)m.max, (long long)m.p50,
            (long long)m.p95, (long long)m.p99, buckets.c_str());
        break;
      }
    }
  }
  std::string out = "{\n";
  out += "  \"counters\": {\n" + counters + "\n  },\n";
  out += "  \"gauges\": {\n" + gauges + "\n  },\n";
  out += "  \"histograms\": {\n" + histograms + "\n  }\n";
  out += "}\n";
  return out;
}

Result<std::map<std::string, double>> ParsePrometheusText(
    std::string_view text) {
  std::map<std::string, double> out;
  for (std::string_view line : Split(std::string(text), '\n')) {
    line = Trim(line);
    if (line.empty() || line.front() == '#') continue;
    // The sample name may contain a {label} block with spaces inside
    // quotes; the value is everything after the last space.
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) {
      return Status::InvalidArgument("malformed sample line: " +
                                     std::string(line));
    }
    std::string key = std::string(Trim(line.substr(0, space)));
    auto value = ParseDouble(Trim(line.substr(space + 1)));
    if (!value || key.empty()) {
      return Status::InvalidArgument("malformed sample line: " +
                                     std::string(line));
    }
    out[key] = *value;
  }
  return out;
}

namespace {

/// Minimal recursive-descent JSON reader that flattens numeric leaves
/// into dotted paths. Not a general validator — just enough structure
/// checking to round-trip ExportJson output safely.
class JsonFlattener {
 public:
  explicit JsonFlattener(std::string_view in) : in_(in) {}

  Status Run(std::map<std::string, double>* out) {
    out_ = out;
    SkipWs();
    BISTRO_RETURN_IF_ERROR(Value(""));
    SkipWs();
    if (pos_ != in_.size()) {
      return Status::InvalidArgument("trailing garbage after JSON document");
    }
    return Status::OK();
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    if (!Eat('"')) return Status::InvalidArgument("expected string");
    out->clear();
    while (pos_ < in_.size() && in_[pos_] != '"') {
      char c = in_[pos_++];
      if (c == '\\' && pos_ < in_.size()) {
        char esc = in_[pos_++];
        switch (esc) {
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'u':
            // Skip 4 hex digits; exporter only emits control chars this
            // way, which never appear in metric names.
            pos_ = std::min(pos_ + 4, in_.size());
            break;
          default:
            out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    if (!Eat('"')) return Status::InvalidArgument("unterminated string");
    return Status::OK();
  }

  Status Value(const std::string& path) {
    SkipWs();
    if (pos_ >= in_.size()) return Status::InvalidArgument("truncated JSON");
    char c = in_[pos_];
    if (c == '{') return Object(path);
    if (c == '[') return Array(path);
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (StartsWith(in_.substr(pos_), "true")) {
      pos_ += 4;
      return Status::OK();
    }
    if (StartsWith(in_.substr(pos_), "false")) {
      pos_ += 5;
      return Status::OK();
    }
    if (StartsWith(in_.substr(pos_), "null")) {
      pos_ += 4;
      return Status::OK();
    }
    // Number.
    size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '-' || in_[pos_] == '+' || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E')) {
      ++pos_;
    }
    auto num = ParseDouble(in_.substr(start, pos_ - start));
    if (!num) return Status::InvalidArgument("malformed JSON number");
    (*out_)[path] = *num;
    return Status::OK();
  }

  Status Object(const std::string& path) {
    Eat('{');
    SkipWs();
    if (Eat('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      BISTRO_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Eat(':')) return Status::InvalidArgument("expected ':' in object");
      BISTRO_RETURN_IF_ERROR(
          Value(path.empty() ? key : path + "." + key));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat('}')) return Status::OK();
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
  }

  Status Array(const std::string& path) {
    Eat('[');
    SkipWs();
    if (Eat(']')) return Status::OK();
    size_t index = 0;
    while (true) {
      BISTRO_RETURN_IF_ERROR(
          Value(path + "." + std::to_string(index++)));
      SkipWs();
      if (Eat(',')) continue;
      if (Eat(']')) return Status::OK();
      return Status::InvalidArgument("expected ',' or ']' in array");
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  std::map<std::string, double>* out_ = nullptr;
};

}  // namespace

Result<std::map<std::string, double>> ParseJsonNumbers(std::string_view text) {
  std::map<std::string, double> out;
  JsonFlattener flattener(text);
  BISTRO_RETURN_IF_ERROR(flattener.Run(&out));
  return out;
}

ScrapeHandle StartMetricsScrape(
    EventLoop* loop, MetricsRegistry* registry, Duration interval,
    std::function<void(const std::string&)> consume) {
  auto token = std::make_shared<char>(0);
  // Each queued tick owns the tick closure; the closure holds itself
  // only weakly, so it is freed with the last queued tick — when a tick
  // finds the handle dropped and does not repost, or when the loop is
  // destroyed with a tick still queued.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [loop, registry, interval, consume = std::move(consume),
           weak = std::weak_ptr<char>(token),
           self = std::weak_ptr<std::function<void()>>(tick)] {
    if (weak.expired()) return;
    consume(ExportPrometheus(registry));
    loop->PostAfter(interval, [tick = self.lock()] { (*tick)(); });
  };
  loop->PostAfter(interval, [tick] { (*tick)(); });
  return token;
}

}  // namespace bistro
