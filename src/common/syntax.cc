#include "common/syntax.h"

#include <cctype>
#include <cmath>

namespace bistro::syntax {

Result<Cursor> Cursor::Lex(std::string_view src, std::string_view lang) {
  Cursor c(src, lang);
  size_t pos = 0;
  auto skip = [&](auto accept) {
    while (pos < src.size() && accept(src[pos])) ++pos;
  };
  auto push = [&](TokKind kind, size_t start) {
    c.tokens_.push_back(
        Token{kind, std::string(src.substr(start, pos - start)), start});
  };
  while (pos < src.size()) {
    const char ch = src[pos];
    const size_t start = pos;
    if (std::isspace(static_cast<unsigned char>(ch))) {
      ++pos;
    } else if (ch == '#') {
      skip([](char x) { return x != '\n'; });
    } else if (ch == '"') {
      std::string text;
      for (++pos; pos < src.size() && src[pos] != '"'; ++pos) {
        char x = src[pos];
        if (x == '\n') break;
        if (x == '\\' && pos + 1 < src.size()) {
          x = src[++pos];
          if (x != '"' && x != '\\') {
            return c.ErrAt(pos - 1, StrFormat("bad escape \\%c", x));
          }
        }
        text += x;
      }
      if (pos >= src.size() || src[pos] != '"') {
        return c.ErrAt(start, "unterminated string");
      }
      ++pos;
      c.tokens_.push_back(Token{TokKind::kString, std::move(text), start});
    } else if (IsAlpha(ch) || ch == '_') {
      skip([](char x) { return IsAlnum(x) || x == '_' || x == '.'; });
      push(TokKind::kIdent, start);
    } else if (IsDigit(ch) || ch == '-' || ch == '.') {
      ++pos;
      skip([](char x) { return IsDigit(x) || x == '.'; });
      skip(IsAlpha);  // unit suffix
      push(TokKind::kNumber, start);
    } else if (ch == '{' || ch == '}' || ch == ';' || ch == ',') {
      ++pos;
      push(TokKind::kPunct, start);
    } else {
      return c.ErrAt(start, StrFormat("unexpected character '%c'", ch));
    }
  }
  c.tokens_.push_back(Token{TokKind::kEof, "", src.size()});
  return c;
}

bool Cursor::Take(std::string_view word) {
  const Token& t = Peek();
  if ((t.kind != TokKind::kIdent && t.kind != TokKind::kPunct) ||
      t.text != word) {
    return false;
  }
  ++pos_;
  return true;
}

Status Cursor::Expect(std::string_view word) {
  if (Take(word)) return Status::OK();
  return Err("expected '" + std::string(word) + "'");
}

Result<std::string> Cursor::Ident() {
  if (Peek().kind != TokKind::kIdent) return Err("expected identifier");
  return tokens_[pos_++].text;
}

Result<std::string> Cursor::String() {
  if (Peek().kind != TokKind::kString) return Err("expected quoted string");
  return tokens_[pos_++].text;
}

Result<int64_t> Cursor::Int() {
  std::optional<int64_t> v;
  if (Peek().kind == TokKind::kNumber) v = ParseInt(Peek().text);
  if (!v) return Err("expected integer");
  ++pos_;
  return *v;
}

Result<double> Cursor::Number() {
  std::optional<double> v;
  if (Peek().kind == TokKind::kNumber) v = ParseDouble(Peek().text);
  if (!v || !std::isfinite(*v)) return Err("expected number");
  ++pos_;
  return *v;
}

Result<Duration> Cursor::Dur() {
  std::optional<Duration> v;
  if (Peek().kind == TokKind::kNumber) v = ParseDuration(Peek().text);
  if (!v) return Err("expected duration");
  if (*v < 0) return Err("duration must not be negative");
  ++pos_;
  return *v;
}

Result<std::vector<std::string>> Cursor::IdentList() {
  std::vector<std::string> out;
  do {
    BISTRO_ASSIGN_OR_RETURN(std::string name, Ident());
    out.push_back(std::move(name));
  } while (Take(","));
  return out;
}

Status Cursor::ErrAt(size_t offset, std::string_view msg) const {
  offset = std::min(offset, src_.size());
  size_t begin = offset;
  while (begin > 0 && src_[begin - 1] != '\n') --begin;
  size_t end = offset;
  while (end < src_.size() && src_[end] != '\n') ++end;
  const int line = 1 + static_cast<int>(std::count(
                           src_.begin(), src_.begin() + begin, '\n'));
  std::string caret;
  for (size_t i = begin; i < offset; ++i) caret += src_[i] == '\t' ? '\t' : ' ';
  return Status::InvalidArgument(StrFormat(
      "%s line %d:%zu: %.*s\n  %.*s\n  %s^", lang_.c_str(), line,
      offset - begin + 1, static_cast<int>(msg.size()), msg.data(),
      static_cast<int>(end - begin), src_.data() + begin, caret.c_str()));
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string DurationLiteral(Duration d) {
  static constexpr std::pair<Duration, const char*> kUnits[] = {
      {kDay, "d"}, {kHour, "h"}, {kMinute, "m"}, {kSecond, "s"},
      {kMillisecond, "ms"}};
  for (const auto& [unit, suffix] : kUnits) {
    if (d % unit == 0 && (d != 0 || unit == kSecond)) {
      return std::to_string(d / unit) + suffix;
    }
  }
  return std::to_string(d) + "us";
}

std::string FormatNumber(double v) { return StrFormat("%g", v); }

namespace detail {

std::string IntType(int64_t lo, int64_t hi) {
  if (hi != kNoMax) return StrFormat("int in [%lld, %lld]", (long long)lo,
                                     (long long)hi);
  return StrFormat("int ≥ %lld", (long long)lo);
}

std::string NumberType(double lo, double hi, bool lo_open) {
  if (hi == kInf) return (lo_open ? "number > " : "number ≥ ") + FormatNumber(lo);
  return StrFormat("number in %c%s, %s]", lo_open ? '(' : '[',
                   FormatNumber(lo).c_str(), FormatNumber(hi).c_str());
}

}  // namespace detail

}  // namespace bistro::syntax
