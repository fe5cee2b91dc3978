#ifndef BISTRO_COMMON_SYNTAX_H_
#define BISTRO_COMMON_SYNTAX_H_

// The block-and-key language shared by the server configuration and fault
// plans: one lexer, one token cursor whose errors point at the offending
// column, and a table-driven block parser/formatter.
//
// Each block declares its keys once, as a table of Key<S> entries bound to
// members of the block's struct. ParseBody and FormatBody read the table;
// so do the documentation checks and the generated round-trip tests, via
// the KeyDoc half of each entry (name and value syntax).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"

namespace bistro::syntax {

// ------------------------------------------------------------------ Tokens

enum class TokKind { kIdent, kString, kNumber, kPunct, kEof };

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;   // unescaped contents for strings
  size_t offset = 0;  // of the token's first byte in the source
};

/// A lexed source and a read position over its tokens.
///
/// Identifiers are [A-Za-z_][A-Za-z0-9_.]*; strings are double-quoted with
/// \" and \\ escapes; numbers start with a digit, '-' or '.' and may carry
/// a unit suffix ("250ms"); punctuation is { } ; ,; '#' comments run to
/// end of line. Every error names the language, the line and column, and
/// quotes the source line with a caret under the offending token:
///
///   config line 3:3: unknown key 'bogus' in feed F
///     bogus 7;
///     ^
class Cursor {
 public:
  /// Lexes `src`, which must outlive the cursor. `lang` prefixes errors.
  static Result<Cursor> Lex(std::string_view src, std::string_view lang);

  const Token& Peek(size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }
  /// Consumes the next token if it is the identifier or punctuation `word`.
  bool Take(std::string_view word);
  Status Expect(std::string_view word);

  Result<std::string> Ident();
  Result<std::string> String();
  Result<int64_t> Int();
  Result<double> Number();
  /// A duration literal; a negative one is an error.
  Result<Duration> Dur();
  /// One or more comma-separated identifiers.
  Result<std::vector<std::string>> IdentList();

  /// An InvalidArgument error at the next token, or at source `offset`.
  Status Err(std::string_view msg) const { return ErrAt(Peek().offset, msg); }
  Status ErrAt(size_t offset, std::string_view msg) const;

 private:
  Cursor(std::string_view src, std::string_view lang)
      : src_(src), lang_(lang) {}

  std::string_view src_;
  std::string lang_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Literal forms the lexer reads back: a quoted, escaped string, a
/// single-unit duration ("90s", not FormatDuration's "1m30s") and a number.
std::string Quote(std::string_view s);
std::string DurationLiteral(Duration d);
std::string FormatNumber(double v);

// -------------------------------------------------------------- Key tables

/// The documented half of a key: what the operator reference states about it.
struct KeyDoc {
  std::string name;
  /// Value syntax, e.g. "int ≥ 1", "duration > 0", "on / off". The
  /// operator reference's type column must say exactly this.
  std::string type;
  /// Parsing fails when a required key does not appear in the block.
  bool required = false;
  /// Another spelling of the key named here; parsed, never formatted.
  std::string alias_of;
  /// Keys of a nested `name { ... }` block (which takes no ';').
  std::vector<KeyDoc> fields;
  bool block = false;
};

/// A block's documented shape: `keyword [NAME] { keys }`.
struct BlockDoc {
  std::string keyword;
  bool named = false;
  std::vector<KeyDoc> keys;
};

/// Statements a key contributes to a formatted block, without indent or ';'.
using Statements = std::vector<std::string>;

template <class S>
struct Key : KeyDoc {
  /// Reads the value(s) after the key name into the block struct.
  std::function<Status(Cursor&, S&)> parse;
  /// Appends `name value` statements; none when the member is unset.
  std::function<void(const S&, Statements*)> format;

  Key Required() && {
    required = true;
    return std::move(*this);
  }
};

template <class S>
std::vector<KeyDoc> Docs(const std::vector<Key<S>>& keys) {
  return std::vector<KeyDoc>(keys.begin(), keys.end());
}

/// Parses `{ (key value ;)* }` into `s`. `label` ("feed F") names the block
/// in errors. Later repeats of a key overwrite earlier ones unless the
/// key's parse appends (lists do).
template <class S>
Status ParseBody(Cursor& in, const std::vector<Key<S>>& keys, S* s,
                 const std::string& label) {
  const size_t open = in.Peek().offset;
  BISTRO_RETURN_IF_ERROR(in.Expect("{"));
  auto find = [&keys](std::string_view name) -> const Key<S>* {
    for (const Key<S>& k : keys) {
      if (k.name == name) return &k;
    }
    return nullptr;
  };
  std::vector<bool> seen(keys.size());
  while (!in.Take("}")) {
    if (in.AtEof()) return in.Err("unterminated " + label);
    const size_t at = in.Peek().offset;
    BISTRO_ASSIGN_OR_RETURN(std::string name, in.Ident());
    const Key<S>* key = find(name);
    if (key == nullptr) {
      return in.ErrAt(at, "unknown key '" + name + "' in " + label);
    }
    if (!key->alias_of.empty()) key = find(key->alias_of);
    seen[key - keys.data()] = true;
    BISTRO_RETURN_IF_ERROR(key->parse(in, *s));
    if (!key->block) BISTRO_RETURN_IF_ERROR(in.Expect(";"));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].required && !seen[i]) {
      return in.ErrAt(open, label + " has no " + keys[i].name);
    }
  }
  return Status::OK();
}

/// Formats `s` as a `{ ... }` body (two-space indent, no trailing newline).
template <class S>
std::string FormatBody(const std::vector<Key<S>>& keys, const S& s) {
  Statements statements;
  for (const Key<S>& k : keys) {
    if (k.format) k.format(s, &statements);
  }
  std::string out = "{\n";
  for (const std::string& st : statements) {
    out += "  ";
    for (char c : st) {
      out += c;
      if (c == '\n') out += "  ";
    }
    out += st.back() == '}' ? "\n" : ";\n";
  }
  return out + "}";
}

// ------------------------------------------------------- Key constructors

namespace detail {

template <class T>
struct Base {
  using type = T;
};
template <class T>
struct Base<std::optional<T>> {
  using type = T;
};

template <class T>
const T& Get(const T& v) {
  return v;
}
template <class T>
const T& Get(const std::optional<T>& v) {
  return *v;
}

template <class S>
const S& Blank() {
  static const S blank{};
  return blank;
}

std::string IntType(int64_t lo, int64_t hi);
std::string NumberType(double lo, double hi, bool lo_open);

}  // namespace detail

constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A key written `name <literal>;` bound to member `m` (plain or
/// std::optional). `read` parses and validates the literal; `write` renders
/// it. A member equal to a default-constructed S's is unset: not formatted.
template <class S, class M, class Read, class Write>
Key<S> Field(std::string name, M S::*m, std::string type, Read read,
             Write write) {
  Key<S> k;
  k.name = name;
  k.type = std::move(type);
  k.parse = [m, read](Cursor& in, S& s) -> Status {
    BISTRO_ASSIGN_OR_RETURN(auto v, read(in));
    s.*m = static_cast<typename detail::Base<M>::type>(v);
    return Status::OK();
  };
  k.format = [m, name, write](const S& s, Statements* out) {
    if (s.*m == detail::Blank<S>().*m) return;
    out->push_back(name + " " + write(detail::Get(s.*m)));
  };
  return k;
}

/// A key whose literal `read` must also satisfy `ok`; otherwise the error
/// says the value must be `type`.
template <class S, class M, class V, class Ok, class Write>
Key<S> Ranged(std::string name, M S::*m, std::string type,
              Result<V> (Cursor::*read)(), Ok ok, Write write) {
  return Field(
      name, m, type,
      [name, type, read, ok](Cursor& in) -> Result<V> {
        const size_t at = in.Peek().offset;
        BISTRO_ASSIGN_OR_RETURN(V v, (in.*read)());
        if (!ok(v)) return in.ErrAt(at, name + " must be " + type);
        return v;
      },
      write);
}

/// An integer in [lo, hi] (hi also capped by the member's type).
template <class S, class M>
Key<S> Int(std::string name, M S::*m, int64_t lo, int64_t hi = kNoMax) {
  using V = typename detail::Base<M>::type;
  const int64_t cap = static_cast<int64_t>(
      std::min<uint64_t>(hi, std::numeric_limits<V>::max()));
  return Ranged(
      name, m, detail::IntType(lo, hi), &Cursor::Int, [lo, cap](int64_t v) { return v >= lo && v <= cap; },
      [](V v) { return std::to_string(v); });
}

/// A number in [lo, hi], or (lo, hi] when `lo_open`.
template <class S, class M>
Key<S> Num(std::string name, M S::*m, double lo, double hi = kInf,
           bool lo_open = false) {
  return Ranged(
      name, m, detail::NumberType(lo, hi, lo_open), &Cursor::Number,
      [=](double v) { return (lo_open ? v > lo : v >= lo) && v <= hi; },
      FormatNumber);
}

/// A duration (never negative), or one > 0 when `positive`.
template <class S, class M>
Key<S> Dur(std::string name, M S::*m, bool positive = false) {
  return Ranged(
      name, m, positive ? "duration > 0" : "duration ≥ 0", &Cursor::Dur,
      [positive](Duration v) { return !positive || v > 0; }, DurationLiteral);
}

template <class S, class M>
Key<S> OnOff(std::string name, M S::*m) {
  return Field(
      name, m, "on / off",
      [](Cursor& in) -> Result<bool> {
        if (in.Take("on")) return true;
        if (in.Take("off")) return false;
        return in.Err("expected 'on' or 'off'");
      },
      [](bool v) { return std::string(v ? "on" : "off"); });
}

template <class S, class M>
Key<S> Str(std::string name, M S::*m) {
  return Field(
      name, m, "quoted string", [](Cursor& in) { return in.String(); },
      Quote);
}

/// One identifier out of `names`, stored as the matching entry of
/// `values` (or as the name itself for string members).
template <class S, class M>
Key<S> Choice(std::string name, M S::*m, std::vector<std::string> names,
              std::vector<typename detail::Base<M>::type> values = {}) {
  using V = typename detail::Base<M>::type;
  if constexpr (std::is_same_v<V, std::string>) {
    if (values.empty()) values = names;
  }
  return Field(
      name, m, Join(names, " / "),
      [name, names, values](Cursor& in) -> Result<V> {
        for (size_t i = 0; i < names.size(); ++i) {
          if (in.Take(names[i])) return values[i];
        }
        return in.Err(name + " must be " + Join(names, ", "));
      },
      [names, values](const V& v) {
        for (size_t i = 0; i < values.size(); ++i) {
          if (values[i] == v) return names[i];
        }
        return std::string("?");
      });
}

/// A key with hand-written value syntax.
template <class S>
Key<S> Custom(std::string name, std::string type,
              std::function<Status(Cursor&, S&)> parse,
              std::function<void(const S&, Statements*)> format) {
  Key<S> k;
  k.name = std::move(name);
  k.type = std::move(type);
  k.parse = std::move(parse);
  k.format = std::move(format);
  return k;
}

/// `name a, b, c;` appended to a vector of identifiers, so repeated lines
/// add up. With `words`, every identifier must be one of them.
template <class S>
Key<S> List(std::string name, std::vector<std::string> S::*m,
            std::vector<std::string> words = {}) {
  return Custom<S>(
      name, words.empty() ? "ident list" : "list of " + Join(words, " / "),
      [name, m, words](Cursor& in, S& s) -> Status {
        const size_t at = in.Peek().offset;
        BISTRO_ASSIGN_OR_RETURN(std::vector<std::string> v, in.IdentList());
        for (const std::string& w : v) {
          if (!words.empty() &&
              std::find(words.begin(), words.end(), w) == words.end()) {
            return in.ErrAt(at, name + " must list " + Join(words, " or "));
          }
        }
        (s.*m).insert((s.*m).end(), v.begin(), v.end());
        return Status::OK();
      },
      [name, m](const S& s, Statements* out) {
        if (!(s.*m).empty()) out->push_back(name + " " + Join(s.*m, ", "));
      });
}

/// Another spelling of `target`, accepted on input and never written.
template <class S>
Key<S> Alias(std::string name, std::string target) {
  Key<S> k;
  k.name = std::move(name);
  k.alias_of = std::move(target);
  return k;
}

/// A nested `name { ... }` block bound to member `m`.
template <class S, class T>
Key<S> Nested(std::string name, T S::*m, const std::vector<Key<T>>* keys) {
  Key<S> k;
  k.name = name;
  k.type = "block";
  k.block = true;
  k.fields = Docs(*keys);
  k.parse = [m, keys, name](Cursor& in, S& s) {
    return ParseBody(in, *keys, &(s.*m), name);
  };
  k.format = [m, keys, name](const S& s, Statements* out) {
    if (s.*m == T{}) return;
    out->push_back(name + " " + FormatBody(*keys, s.*m));
  };
  return k;
}

}  // namespace bistro::syntax

#endif  // BISTRO_COMMON_SYNTAX_H_
