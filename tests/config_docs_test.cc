// Keeps the operator documentation honest: every ```bistro fenced snippet
// in docs/ must parse with the real config parser, every ```bistro-fault
// snippet with the real fault-plan parser, every configs/*.conf must load
// and round-trip, and the key tables of OPERATIONS.md and PLANS.md must
// list exactly the keys the parsers declare, with the declared value
// syntax and every alias, while OPERATIONS.md shows every block in a
// snippet — so neither the docs nor the shipped configs can silently rot.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "config/parser.h"
#include "fault/plan.h"

namespace bistro {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string DocPath(const std::string& rel) {
  return std::string(BISTRO_REPO_ROOT) + "/" + rel;
}

struct Snippet {
  int line = 0;  // line of the opening fence, for failure messages
  std::string text;
};

// Extracts fenced code blocks whose info string is exactly `tag`.
std::vector<Snippet> ExtractFenced(const std::string& markdown,
                                   const std::string& tag) {
  std::vector<Snippet> out;
  std::istringstream in(markdown);
  std::string line;
  int lineno = 0;
  const std::string open = "```" + tag;
  bool in_block = false;
  Snippet current;
  while (std::getline(in, line)) {
    ++lineno;
    if (!in_block) {
      if (line == open) {
        in_block = true;
        current = Snippet{lineno, ""};
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
      out.push_back(std::move(current));
    } else {
      current.text += line;
      current.text += '\n';
    }
  }
  EXPECT_FALSE(in_block) << "unterminated ```" << tag << " fence";
  return out;
}

void ExpectDocConfigsParse(const char* rel, size_t min_blocks) {
  const std::string doc = ReadFileOrDie(DocPath(rel));
  const std::vector<Snippet> snippets = ExtractFenced(doc, "bistro");
  EXPECT_GE(snippets.size(), min_blocks)
      << rel << ": fence extraction found fewer ```bistro blocks than "
      << "expected — did the tag convention change?";
  for (const Snippet& s : snippets) {
    auto config = ParseConfig(s.text);
    EXPECT_TRUE(config.ok()) << rel << " snippet at line " << s.line
                             << " does not parse: "
                             << config.status().message() << "\n"
                             << s.text;
  }
}

// A markdown key table: consecutive rows that open with a backticked key,
// kept as (key, type column) pairs with backticks stripped, plus each
// row's raw text.
struct KeyTable {
  int line = 0;
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::string> text;
};

std::string CellText(const std::string& cell) {
  std::string out;
  for (char c : cell) {
    if (c == '`') continue;
    if (c == ' ' && (out.empty() || out.back() == ' ')) continue;
    out += c;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::vector<KeyTable> KeyTables(const std::string& markdown) {
  std::vector<KeyTable> out;
  std::istringstream in(markdown);
  std::string line;
  int lineno = 0;
  bool in_table = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.rfind("| ", 0) != 0) {
      in_table = false;
      continue;
    }
    std::vector<std::string> cells;
    std::string cell;
    for (size_t i = 1; i < line.size(); ++i) {
      if (line[i] == '|' && line[i - 1] != '\\') {
        cells.push_back(CellText(cell));
        cell.clear();
      } else {
        cell += line[i];
      }
    }
    if (cells.size() < 2 || line.find("| `") != 0) continue;
    if (!in_table) out.push_back(KeyTable{lineno, {}, {}});
    in_table = true;
    out.back().rows.emplace_back(cells[0], cells[1]);
    out.back().text.push_back(line);
  }
  return out;
}

// The documented keys of a block: aliases are not listed, nested blocks
// list their keys as "block.key".
std::vector<std::pair<std::string, std::string>> Flatten(
    const std::vector<syntax::KeyDoc>& keys, const std::string& prefix = "") {
  std::vector<std::pair<std::string, std::string>> out;
  for (const syntax::KeyDoc& key : keys) {
    if (!key.alias_of.empty()) continue;
    if (key.block) {
      for (auto& row : Flatten(key.fields, prefix + key.name + ".")) {
        out.push_back(std::move(row));
      }
    } else {
      out.emplace_back(prefix + key.name, key.type);
    }
  }
  return out;
}

std::set<std::string> Names(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::set<std::string> out;
  for (const auto& row : rows) out.insert(row.first);
  return out;
}

// (alias, key it spells) pairs, named like Flatten's rows.
std::vector<std::pair<std::string, std::string>> Aliases(
    const std::vector<syntax::KeyDoc>& keys, const std::string& prefix = "") {
  std::vector<std::pair<std::string, std::string>> out;
  for (const syntax::KeyDoc& key : keys) {
    if (!key.alias_of.empty()) {
      out.emplace_back(prefix + key.name, prefix + key.alias_of);
    }
    for (auto& pair : Aliases(key.fields, prefix + key.name + ".")) {
      out.push_back(std::move(pair));
    }
  }
  return out;
}

// `rel` has one key table listing exactly the block's keys, each with the
// value syntax the parser declares; an alias is named in its key's row.
void ExpectKeyTable(const char* rel, const syntax::BlockDoc& block) {
  const auto keys = Flatten(block.keys);
  const std::string doc = ReadFileOrDie(DocPath(rel));
  for (const KeyTable& table : KeyTables(doc)) {
    if (Names(table.rows) != Names(keys)) continue;
    for (const auto& [name, type] : keys) {
      for (const auto& row : table.rows) {
        if (row.first != name) continue;
        EXPECT_EQ(row.second, type)
            << rel << " line " << table.line << ": type of " << block.keyword
            << " key '" << name << "'";
      }
    }
    for (const auto& [alias, target] : Aliases(block.keys)) {
      for (size_t i = 0; i < table.rows.size(); ++i) {
        if (table.rows[i].first != target) continue;
        EXPECT_NE(table.text[i].find("`" + alias + "`"), std::string::npos)
            << rel << " line " << table.line << ": the row of " << block.keyword
            << " key '" << target << "' does not name its alias '" << alias
            << "'";
      }
    }
    return;
  }
  std::string listed;
  for (const auto& [name, type] : keys) listed += "\n  | `" + name + "` | " + type + " |";
  ADD_FAILURE() << rel << " has no key table for the " << block.keyword
                << " block; expected rows:" << listed;
}

// Every shipped config (the example and the federation upstream, relay
// and downstream that CI runs as separate processes) loads and
// round-trips through the formatter.
TEST(ConfigDocsTest, ShippedConfigsParseAndRoundTrip) {
  std::set<std::string> shipped;
  for (const auto& entry :
       std::filesystem::directory_iterator(DocPath("configs"))) {
    if (entry.path().extension() == ".conf") {
      shipped.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(shipped, (std::set<std::string>{
                         "example.conf", "federation-downstream.conf",
                         "federation-relay.conf", "federation-upstream.conf"}));
  for (const std::string& name : shipped) {
    SCOPED_TRACE(name);
    auto config = ParseConfig(ReadFileOrDie(DocPath("configs/") + name));
    ASSERT_TRUE(config.ok()) << config.status().message();
    EXPECT_FALSE(config->feeds.empty());
    EXPECT_FALSE(config->subscribers.empty() && config->peers.empty());

    auto reparsed = ParseConfig(FormatConfig(*config));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    EXPECT_EQ(FormatConfig(*config), FormatConfig(*reparsed));
  }
}

TEST(ConfigDocsTest, OperationsSnippetsParse) {
  ExpectDocConfigsParse("docs/OPERATIONS.md", 4);
}

TEST(ConfigDocsTest, PatternsSnippetsParse) {
  ExpectDocConfigsParse("docs/PATTERNS.md", 3);
}

// The ingestion-plan operator guide: the opening grammar block plus the
// four worked recipes (multi-tenant quota, A/B split, archival vs
// real-time, sampled feed) must all go through the real parser.
TEST(ConfigDocsTest, PlansSnippetsParse) {
  ExpectDocConfigsParse("docs/PLANS.md", 5);
}

TEST(ConfigDocsTest, PlansGuideCoversEveryPlanKey) {
  for (const syntax::BlockDoc& block : ConfigSchema()) {
    if (block.keyword == "plan") ExpectKeyTable("docs/PLANS.md", block);
  }
}

TEST(ConfigDocsTest, OperationsFaultSnippetsParse) {
  const std::string doc = ReadFileOrDie(DocPath("docs/OPERATIONS.md"));
  const std::vector<Snippet> snippets = ExtractFenced(doc, "bistro-fault");
  EXPECT_GE(snippets.size(), 1u);
  for (const Snippet& s : snippets) {
    auto plan = ParseFaultPlan(s.text);
    EXPECT_TRUE(plan.ok()) << "OPERATIONS.md fault snippet at line " << s.line
                           << " does not parse: " << plan.status().message()
                           << "\n"
                           << s.text;
  }
}

// Every block the parsers declare is used by an OPERATIONS.md snippet
// and has a key table there whose keys and types match the declaration,
// and every key table there documents a declared block, so a block or key
// cannot be added, renamed or re-bounded without its documentation
// following.
TEST(ConfigDocsTest, OperationsCoversEveryParserKey) {
  std::vector<syntax::BlockDoc> blocks = ConfigSchema();
  blocks.push_back(FaultPlanSchema());
  const std::string doc = ReadFileOrDie(DocPath("docs/OPERATIONS.md"));
  std::vector<Snippet> snippets = ExtractFenced(doc, "bistro");
  for (Snippet& s : ExtractFenced(doc, "bistro-fault")) {
    snippets.push_back(std::move(s));
  }
  for (const syntax::BlockDoc& block : blocks) {
    ExpectKeyTable("docs/OPERATIONS.md", block);
    bool used = false;
    for (const Snippet& s : snippets) {
      std::istringstream lines(s.text);
      std::string line;
      while (!used && std::getline(lines, line)) {
        used = StartsWith(Trim(line), block.keyword + " ");
      }
    }
    EXPECT_TRUE(used) << "no docs/OPERATIONS.md snippet uses a "
                      << block.keyword << " block";
  }
  for (const KeyTable& table : KeyTables(doc)) {
    bool declared = false;
    for (const syntax::BlockDoc& block : blocks) {
      declared = declared || Names(table.rows) == Names(Flatten(block.keys));
    }
    EXPECT_TRUE(declared) << "docs/OPERATIONS.md key table at line "
                          << table.line << " matches no parser block";
  }
}

}  // namespace
}  // namespace bistro
