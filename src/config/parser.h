#ifndef BISTRO_CONFIG_PARSER_H_
#define BISTRO_CONFIG_PARSER_H_

#include <string_view>
#include <vector>

#include "common/syntax.h"
#include "config/spec.h"

namespace bistro {

/// Parses the Bistro configuration language (paper §3.1): a sequence of
/// `keyword [NAME] { key value; ... }` blocks.
///
///   feed NAME { pattern "..."; ... }      group NAME { feed ...; group ...; }
///   subscriber NAME { feeds A, B; ... }   group NAME { feeds ...; members ...; }
///   plan SELECTOR { ... }  peer NAME { ... }  relay NAME { ... }
///   delivery { }  ingest { }  analyzer { }  receipts { }  classifier { }
///   server { }
///
/// Each block's keys, their value syntax and bounds are declared once, in
/// the key tables of parser.cc; ConfigSchema() exposes them and
/// docs/OPERATIONS.md documents each. Tuning blocks are overlays: unset
/// keys keep the engine's compiled-in defaults. A `group` holding feeds
/// prefixes their names ("SNMP.CPU"); one holding `feeds`/`members` is a
/// subscriber group. Feed patterns compile during parsing, so errors show
/// at load time, with the line, column and a caret under the bad token.
Result<ServerConfig> ParseConfig(std::string_view text);

/// Serializes a config back to the configuration language (round-trips
/// through ParseConfig). Feeds are written flat, with dotted names; unset
/// keys are omitted. Useful for emitting analyzer-suggested configs.
std::string FormatConfig(const ServerConfig& config);

/// Every top-level block of the language and its keys, in format order.
std::vector<syntax::BlockDoc> ConfigSchema();

}  // namespace bistro

#endif  // BISTRO_CONFIG_PARSER_H_
