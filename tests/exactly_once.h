// Exactly-once audits shared by the crash suites (chaos, partition,
// federation). Each check states one half of the Bistro guarantee —
// every file reaches every subscriber exactly once — and every failure
// message names the seed, so a red CI leg can be replayed.

#ifndef BISTRO_TESTS_EXACTLY_ONCE_H_
#define BISTRO_TESTS_EXACTLY_ONCE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/server.h"
#include "net/transport.h"
#include "vfs/filesystem.h"

namespace bistro {

/// One deposited file: the feed it classifies into and its bytes.
struct ExpectedFile {
  std::string feed;
  std::string content;
};
/// Every file a run deposited, by name.
using ExpectedFiles = std::map<std::string, ExpectedFile>;

/// Sinks: every expected file of `feeds` landed byte-exact at
/// `<root>/<feed>/<name>` on `fs`, and `sink` counted exactly that many
/// files — none lost, none landed twice. `who` names the sink.
void ExpectSinkExactlyOnce(FileSystem* fs, const FileSinkEndpoint& sink,
                           const std::string& root,
                           const std::set<std::string>& feeds,
                           const ExpectedFiles& expected,
                           const std::string& who, int seed);

/// Drained: the recomputed delivery queue of each of `subscribers` is
/// empty, and `server` dead-lettered nothing.
void ExpectDrained(BistroServer* server,
                   const std::vector<std::string>& subscribers, int seed);

/// Receipt DB: reopens the receipt database at `db_dir` cold (its server
/// must be gone). Every arrival's name is unique and expected, its staged
/// bytes are intact, and `ArrivalCount` equals the names seen. Returns
/// the names seen; which expected files this database must hold is the
/// caller's check.
std::set<std::string> AuditReceiptDb(FileSystem* fs, const std::string& db_dir,
                                     const ExpectedFiles& expected, int seed,
                                     int shards = 1);

}  // namespace bistro

#endif  // BISTRO_TESTS_EXACTLY_ONCE_H_
