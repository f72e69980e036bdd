// The traced replay: the request stream a loopback run sent, replayed
// in-process through the public functions Server::ExecuteQuery and
// Server::ExecuteStatement call, in the same order, one request at a time,
// with a span around each call. The server's own defaults (gate, session
// pool, evaluation options) configure the replay.
//
//   client   EncodeRequest                         server.wire_us
//   server   DecodeFrame + ParseRequest            server.wire_us
//            QueryGate::Acquire                    engine.admit_wait_ms
//   query    SnapshotManager::Current              server.snapshot_build_ms
//            DbSnapshot::Acquire                   server.lease_ms
//            Parser::ParseQuery                    lang.parse_us
//            QuerySession::Run                     engine.run_ms
//            QueryResult::ToString                 engine.render_us
//   write    SnapshotManager::Apply                server.apply_ms
//   server   EncodeResponse                        server.wire_us
//   client   DecodeFrame + ParseResponse           server.wire_us
//
// TextFormat::LoadFromFile gives storage.load_s. A stream that only reads
// leaves the loaded database as it found it, so the archive is loaded once
// and every pass starts a fresh SnapshotManager (fresh session clones and
// query caches) on it; a stream with writes reloads it for every pass.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace perfbench {

struct ReplayRequest {
  bool write = false;
  QueryClass cls = QueryClass::kSpeaksFwd;  // reads only
  std::string text;
};

/// One request's spans, in nanoseconds (0 where the stage did not run).
/// An untraced request times only `total`.
struct RequestSpans {
  bool write = false;
  bool traced = false;
  QueryClass cls = QueryClass::kSpeaksFwd;
  int64_t total = 0, wire = 0, admit = 0, current = 0, lease = 0, parse = 0,
          run = 0, render = 0, apply = 0;
  bool rebuilt = false;  // Current() built a new snapshot
  bool cloned = false;   // Acquire() deserialized a new session clone
  bool cache_hit = false;
  std::string strategy;
  // The evaluation's own counters (QuerySession::last_stats), for reads
  // that were evaluated rather than answered from the query cache.
  size_t rows = 0, join_probes = 0, hash_join_probes = 0, derived_facts = 0,
         constraint_checks = 0;
};

struct ReplayPass {
  double load_s = 0;  // 0 when the pass reused the loaded archive
  double wall_s = 0;  // the replayed stream, load and warm-up excluded
  size_t facts_start = 0, facts_end = 0;
  size_t image_bytes = 0;  // serialized snapshot image of the last build
  std::vector<RequestSpans> spans;  // one per request of the stream
  size_t failed = 0;  // requests without an OK answer
};

class Replayer {
 public:
  explicit Replayer(std::string archive_path) : path_(std::move(archive_path)) {}

  /// Warms the sessions with `warm` reads, then replays `stream`. The
  /// requests whose index has parity `traced_parity` (0 or 1; -1 for none)
  /// are traced; of the others only the total time is taken.
  bool RunPass(const std::vector<ReplayRequest>& warm,
               const std::vector<ReplayRequest>& stream, int traced_parity,
               ReplayPass* out, std::string* error);

 private:
  std::string path_;
  std::unique_ptr<vqldb::VideoDatabase> db_;  // null: load before the pass
  std::vector<vqldb::Rule> rules_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
