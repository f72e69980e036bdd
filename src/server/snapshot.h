// Snapshot-isolated read sessions for the service layer.
//
// The server owns one authoritative ("live") VideoDatabase that all writes
// mutate, and every read request runs against an immutable *snapshot* of it
// keyed on (VideoDatabase::epoch(), rules epoch). A snapshot is only a name
// for one generation: Current() records the generation and costs nothing
// in |db|. Its reader sessions are built on demand, each a private
// VideoDatabase::Clone() of the live database taken under the writer lock
// while that generation is still live, plus its own QuerySession. So
//
//   * writers never block readers for long: a commit only advances the
//     epoch; in-flight readers keep their shared_ptr<DbSnapshot> and finish
//     on the copy they started on,
//   * readers never block writers for long: a read touches only its copy;
//     the live database is read only for the length of one copy, which
//     shares the writer lock with other copies,
//   * readers never see a torn state: a copy is taken under the writer
//     lock, and the session pool hands a copy to one request at a time.
//
// A snapshot that a later write has superseded builds no new sessions (the
// generation it names is gone from the live database); it still hands out
// the sessions it has. SnapshotManager::AcquireSession() then retries on the
// current snapshot. The one O(|db|) cost left is the copy per pooled
// session and write epoch.
//
// Concurrency: SnapshotManager is fully thread-safe. Apply() serializes
// writers; Current() and Acquire() are called from any worker thread, and
// Current() never waits behind a copy. Sessions are leased (RAII
// SessionLease) from a per-snapshot pool bounded by `sessions_per_snapshot`
// — size it >= the admission gate's slot count and a lease is always
// available without waiting; when undersized, Acquire blocks briefly until
// a lease returns. Snapshots and leases may outlive their manager: they
// keep their sessions, and build no new ones.

#ifndef VQLDB_SERVER_SNAPSHOT_H_
#define VQLDB_SERVER_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/model/database.h"

namespace vqldb {
namespace server {

class DbSnapshot;
/// The live database and its writer lock, shared by a manager and every
/// snapshot it built (defined in snapshot.cc).
struct LiveDatabase;

/// An exclusive lease on one snapshot session. Keeps the snapshot alive;
/// returning (destroying) the lease hands the session to the next reader.
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&& other) noexcept { *this = std::move(other); }
  SessionLease& operator=(SessionLease&& other) noexcept;
  ~SessionLease();

  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  bool valid() const { return session_ != nullptr; }
  QuerySession* session() { return session_; }
  VideoDatabase* db() { return db_; }
  /// The generation this session is pinned to.
  uint64_t db_epoch() const;
  uint64_t rules_epoch() const;

 private:
  friend class DbSnapshot;
  SessionLease(std::shared_ptr<DbSnapshot> snapshot, size_t slot,
               QuerySession* session, VideoDatabase* db)
      : snapshot_(std::move(snapshot)), slot_(slot), session_(session), db_(db) {}

  std::shared_ptr<DbSnapshot> snapshot_;
  size_t slot_ = 0;
  QuerySession* session_ = nullptr;
  VideoDatabase* db_ = nullptr;
};

/// One immutable generation of the database: a bounded pool of (copy,
/// session) slots, each copied from the live database on demand.
class DbSnapshot : public std::enable_shared_from_this<DbSnapshot> {
 public:
  DbSnapshot(std::shared_ptr<LiveDatabase> live, uint64_t db_epoch,
             uint64_t rules_epoch,
             std::shared_ptr<const std::vector<Rule>> rules,
             EvalOptions options, size_t max_sessions);

  uint64_t db_epoch() const { return db_epoch_; }
  uint64_t rules_epoch() const { return rules_epoch_; }

  /// The BinaryFormat image of this generation (the bytes a .vqdb file
  /// holds), encoded on each call: a diagnostic, never on the read path.
  /// Encoded from the live database while this generation is live, else
  /// from an idle session's copy; empty when neither is at hand.
  std::string bytes();

  /// Leases a session: an idle one if the pool has one, else a new copy of
  /// the live database if this generation is still live and the pool has
  /// headroom, else waits for a returned lease. Unavailable when a later
  /// write has superseded this snapshot and it has no idle session: the
  /// caller retries on SnapshotManager::Current().
  Result<SessionLease> Acquire();

  /// Sessions materialized so far (tests).
  size_t sessions_built() const;

 private:
  friend class SessionLease;
  friend class SnapshotManager;
  struct Slot {
    std::unique_ptr<VideoDatabase> db;
    std::unique_ptr<QuerySession> session;
  };

  /// A new slot copied from the live database; null when the live database
  /// has moved past this generation (or its manager is gone).
  Result<std::unique_ptr<Slot>> BuildSlot();
  /// Called by the manager when it builds a newer snapshot: wakes readers
  /// waiting on a full pool so they move to the new one.
  void MarkSuperseded();
  void ReturnSlot(size_t slot);

  const std::shared_ptr<LiveDatabase> live_;
  const uint64_t db_epoch_;
  const uint64_t rules_epoch_;
  const std::shared_ptr<const std::vector<Rule>> rules_;
  const EvalOptions options_;
  const size_t max_sessions_;

  mutable std::mutex mu_;
  std::condition_variable free_cv_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
  std::vector<size_t> free_;                  // free slot indexes
  size_t building_ = 0;     // copies under construction (capacity reserved)
  bool superseded_ = false;  // no new slots: the generation is gone
};

/// The writer side plus the snapshot cache. Owns neither the database nor
/// the journal mirroring — the server composes those.
class SnapshotManager {
 public:
  /// `db` must outlive the manager, and after construction change only
  /// through Apply(). `options` seeds every snapshot session (strategy,
  /// threads, ...); per-request deadline/cancel are layered on by the
  /// caller on the leased session.
  SnapshotManager(VideoDatabase* db, EvalOptions options,
                  size_t sessions_per_snapshot);
  /// Detaches the live database: snapshots and leases still held keep
  /// their sessions but build no new ones.
  ~SnapshotManager();

  /// Applies one or more statements (declarations, facts, rules) to the
  /// live database. Serialized internally; queries are rejected. On OK the
  /// next Current() observes the new generation.
  Status Apply(std::string_view statement_text);

  /// The current snapshot; a new one if the live database or the rule set
  /// advanced since the last. Copies nothing, and never waits behind a
  /// session's copy. In-flight readers on older snapshots are unaffected.
  Result<std::shared_ptr<DbSnapshot>> Current();

  /// Current() + Acquire(), retried while a write supersedes the snapshot
  /// between the two.
  Result<SessionLease> AcquireSession();

  /// The live database's epoch as of the last Apply() (or construction).
  uint64_t live_epoch() const;
  uint64_t rules_epoch() const;
  /// Snapshot builds so far (tests; also exported as a server metric).
  uint64_t snapshots_built() const;

  /// The live-session rules (for persisting / diagnostics).
  std::vector<Rule> rules() const;

 private:
  const EvalOptions options_;
  const size_t sessions_per_snapshot_;
  const std::shared_ptr<LiveDatabase> live_;
  QuerySession write_session_;  // used under the live database's lock

  // The snapshot cache and the generation it is keyed on, as the last
  // Apply() published it. Never held across a copy.
  mutable std::mutex mu_;
  uint64_t live_epoch_;
  uint64_t rules_epoch_ = 0;
  std::shared_ptr<const std::vector<Rule>> rules_;
  std::shared_ptr<DbSnapshot> current_;
  uint64_t built_ = 0;
};

}  // namespace server
}  // namespace vqldb

#endif  // VQLDB_SERVER_SNAPSHOT_H_
