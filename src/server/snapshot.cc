#include "src/server/snapshot.h"

#include <shared_mutex>
#include <utility>

#include "src/common/string_util.h"
#include "src/storage/binary_format.h"

namespace vqldb {
namespace server {

struct LiveDatabase {
  // Exclusive for Apply(), shared for a session's copy.
  std::shared_mutex mu;
  VideoDatabase* db = nullptr;  // guarded by mu; null once the manager is gone
  uint64_t rules_epoch = 0;     // guarded by mu
};

// ---------------------------------------------------------------- the lease

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    if (snapshot_ != nullptr) snapshot_->ReturnSlot(slot_);
    snapshot_ = std::move(other.snapshot_);
    slot_ = other.slot_;
    session_ = other.session_;
    db_ = other.db_;
    other.snapshot_ = nullptr;
    other.session_ = nullptr;
    other.db_ = nullptr;
  }
  return *this;
}

SessionLease::~SessionLease() {
  if (snapshot_ != nullptr) snapshot_->ReturnSlot(slot_);
}

uint64_t SessionLease::db_epoch() const {
  return snapshot_ == nullptr ? 0 : snapshot_->db_epoch();
}

uint64_t SessionLease::rules_epoch() const {
  return snapshot_ == nullptr ? 0 : snapshot_->rules_epoch();
}

// ------------------------------------------------------------- the snapshot

DbSnapshot::DbSnapshot(std::shared_ptr<LiveDatabase> live, uint64_t db_epoch,
                       uint64_t rules_epoch,
                       std::shared_ptr<const std::vector<Rule>> rules,
                       EvalOptions options, size_t max_sessions)
    : live_(std::move(live)),
      db_epoch_(db_epoch),
      rules_epoch_(rules_epoch),
      rules_(std::move(rules)),
      options_(std::move(options)),
      max_sessions_(max_sessions == 0 ? 1 : max_sessions) {}

std::string DbSnapshot::bytes() {
  auto encode = [](const VideoDatabase& db) {
    auto image = BinaryFormat::Serialize(db);
    return image.ok() ? std::move(*image) : std::string();
  };
  {
    std::shared_lock<std::shared_mutex> live(live_->mu);
    if (live_->db != nullptr && live_->db->epoch() == db_epoch_) {
      return encode(*live_->db);
    }
  }
  // Derived intervals a session materialized are not in the image, so an
  // idle copy encodes to the same bytes as its generation.
  std::lock_guard<std::mutex> lock(mu_);
  return free_.empty() ? std::string() : encode(*slots_[free_.back()]->db);
}

Result<std::unique_ptr<DbSnapshot::Slot>> DbSnapshot::BuildSlot() {
  auto slot = std::make_unique<Slot>();
  {
    std::shared_lock<std::shared_mutex> live(live_->mu);
    if (live_->db == nullptr || live_->db->epoch() != db_epoch_ ||
        live_->rules_epoch != rules_epoch_) {
      return std::unique_ptr<Slot>();
    }
    slot->db = std::make_unique<VideoDatabase>(live_->db->Clone());
  }
  slot->session = std::make_unique<QuerySession>(slot->db.get(), options_);
  for (const Rule& rule : *rules_) {
    VQLDB_RETURN_NOT_OK(
        slot->session->AddRule(rule).WithContext("snapshot rules"));
  }
  return slot;
}

Result<SessionLease> DbSnapshot::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!free_.empty()) {
      size_t slot = free_.back();
      free_.pop_back();
      Slot* s = slots_[slot].get();
      return SessionLease(shared_from_this(), slot, s->session.get(),
                          s->db.get());
    }
    if (superseded_) {
      return Status::Unavailable("snapshot at epoch " +
                                 std::to_string(db_epoch_) +
                                 " was superseded by a later write");
    }
    if (slots_.size() + building_ < max_sessions_) {
      // Build outside the pool lock: the copy is the expensive part and
      // other leases must keep flowing meanwhile.
      ++building_;
      lock.unlock();
      auto built = BuildSlot();
      lock.lock();
      --building_;
      if (!built.ok()) {
        free_cv_.notify_one();  // the capacity this build held is free again
        return built.status();
      }
      if (*built == nullptr) {  // the generation is gone: build no more
        superseded_ = true;
        free_cv_.notify_all();
        continue;  // a lease may have come back meanwhile
      }
      size_t slot = slots_.size();
      slots_.push_back(std::move(*built));
      Slot* s = slots_[slot].get();
      return SessionLease(shared_from_this(), slot, s->session.get(),
                          s->db.get());
    }
    free_cv_.wait(lock, [&] {
      return !free_.empty() || superseded_ ||
             slots_.size() + building_ < max_sessions_;
    });
  }
}

size_t DbSnapshot::sessions_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void DbSnapshot::MarkSuperseded() {
  std::lock_guard<std::mutex> lock(mu_);
  superseded_ = true;
  free_cv_.notify_all();
}

void DbSnapshot::ReturnSlot(size_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(slot);
  free_cv_.notify_one();
}

// -------------------------------------------------------------- the manager

SnapshotManager::SnapshotManager(VideoDatabase* db, EvalOptions options,
                                 size_t sessions_per_snapshot)
    : options_(std::move(options)),
      sessions_per_snapshot_(sessions_per_snapshot == 0
                                 ? 4
                                 : sessions_per_snapshot),
      live_(std::make_shared<LiveDatabase>()),
      write_session_(db, options_),
      live_epoch_(db->epoch()),
      rules_(std::make_shared<const std::vector<Rule>>()) {
  live_->db = db;
}

SnapshotManager::~SnapshotManager() {
  std::unique_lock<std::shared_mutex> live(live_->mu);
  live_->db = nullptr;
}

Status SnapshotManager::Apply(std::string_view statement_text) {
  std::string_view trimmed = Trim(statement_text);
  if (StartsWith(trimmed, "?-") || StartsWith(trimmed, "explain")) {
    return Status::InvalidArgument(
        "queries are read-path requests; Apply takes statements only");
  }
  std::unique_lock<std::shared_mutex> live(live_->mu);
  Status st = write_session_.Load(trimmed);
  // Publish the generation even on error: a failed statement list may have
  // applied its leading statements.
  const std::vector<Rule>& rules = write_session_.rules();
  live_->rules_epoch = rules.size();
  std::lock_guard<std::mutex> lock(mu_);
  live_epoch_ = live_->db->epoch();
  if (rules_epoch_ != rules.size()) {
    rules_ = std::make_shared<const std::vector<Rule>>(rules);
    rules_epoch_ = rules.size();
  }
  return st;
}

Result<std::shared_ptr<DbSnapshot>> SnapshotManager::Current() {
  // Declared before the lock: when this holds the last reference to the
  // superseded snapshot, its session copies are freed after the lock is
  // released, not while other readers wait on it.
  std::shared_ptr<DbSnapshot> superseded;
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr && current_->db_epoch() == live_epoch_ &&
      current_->rules_epoch() == rules_epoch_) {
    return current_;
  }
  if (current_ != nullptr) current_->MarkSuperseded();
  superseded = std::move(current_);
  current_ = std::make_shared<DbSnapshot>(live_, live_epoch_, rules_epoch_,
                                          rules_, options_,
                                          sessions_per_snapshot_);
  ++built_;
  return current_;
}

Result<SessionLease> SnapshotManager::AcquireSession() {
  for (;;) {
    auto snapshot = Current();
    if (!snapshot.ok()) return snapshot.status();
    auto lease = (*snapshot)->Acquire();
    // Unavailable: a write landed between Current() and the copy.
    if (lease.ok() || !lease.status().IsUnavailable()) return lease;
  }
}

uint64_t SnapshotManager::live_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_epoch_;
}

uint64_t SnapshotManager::rules_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_epoch_;
}

uint64_t SnapshotManager::snapshots_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

std::vector<Rule> SnapshotManager::rules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return *rules_;
}

}  // namespace server
}  // namespace vqldb
