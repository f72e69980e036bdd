#include "src/server/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/query.h"
#include "src/model/database.h"
#include "src/storage/binary_format.h"

namespace vqldb {
namespace server {
namespace {

size_t RowCount(SessionLease& lease, const std::string& text) {
  auto result = lease.session()->Query(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->rows.size() : 0;
}

TEST(SnapshotManagerTest, ApplyAdvancesEpochAndCurrentRebuilds) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);

  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto first = manager.Current();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(manager.snapshots_built(), 1u);

  // No change: Current() must serve the cached snapshot, not rebuild.
  auto again = manager.Current();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());
  EXPECT_EQ(manager.snapshots_built(), 1u);

  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
  auto second = manager.Current();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_EQ(manager.snapshots_built(), 2u);
  EXPECT_GT((*second)->db_epoch(), (*first)->db_epoch());
}

TEST(SnapshotManagerTest, RejectsQueriesOnTheWritePath) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  EXPECT_FALSE(manager.Apply("?- p(X).").ok());
  EXPECT_FALSE(manager.Apply("explain ?- p(X).").ok());
  EXPECT_FALSE(manager.Apply("  explain analyze ?- p(X).").ok());
}

TEST(SnapshotManagerTest, RuleChangesRebuildWithoutDbEpochChange) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  uint64_t built_before = 0;
  {
    auto lease = manager.AcquireSession();
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(RowCount(*lease, "?- p(X, Y)."), 0u);
    built_before = manager.snapshots_built();
  }
  ASSERT_TRUE(manager.Apply("p(X, Y) <- e(X, Y).").ok());
  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(RowCount(*lease, "?- p(X, Y)."), 1u);
  EXPECT_GT(manager.snapshots_built(), built_before);
}

TEST(SnapshotManagerTest, InFlightLeaseIsIsolatedFromLaterWrites) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);

  // A write after the lease was taken must be invisible to it...
  ASSERT_TRUE(manager.Apply("object c { }. e(b, c). e(a, c).").ok());
  EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);
  EXPECT_LT(lease->db_epoch(), manager.live_epoch());

  // ...while a fresh lease sees the new generation.
  auto fresh = manager.AcquireSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(RowCount(*fresh, "?- e(X, Y)."), 3u);
}

TEST(SnapshotManagerTest, LeasesAreExclusiveAndRecycled) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  {
    auto one = (*snapshot)->Acquire();
    auto two = (*snapshot)->Acquire();
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(two.ok());
    EXPECT_NE(one->session(), two->session());
    EXPECT_EQ((*snapshot)->sessions_built(), 2u);
  }
  // Pool exhausted (2 sessions max) -> returned leases are reused, not
  // rebuilt.
  auto three = (*snapshot)->Acquire();
  ASSERT_TRUE(three.ok());
  EXPECT_EQ((*snapshot)->sessions_built(), 2u);
}

TEST(SnapshotManagerTest, BoundedPoolBlocksUntilReturnNotForever) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  auto held = manager.AcquireSession();
  ASSERT_TRUE(held.ok());

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    *held = SessionLease();  // return the lease
  });
  auto next = manager.AcquireSession();  // must block, then succeed
  releaser.join();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(RowCount(*next, "?- e(X, Y)."), 1u);
}

TEST(SnapshotManagerTest, ConcurrentAcquireBuildsAtMostPoolSize) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 4);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto lease = manager.AcquireSession();
        ASSERT_TRUE(lease.ok());
        EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_LE((*snapshot)->sessions_built(), 4u);
  EXPECT_EQ(manager.snapshots_built(), 1u);
}

TEST(SnapshotManagerTest, ReadersBesideAWriterSeeOnlyCommittedGenerations) {
  constexpr int kWrites = 200;
  constexpr int kReaders = 4;
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, kReaders);
  ASSERT_TRUE(manager.Apply("object seed { }. e(seed, seed). f(seed).").ok());

  // Every committed generation: its epoch -> count(e) (== count(f)).
  std::mutex committed_mu;
  std::map<uint64_t, size_t> committed = {{manager.live_epoch(), 1}};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int g = 0; g < kWrites; ++g) {
      std::string x = "x" + std::to_string(g);
      // One Apply, one generation: e and f grow together.
      ASSERT_TRUE(manager
                      .Apply("object " + x + " { }. e(" + x + ", seed). f(" +
                             x + ").")
                      .ok());
      std::lock_guard<std::mutex> lock(committed_mu);
      committed[manager.live_epoch()] = static_cast<size_t>(g) + 2;
    }
    done.store(true);
  });

  struct Observation {
    uint64_t epoch;
    size_t e;
    size_t f;
  };
  std::vector<std::vector<Observation>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 20 || !done.load(); ++i) {
        auto lease = manager.AcquireSession();
        ASSERT_TRUE(lease.ok()) << lease.status();
        seen[r].push_back({lease->db_epoch(), RowCount(*lease, "?- e(X, Y)."),
                           RowCount(*lease, "?- f(X).")});
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  size_t checked = 0;
  for (const auto& observations : seen) {
    for (const Observation& o : observations) {
      auto it = committed.find(o.epoch);
      ASSERT_NE(it, committed.end())
          << "a lease pinned to epoch " << o.epoch << ", never committed";
      EXPECT_EQ(o.e, it->second) << "at epoch " << o.epoch;
      EXPECT_EQ(o.f, it->second) << "torn generation at epoch " << o.epoch;
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<size_t>(kReaders) * 20);
  auto last = manager.AcquireSession();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(RowCount(*last, "?- e(X, Y)."), static_cast<size_t>(kWrites) + 1);
}

TEST(SnapshotManagerTest, SupersededSnapshotLendsIdleSessionsButBuildsNone) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto old = manager.Current();
  ASSERT_TRUE(old.ok());
  { ASSERT_TRUE((*old)->Acquire().ok()); }  // one idle session
  ASSERT_EQ((*old)->sessions_built(), 1u);

  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
  // The idle session still serves the generation it was copied at...
  auto idle = (*old)->Acquire();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(RowCount(*idle, "?- e(X, Y)."), 1u);
  EXPECT_EQ(idle->db_epoch(), (*old)->db_epoch());
  // ...but that generation is gone from the live database, so a second
  // session cannot be copied, though the pool has room for it.
  auto refused = (*old)->Acquire();
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status();
  EXPECT_EQ((*old)->sessions_built(), 1u);

  auto fresh = manager.AcquireSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(RowCount(*fresh, "?- e(X, Y)."), 2u);
  EXPECT_EQ(fresh->db_epoch(), manager.live_epoch());
}

TEST(SnapshotManagerTest, SupersededSnapshotWithoutSessionsSendsReadersOn) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto old = manager.Current();
  ASSERT_TRUE(old.ok());
  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());

  auto refused = (*old)->Acquire();
  EXPECT_TRUE(refused.status().IsUnavailable()) << refused.status();
  EXPECT_EQ((*old)->sessions_built(), 0u);
  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 2u);
}

TEST(SnapshotManagerTest, ReaderWaitingOnAFullPoolMovesToTheNewGeneration) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 1);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto held = manager.AcquireSession();  // the pool's only session
  ASSERT_TRUE(held.ok());

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
    ASSERT_TRUE(manager.Current().ok());  // supersedes the full snapshot
  });
  // Blocks on the full pool until the new snapshot supersedes it, then
  // leases from the new one while `held` is still out.
  auto next = manager.AcquireSession();
  writer.join();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(RowCount(*next, "?- e(X, Y)."), 2u);
  EXPECT_EQ(RowCount(*held, "?- e(X, Y)."), 1u);
}

TEST(SnapshotManagerTest, LeaseHeldAcrossWritesKeepsItsGeneration) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  auto lease = manager.AcquireSession();
  ASSERT_TRUE(lease.ok());
  const uint64_t pinned = lease->db_epoch();
  for (int g = 0; g < 20; ++g) {
    std::string x = "x" + std::to_string(g);
    ASSERT_TRUE(manager.Apply("object " + x + " { }. e(a, " + x + ").").ok());
    auto reader = manager.AcquireSession();
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(RowCount(*reader, "?- e(X, Y)."), static_cast<size_t>(g) + 2);
    EXPECT_EQ(RowCount(*lease, "?- e(X, Y)."), 1u);
  }
  EXPECT_EQ(lease->db_epoch(), pinned);
  EXPECT_EQ(manager.snapshots_built(), 21u);
}

TEST(SnapshotManagerTest, BytesIsTheImageOfTheSnapshotsGeneration) {
  VideoDatabase db;
  SnapshotManager manager(&db, EvalOptions{}, 2);
  ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
  const std::string image = *BinaryFormat::Serialize(db);
  auto snapshot = manager.Current();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->bytes(), image);  // encoded from the live database
  { ASSERT_TRUE((*snapshot)->Acquire().ok()); }

  ASSERT_TRUE(manager.Apply("object c { }. e(b, c).").ok());
  EXPECT_EQ((*snapshot)->bytes(), image);  // encoded from the idle copy
  auto held = (*snapshot)->Acquire();
  ASSERT_TRUE(held.ok());
  EXPECT_EQ((*snapshot)->bytes(), "");  // no copy at hand
}

TEST(SnapshotManagerTest, SnapshotsAndLeasesOutliveTheirManager) {
  SessionLease lease;
  std::shared_ptr<DbSnapshot> snapshot;
  {
    VideoDatabase db;
    SnapshotManager manager(&db, EvalOptions{}, 2);
    ASSERT_TRUE(manager.Apply("object a { }. object b { }. e(a, b).").ok());
    auto acquired = manager.AcquireSession();
    ASSERT_TRUE(acquired.ok());
    lease = std::move(*acquired);
    snapshot = *manager.Current();
  }
  // The lease reads its own copy; the live database is gone.
  EXPECT_EQ(RowCount(lease, "?- e(X, Y)."), 1u);
  lease = SessionLease();
  auto again = snapshot->Acquire();  // the idle session is still lent
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(RowCount(*again, "?- e(X, Y)."), 1u);
  // A new session would need the live database.
  EXPECT_TRUE(snapshot->Acquire().status().IsUnavailable());
}

}  // namespace
}  // namespace server
}  // namespace vqldb
