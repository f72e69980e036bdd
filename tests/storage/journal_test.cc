#include "src/storage/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "src/common/logging.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/storage/binary_format.h"
#include "src/storage/io_env.h"

namespace vqldb {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: ctest runs each case as its own process, and
    // concurrent cases sharing one fixed path race in SetUp/TearDown.
    dir_ = ::testing::TempDir() + "/journal_test." +
           std::to_string(static_cast<long>(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    journal_path_ = dir_ + "/archive.log";
    snapshot_path_ = dir_ + "/archive.vqdb";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes raw bytes to the journal path, bypassing the Journal API.
  void WriteRaw(const std::string& bytes) {
    std::ofstream raw(journal_path_, std::ios::binary | std::ios::trunc);
    raw.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_, journal_path_, snapshot_path_;
};

TEST_F(JournalTest, AppendAndReplay) {
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { name: \"David\" }.").ok());
    ASSERT_TRUE(journal
                    ->Append("interval gi1 { duration: (t > 0 and t < 9), "
                             "entities: {o1} }.")
                    .ok());
    ASSERT_TRUE(journal->Append("seen(o1, gi1).").ok());
    EXPECT_EQ(journal->appended(), 3u);
  }
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records_replayed, 3u);
  EXPECT_EQ(replayed->statements_replayed, 3u);
  EXPECT_EQ(replayed->records_dropped, 0u);
  EXPECT_EQ(replayed->bytes_dropped, 0u);
  EXPECT_FALSE(replayed->truncated);
  EXPECT_EQ(db.Entities().size(), 1u);
  EXPECT_EQ(db.BaseIntervals().size(), 1u);
  EXPECT_EQ(db.fact_count(), 1u);
}

TEST_F(JournalTest, RejectsRulesAndQueries) {
  auto journal = Journal::Open(journal_path_);
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->Append("q(X) <- p(X).").IsInvalidArgument());
  EXPECT_TRUE(journal->Append("?- q(X).").IsInvalidArgument());
  EXPECT_TRUE(journal->Append("garbage here").IsParseError());
  EXPECT_EQ(journal->appended(), 0u);
  // Nothing leaked into the file.
  VideoDatabase db;
  EXPECT_EQ(Journal::Replay(journal_path_, &db)->records_replayed, 0u);
}

TEST_F(JournalTest, ReplayMissingFileIsEmpty) {
  VideoDatabase db;
  auto replayed = Journal::Replay(dir_ + "/nope.log", &db);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->records_replayed, 0u);
  EXPECT_FALSE(replayed->truncated);
}

TEST_F(JournalTest, ReplayEmptyFileIsEmpty) {
  WriteRaw("");
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records_replayed, 0u);
  EXPECT_EQ(replayed->bytes_dropped, 0u);
  EXPECT_FALSE(replayed->truncated);
}

TEST_F(JournalTest, RecordObjectAndFactRenderSymbols) {
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  VQLDB_CHECK_OK(db.SetAttribute(o1, "name", Value::String("David")));
  ObjectId gi =
      *db.CreateInterval("gi1", IntervalSet({TimeInterval::Open(0, 10)}));
  VQLDB_CHECK_OK(db.AddEntityToInterval(gi, o1));
  Fact fact{"seen", {Value::Oid(o1), Value::Oid(gi)}};
  VQLDB_CHECK_OK(db.AssertFact(fact));

  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->RecordObject(db, o1).ok());
    ASSERT_TRUE(journal->RecordObject(db, gi).ok());
    ASSERT_TRUE(journal->RecordFact(db, fact).ok());
  }
  VideoDatabase restored;
  ASSERT_TRUE(Journal::Replay(journal_path_, &restored).ok());
  EXPECT_EQ(restored.GetAttribute(*restored.Resolve("o1"), "name")
                ->string_value(),
            "David");
  EXPECT_FALSE(restored.DurationOf(*restored.Resolve("gi1"))->Contains(0));
  EXPECT_EQ(restored.fact_count(), 1u);
}

TEST_F(JournalTest, RecordObjectRejectsAnonymousAndDerived) {
  VideoDatabase db;
  ObjectId anon = *db.CreateEntity("");
  ObjectId a = *db.CreateInterval("a", GeneralizedInterval::Single(0, 1));
  ObjectId b = *db.CreateInterval("b", GeneralizedInterval::Single(5, 6));
  ObjectId derived = *db.Concatenate(a, b);
  auto journal = Journal::Open(journal_path_);
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->RecordObject(db, anon).IsInvalidArgument());
  EXPECT_TRUE(journal->RecordObject(db, derived).IsInvalidArgument());
}

TEST_F(JournalTest, SnapshotPlusJournalRecovery) {
  // Phase 1: build a base archive and snapshot it.
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  VQLDB_CHECK_OK(db.SetAttribute(o1, "name", Value::String("David")));
  ASSERT_TRUE(BinaryFormat::Save(db, snapshot_path_).ok());

  // Phase 2: journal mutations made after the snapshot.
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o2 { name: \"Rupert\" }.").ok());
    ASSERT_TRUE(journal
                    ->Append("interval gi1 { duration: (t >= 0 and t <= 5), "
                             "entities: {o1, o2} }.")
                    .ok());
  }

  // Phase 3: recover = snapshot + tail.
  RecoveryReport report;
  auto recovered = Journal::Recover(snapshot_path_, journal_path_, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->Entities().size(), 2u);
  EXPECT_EQ(recovered->BaseIntervals().size(), 1u);
  EXPECT_EQ(recovered->EntitiesOf(*recovered->Resolve("gi1"))->size(), 2u);
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_FALSE(report.truncated);
}

TEST_F(JournalTest, RecoverWithoutSnapshotStartsEmpty) {
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object only { }.").ok());
  }
  auto recovered = Journal::Recover("", journal_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->Entities().size(), 1u);
}

TEST_F(JournalTest, RecoverWithMissingSnapshotFileStartsEmpty) {
  // A snapshot path that points nowhere (first boot, or the snapshot was
  // never cut) must not fail recovery while a journal is present.
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { }.").ok());
    ASSERT_TRUE(journal->Append("object o2 { }.").ok());
  }
  RecoveryReport report;
  auto recovered =
      Journal::Recover(dir_ + "/never_written.vqdb", journal_path_, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->Entities().size(), 2u);
  EXPECT_EQ(report.statements_replayed, 2u);
}

TEST_F(JournalTest, ReplayDetectsForeignStatements) {
  // A CRC-valid record whose payload is a rule or query is not a torn tail —
  // it is corruption (Append would never have written it) and must fail.
  WriteRaw(Journal::FrameRecord("object o1 { }.") +
           Journal::FrameRecord("q(X) <- p(X)."));
  VideoDatabase db;
  EXPECT_TRUE(Journal::Replay(journal_path_, &db).status().IsCorruption());

  WriteRaw(Journal::FrameRecord("?- p(X)."));
  VideoDatabase db2;
  EXPECT_TRUE(Journal::Replay(journal_path_, &db2).status().IsCorruption());
}

TEST_F(JournalTest, ReplayTruncatesTornTail) {
  // Three good records, the last one cut mid-payload (what a crash during
  // write leaves). Replay applies the prefix and reports the cut.
  std::string good = Journal::FrameRecord("object o1 { }.") +
                     Journal::FrameRecord("object o2 { }.");
  std::string torn = Journal::FrameRecord("object o3 { }.");
  torn.resize(torn.size() - 5);  // lose the payload's last 5 bytes
  WriteRaw(good + torn);

  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records_replayed, 2u);
  EXPECT_EQ(replayed->statements_replayed, 2u);
  EXPECT_EQ(replayed->records_dropped, 1u);
  EXPECT_EQ(replayed->bytes_dropped, torn.size());
  EXPECT_TRUE(replayed->truncated);
  EXPECT_NE(replayed->truncation_reason.find("torn record payload"),
            std::string::npos);
  EXPECT_EQ(db.Entities().size(), 2u);
}

TEST_F(JournalTest, ReplayTruncatesTornHeaderAndBadMagic) {
  // A few stray header bytes after a good record: torn header.
  WriteRaw(Journal::FrameRecord("object o1 { }.") + "\x56\x51");
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->records_replayed, 1u);
  EXPECT_TRUE(replayed->truncated);
  EXPECT_EQ(replayed->bytes_dropped, 2u);

  // A legacy plain-text file has no record magic: everything truncates.
  WriteRaw("object o1 { }.\n");
  VideoDatabase db2;
  auto replayed2 = Journal::Replay(journal_path_, &db2);
  ASSERT_TRUE(replayed2.ok());
  EXPECT_EQ(replayed2->records_replayed, 0u);
  EXPECT_TRUE(replayed2->truncated);
  EXPECT_NE(replayed2->truncation_reason.find("bad record magic"),
            std::string::npos);
}

TEST_F(JournalTest, ReplayTruncatesCorruptedPayload) {
  // Flip one payload byte of the last record: CRC catches it.
  std::string bytes = Journal::FrameRecord("object o1 { }.") +
                      Journal::FrameRecord("object o2 { }.");
  bytes.back() ^= 0x01;
  WriteRaw(bytes);
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records_replayed, 1u);
  EXPECT_EQ(replayed->records_dropped, 1u);
  EXPECT_TRUE(replayed->truncated);
  EXPECT_NE(replayed->truncation_reason.find("checksum mismatch"),
            std::string::npos);
  EXPECT_EQ(db.Entities().size(), 1u);
}

TEST_F(JournalTest, OpenFailsEagerlyOnUnopenablePath) {
  // A path that routes *through* a regular file fails with ENOTDIR even as
  // root (who bypasses permission bits, so chmod-style tests don't work).
  { std::ofstream f(dir_ + "/plainfile"); }
  auto journal = Journal::Open(dir_ + "/plainfile/journal.log");
  EXPECT_FALSE(journal.ok());
  EXPECT_TRUE(journal.status().IsIOError()) << journal.status();
}

TEST_F(JournalTest, OpenFailsEagerlyWithFaultInjectedOpens) {
  FaultOptions faults;
  faults.fail_opens = true;
  FaultInjectingEnv env(Env::Default(), faults);
  Journal::Options options;
  options.env = &env;
  auto journal = Journal::Open(journal_path_, options);
  EXPECT_FALSE(journal.ok());
  EXPECT_TRUE(journal.status().IsIOError());
}

TEST_F(JournalTest, FsyncDurabilityTracksSyncedStatements) {
  Journal::Options options;
  options.durability = Journal::Durability::kFsync;
  auto journal = Journal::Open(journal_path_, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  ASSERT_TRUE(journal->Append("object o2 { }.").ok());
  EXPECT_EQ(journal->appended(), 2u);
  EXPECT_EQ(journal->synced(), 2u);  // fsync per append: always caught up
}

TEST_F(JournalTest, BatchDurabilityBuffersUntilSync) {
  Journal::Options options;
  options.durability = Journal::Durability::kBatch;
  options.batch_bytes = 1 << 20;  // too big to auto-flush in this test
  auto journal = Journal::Open(journal_path_, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  ASSERT_TRUE(journal->Append("object o2 { }.").ok());
  EXPECT_EQ(journal->appended(), 2u);
  EXPECT_EQ(journal->synced(), 0u);  // still buffered in memory

  // The records are not in the file yet...
  VideoDatabase before;
  EXPECT_EQ(Journal::Replay(journal_path_, &before)->records_replayed, 0u);

  // ...until Sync drains the batch.
  ASSERT_TRUE(journal->Sync().ok());
  EXPECT_EQ(journal->synced(), 2u);
  VideoDatabase after;
  EXPECT_EQ(Journal::Replay(journal_path_, &after)->records_replayed, 2u);
}

TEST_F(JournalTest, BatchAutoFlushesAtThreshold) {
  Journal::Options options;
  options.durability = Journal::Durability::kBatch;
  options.batch_bytes = 1;  // every append crosses the threshold
  auto journal = Journal::Open(journal_path_, options);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  EXPECT_EQ(journal->synced(), 1u);
  VideoDatabase db;
  EXPECT_EQ(Journal::Replay(journal_path_, &db)->records_replayed, 1u);
}

TEST_F(JournalTest, BatchFlushesOnDestruction) {
  {
    Journal::Options options;
    options.durability = Journal::Durability::kBatch;
    options.batch_bytes = 1 << 20;
    auto journal = Journal::Open(journal_path_, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  }  // best-effort flush in the destructor
  VideoDatabase db;
  EXPECT_EQ(Journal::Replay(journal_path_, &db)->records_replayed, 1u);
}

TEST_F(JournalTest, InjectedWriteFaultTearsTailButRecoveryHolds) {
  FaultOptions faults;
  faults.seed = 7;
  faults.write_fault_p = 1.0;  // the very first write tears
  FaultInjectingEnv env(Env::Default(), faults);
  Journal::Options options;
  options.env = &env;
  {
    auto journal = Journal::Open(journal_path_, options);
    ASSERT_TRUE(journal.ok());
    Status st = journal->Append("object o1 { name: \"torn\" }.");
    EXPECT_TRUE(st.IsIOError()) << st;
  }
  EXPECT_GE(env.injected_faults(), 1u);
  // Whatever prefix hit the disk, recovery still succeeds and applies none
  // of the torn record.
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->records_replayed, 0u);
  EXPECT_EQ(db.Entities().size(), 0u);
}

TEST_F(JournalTest, InjectedSyncFaultSurfacesAsIOError) {
  FaultOptions faults;
  faults.seed = 11;
  faults.sync_fault_p = 1.0;
  FaultInjectingEnv env(Env::Default(), faults);
  Journal::Options options;
  options.durability = Journal::Durability::kFsync;
  options.env = &env;
  auto journal = Journal::Open(journal_path_, options);
  ASSERT_TRUE(journal.ok());
  Status st = journal->Append("object o1 { }.");
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(journal->synced(), 0u);
}

TEST_F(JournalTest, AppendSurvivesReopen) {
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  }
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o2 { }.").ok());
  }
  VideoDatabase db;
  ASSERT_TRUE(Journal::Replay(journal_path_, &db).ok());
  EXPECT_EQ(db.Entities().size(), 2u);
}

TEST_F(JournalTest, DurabilityMetricsFlowIntoGlobalRegistry) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* fsyncs = registry.GetCounter("vqldb_journal_fsyncs_total");
  obs::Counter* replayed_c =
      registry.GetCounter("vqldb_recovery_records_replayed_total");
  obs::Counter* dropped_c =
      registry.GetCounter("vqldb_recovery_records_dropped_total");
  uint64_t fsyncs0 = fsyncs->value();
  uint64_t replayed0 = replayed_c->value();
  uint64_t dropped0 = dropped_c->value();

  Journal::Options options;
  options.durability = Journal::Durability::kFsync;
  {
    auto journal = Journal::Open(journal_path_, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { }.").ok());
  }
  EXPECT_GE(fsyncs->value(), fsyncs0 + 1);

  // Append a torn record by hand and recover: replayed + dropped both move.
  {
    std::ofstream raw(journal_path_, std::ios::binary | std::ios::app);
    std::string torn = Journal::FrameRecord("object o2 { }.");
    torn.resize(torn.size() - 3);
    raw.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  VideoDatabase db;
  ASSERT_TRUE(Journal::Replay(journal_path_, &db).ok());
  EXPECT_GE(replayed_c->value(), replayed0 + 1);
  EXPECT_GE(dropped_c->value(), dropped0 + 1);

  // And the exporter carries the metric names.
  std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("vqldb_journal_fsyncs_total"), std::string::npos);
  EXPECT_NE(prom.find("vqldb_recovery_records_replayed_total"),
            std::string::npos);
  EXPECT_NE(prom.find("vqldb_recovery_records_dropped_total"),
            std::string::npos);
}

TEST_F(JournalTest, DictionarySurvivesReplay) {
  // String terms that exist only inside journaled statements: before replay
  // the global term dictionary has never seen them; replay must intern them
  // (AssertFact interns every argument) so the recovered relations are
  // dictionary-encoded exactly like live-inserted ones.
  const Value probe = Value::String("journal-dict-probe-alpha");
  ASSERT_EQ(TermDict::Global().IdOf(probe), kNoTermId);
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append("object o1 { }.").ok());
    ASSERT_TRUE(
        journal->Append("annotation(o1, \"journal-dict-probe-alpha\").").ok());
    ASSERT_TRUE(
        journal->Append("annotation(o1, \"journal-dict-probe-beta\").").ok());
  }
  VideoDatabase db;
  auto replayed = Journal::Replay(journal_path_, &db);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->statements_replayed, 3u);
  EXPECT_NE(TermDict::Global().IdOf(probe), kNoTermId);
  const StoredRelation& facts = db.Relation("annotation");
  ASSERT_EQ(facts.rows(), 2u);
  EXPECT_EQ(facts.ArgsAt(0)[1], probe);
  // Id equality mirrors value equality for the recovered terms.
  EXPECT_EQ(TermDict::Global().IdOf(facts.ArgsAt(0)[1]),
            TermDict::Global().IdOf(probe));
  EXPECT_NE(TermDict::Global().IdOf(facts.ArgsAt(1)[1]),
            TermDict::Global().IdOf(probe));
}

TEST_F(JournalTest, DictionarySurvivesSnapshotRecovery) {
  // Snapshot + journal tail, both carrying string terms; after Recover the
  // facts must decode to Compare-equal values and every argument must be
  // interned (the columnar engine cannot store un-interned terms).
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  Fact base{"annotation",
            {Value::Oid(o1), Value::String("snapshot-dict-term-gamma")}};
  VQLDB_CHECK_OK(db.AssertFact(base));
  ASSERT_TRUE(BinaryFormat::Save(db, snapshot_path_).ok());
  {
    auto journal = Journal::Open(journal_path_);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        journal->Append("annotation(o1, \"snapshot-dict-term-delta\").").ok());
  }
  RecoveryReport report;
  auto recovered = Journal::Recover(snapshot_path_, journal_path_, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const StoredRelation& facts = recovered->Relation("annotation");
  ASSERT_EQ(facts.rows(), 2u);
  for (size_t pos = 0; pos < facts.rows(); ++pos) {
    for (const Value& arg : facts.ArgsAt(pos)) {
      EXPECT_NE(TermDict::Global().IdOf(arg), kNoTermId)
          << "recovered argument not interned: " << arg.ToString();
    }
  }
  EXPECT_EQ(facts.ArgsAt(0)[1], base.args[1]);
  EXPECT_EQ(facts.ArgsAt(1)[1].string_value(), "snapshot-dict-term-delta");
}

}  // namespace
}  // namespace vqldb
