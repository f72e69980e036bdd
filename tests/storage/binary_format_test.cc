#include "src/storage/binary_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "src/common/logging.h"

namespace vqldb {
namespace {

VideoDatabase BuildSample() {
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  VQLDB_CHECK_OK(db.SetAttribute(o1, "name", Value::String("David")));
  VQLDB_CHECK_OK(db.SetAttribute(o1, "age", Value::Int(-5)));
  VQLDB_CHECK_OK(db.SetAttribute(o1, "score", Value::Double(2.5)));
  VQLDB_CHECK_OK(db.SetAttribute(o1, "alive", Value::Bool(false)));
  ObjectId o2 = *db.CreateEntity("");
  VQLDB_CHECK_OK(db.SetAttribute(o2, "name", Value::String("anon")));
  ObjectId gi =
      *db.CreateInterval("gi1", IntervalSet({TimeInterval::Open(0, 10),
                                             TimeInterval::Point(15)}));
  VQLDB_CHECK_OK(db.AddEntityToInterval(gi, o1));
  VQLDB_CHECK_OK(db.AddEntityToInterval(gi, o2));
  VQLDB_CHECK_OK(db.SetAttribute(
      gi, "tags", Value::Set({Value::String("a"), Value::Int(1)})));
  VQLDB_CHECK_OK(
      db.AssertFact("in", {Value::Oid(o1), Value::Oid(o2), Value::Oid(gi)}));
  return db;
}

TEST(BinaryFormatTest, RoundTrip) {
  VideoDatabase db = BuildSample();
  auto bytes = BinaryFormat::Serialize(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = BinaryFormat::Deserialize(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->Validate().ok());
  EXPECT_EQ(restored->Entities().size(), 2u);
  EXPECT_EQ(restored->BaseIntervals().size(), 1u);
  EXPECT_EQ(restored->fact_count(), 1u);

  ObjectId o1 = *restored->Resolve("o1");
  EXPECT_EQ(restored->GetAttribute(o1, "name")->string_value(), "David");
  EXPECT_EQ(restored->GetAttribute(o1, "age")->int_value(), -5);
  EXPECT_EQ(restored->GetAttribute(o1, "score")->double_value(), 2.5);
  EXPECT_EQ(restored->GetAttribute(o1, "alive")->bool_value(), false);

  ObjectId gi = *restored->Resolve("gi1");
  IntervalSet duration = *restored->DurationOf(gi);
  EXPECT_FALSE(duration.Contains(0));
  EXPECT_TRUE(duration.Contains(5));
  EXPECT_TRUE(duration.Contains(15));
  EXPECT_EQ(restored->EntitiesOf(gi)->size(), 2u);
  EXPECT_EQ(restored->GetAttribute(gi, "tags")->set_elements().size(), 2u);
}

TEST(BinaryFormatTest, IdRemappingSurvivesDerivedGaps) {
  // Create derived intervals so base ids are non-contiguous, then verify
  // the oid remapping on load keeps references consistent.
  VideoDatabase db = BuildSample();
  ObjectId gi = *db.Resolve("gi1");
  ObjectId gi2 =
      *db.CreateInterval("gi2", GeneralizedInterval::Single(40, 50));
  ASSERT_TRUE(db.Concatenate(gi, gi2).ok());  // derived object between bases
  ObjectId gi3 =
      *db.CreateInterval("gi3", GeneralizedInterval::Single(60, 70));
  ASSERT_TRUE(db.AssertFact("follows", {Value::Oid(gi3), Value::Oid(gi)}).ok());

  auto bytes = BinaryFormat::Serialize(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = BinaryFormat::Deserialize(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->BaseIntervals().size(), 3u);
  EXPECT_EQ(restored->derived_interval_count(), 0u);
  const std::vector<Value> f = restored->Relation("follows").ArgsAt(0);
  EXPECT_EQ(f[0].oid_value(), *restored->Resolve("gi3"));
  EXPECT_EQ(f[1].oid_value(), *restored->Resolve("gi1"));
}

TEST(BinaryFormatTest, ChecksumDetectsCorruption) {
  VideoDatabase db = BuildSample();
  std::string bytes = *BinaryFormat::Serialize(db);
  for (size_t pos : {size_t(9), bytes.size() / 2, bytes.size() - 6}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    auto r = BinaryFormat::Deserialize(corrupted);
    EXPECT_TRUE(r.status().IsCorruption()) << "pos=" << pos;
  }
}

TEST(BinaryFormatTest, TruncationDetected) {
  VideoDatabase db = BuildSample();
  std::string bytes = *BinaryFormat::Serialize(db);
  EXPECT_TRUE(BinaryFormat::Deserialize(bytes.substr(0, 8))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(BinaryFormat::Deserialize(bytes.substr(0, bytes.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(BinaryFormat::Deserialize("").status().IsCorruption());
}

TEST(BinaryFormatTest, BadMagicRejected) {
  VideoDatabase db = BuildSample();
  std::string bytes = *BinaryFormat::Serialize(db);
  bytes[0] = 'X';
  // CRC catches the flip first; either way it's corruption.
  EXPECT_TRUE(BinaryFormat::Deserialize(bytes).status().IsCorruption());
}

TEST(BinaryFormatTest, FileRoundTrip) {
  VideoDatabase db = BuildSample();
  std::string path = ::testing::TempDir() + "/archive.vqdb";
  ASSERT_TRUE(BinaryFormat::Save(db, path).ok());
  auto restored = BinaryFormat::Load(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Entities().size(), 2u);
  std::remove(path.c_str());
  EXPECT_TRUE(BinaryFormat::Load("/nonexistent/x.vqdb").status().IsIOError());
}

TEST(BinaryFormatTest, EmptyDatabaseRoundTrips) {
  VideoDatabase db;
  auto bytes = BinaryFormat::Serialize(db);
  ASSERT_TRUE(bytes.ok());
  auto restored = BinaryFormat::Deserialize(*bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Entities().size(), 0u);
  EXPECT_EQ(restored->fact_count(), 0u);
}

TEST(BinaryFormatTest, Crc32KnownVector) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// The image of an archive shaped like the benchmark's: `scenes` intervals
// over scenes / 4 actors, two actors and one speaks fact per scene.
std::string SceneArchiveImage(size_t scenes) {
  VideoDatabase db;
  std::vector<ObjectId> actors;
  for (size_t a = 0; a < std::max<size_t>(scenes / 4, 2); ++a) {
    actors.push_back(*db.CreateEntity("o" + std::to_string(a)));
  }
  for (size_t s = 0; s < scenes; ++s) {
    double t = static_cast<double>(s) * 10;
    ObjectId gi = *db.CreateInterval(
        "gi" + std::to_string(s), IntervalSet({TimeInterval::Closed(t, t + 8)}));
    ObjectId a1 = actors[s % actors.size()];
    ObjectId a2 = actors[(s * 7 + 1) % actors.size()];
    VQLDB_CHECK_OK(db.SetAttribute(
        gi, kAttrEntities, Value::Set({Value::Oid(a1), Value::Oid(a2)})));
    VQLDB_CHECK_OK(db.AssertFact("speaks", {Value::Oid(a1), Value::Oid(gi)}));
  }
  return *BinaryFormat::Serialize(db);
}

double BestDeserializeSeconds(const std::string& bytes, int reps) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto restored = BinaryFormat::Deserialize(bytes);
    std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(restored.ok()) << restored.status();
    best = std::min(best, took.count());
  }
  return best;
}

TEST(BinaryFormatTest, DeserializeScalesLinearlyInIntervals) {
  // Ten times the intervals may cost at most twenty times the time: a
  // linear decoder stays near 10x, a per-interval scan of a shared
  // attribute bucket goes toward 100x.
  const std::string small = SceneArchiveImage(1000);
  const std::string large = SceneArchiveImage(10000);
  double small_s = BestDeserializeSeconds(small, 9);
  double large_s = BestDeserializeSeconds(large, 5);
  RecordProperty("ratio", std::to_string(large_s / small_s));
  EXPECT_LE(large_s / small_s, 20.0)
      << "1k intervals: " << small_s * 1e3 << " ms, 10k intervals: "
      << large_s * 1e3 << " ms";
}

}  // namespace
}  // namespace vqldb
