#include "src/storage/text_format.h"

#include <gtest/gtest.h>

#include "src/common/logging.h"

#include <cstdio>

namespace vqldb {
namespace {

VideoDatabase BuildSample() {
  VideoDatabase db;
  ObjectId o1 = *db.CreateEntity("o1");
  VQLDB_CHECK_OK(db.SetAttribute(o1, "name", Value::String("David")));
  VQLDB_CHECK_OK(db.SetAttribute(o1, "age", Value::Int(30)));
  ObjectId o2 = *db.CreateEntity("o2");
  VQLDB_CHECK_OK(db.SetAttribute(o2, "name", Value::String("Phi\"lip")));
  ObjectId gi =
      *db.CreateInterval("gi1", IntervalSet({TimeInterval::Open(0, 10),
                                             TimeInterval::Closed(20, 25)}));
  VQLDB_CHECK_OK(db.AddEntityToInterval(gi, o1));
  VQLDB_CHECK_OK(db.AddEntityToInterval(gi, o2));
  VQLDB_CHECK_OK(db.SetAttribute(gi, "subject", Value::String("murder")));
  VQLDB_CHECK_OK(db.SetAttribute(gi, "victim", Value::Oid(o1)));
  VQLDB_CHECK_OK(
      db.AssertFact("in", {Value::Oid(o1), Value::Oid(o2), Value::Oid(gi)}));
  VQLDB_CHECK_OK(db.AssertFact("score", {Value::Oid(gi), Value::Double(0.5)}));
  return db;
}

TEST(TextFormatTest, DumpContainsDeclarations) {
  VideoDatabase db = BuildSample();
  auto text = TextFormat::Dump(db);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("object o1 {"), std::string::npos);
  EXPECT_NE(text->find("interval gi1 {"), std::string::npos);
  EXPECT_NE(text->find("in(o1, o2, gi1)."), std::string::npos);
  EXPECT_NE(text->find("duration:"), std::string::npos);
}

TEST(TextFormatTest, RoundTripPreservesEverything) {
  VideoDatabase db = BuildSample();
  auto text = TextFormat::Dump(db);
  ASSERT_TRUE(text.ok());

  VideoDatabase restored;
  auto loaded = TextFormat::Load(*text, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << *text;
  EXPECT_TRUE(restored.Validate().ok());
  EXPECT_EQ(restored.Entities().size(), 2u);
  EXPECT_EQ(restored.BaseIntervals().size(), 1u);
  EXPECT_EQ(restored.fact_count(), 2u);

  ObjectId o1 = *restored.Resolve("o1");
  EXPECT_EQ(restored.GetAttribute(o1, "name")->string_value(), "David");
  EXPECT_EQ(restored.GetAttribute(o1, "age")->int_value(), 30);
  ObjectId gi = *restored.Resolve("gi1");
  IntervalSet duration = *restored.DurationOf(gi);
  EXPECT_FALSE(duration.Contains(0));  // open bound survived
  EXPECT_TRUE(duration.Contains(5));
  EXPECT_TRUE(duration.Contains(20));  // closed fragment survived
  EXPECT_EQ(restored.EntitiesOf(gi)->size(), 2u);
  EXPECT_EQ(restored.GetAttribute(gi, "victim")->oid_value(), o1);
}

TEST(TextFormatTest, DoubleRoundTripIsStable) {
  VideoDatabase db = BuildSample();
  std::string text1 = *TextFormat::Dump(db);
  VideoDatabase db2;
  ASSERT_TRUE(TextFormat::Load(text1, &db2).ok());
  std::string text2 = *TextFormat::Dump(db2);
  EXPECT_EQ(text1, text2);
}

TEST(TextFormatTest, AnonymousObjectsGetSyntheticSymbols) {
  VideoDatabase db;
  ObjectId o = *db.CreateEntity("");
  VQLDB_CHECK_OK(db.SetAttribute(o, "name", Value::String("ghost")));
  auto text = TextFormat::Dump(db);
  ASSERT_TRUE(text.ok());
  VideoDatabase restored;
  ASSERT_TRUE(TextFormat::Load(*text, &restored).ok());
  EXPECT_EQ(restored.Entities().size(), 1u);
}

TEST(TextFormatTest, DerivedIntervalsSkipped) {
  VideoDatabase db = BuildSample();
  ObjectId gi = *db.Resolve("gi1");
  ASSERT_TRUE(db.Concatenate(gi, gi).ok());
  ObjectId gi2 =
      *db.CreateInterval("gi2", GeneralizedInterval::Single(50, 60));
  ObjectId derived = *db.Concatenate(gi, gi2);
  // A fact over the derived interval becomes a comment.
  ASSERT_TRUE(db.AssertFact("derived_rel", {Value::Oid(derived)}).ok());
  auto text = TextFormat::Dump(db);
  ASSERT_TRUE(text.ok());
  VideoDatabase restored;
  auto loaded = TextFormat::Load(*text, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(restored.BaseIntervals().size(), 2u);
  EXPECT_EQ(restored.derived_interval_count(), 0u);
  EXPECT_EQ(restored.Relation("derived_rel").rows(), 0u);
}

TEST(TextFormatTest, LoadReturnsRulesAndQueries) {
  VideoDatabase db;
  auto loaded = TextFormat::Load(R"(
    object o1 { name: "x" }.
    q(G) <- Interval(G), o1 in G.entities.
    ?- q(G).
  )",
                                 &db);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rules.size(), 1u);
  EXPECT_EQ(loaded->queries.size(), 1u);
}

TEST(TextFormatTest, LoadRejectsBadProgram) {
  VideoDatabase db;
  EXPECT_TRUE(TextFormat::Load("object { }.", &db).status().IsParseError());
  EXPECT_TRUE(TextFormat::Load("interval gi { }.", &db)
                  .status()
                  .IsInvalidArgument());  // missing duration
}

TEST(TextFormatTest, FileRoundTrip) {
  VideoDatabase db = BuildSample();
  std::string path = ::testing::TempDir() + "/archive.vql";
  ASSERT_TRUE(TextFormat::DumpToFile(db, path).ok());
  VideoDatabase restored;
  auto loaded = TextFormat::LoadFromFile(path, &restored);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(restored.Entities().size(), 2u);
  std::remove(path.c_str());
  EXPECT_TRUE(
      TextFormat::LoadFromFile("/nonexistent/nope.vql", &restored)
          .status()
          .IsIOError());
}

TEST(TextFormatTest, RenderValueErrors) {
  VideoDatabase db;
  EXPECT_TRUE(TextFormat::RenderValue(db, Value()).status().IsInvalidArgument());
  EXPECT_TRUE(TextFormat::RenderValue(db, Value::Oid(ObjectId{99}))
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace vqldb
