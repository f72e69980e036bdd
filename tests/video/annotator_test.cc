#include "src/video/annotator.h"

#include <gtest/gtest.h>

namespace vqldb {
namespace {

TEST(AnnotatorTest, AddEntityCreatesWithAttributes) {
  VideoDatabase db;
  Annotator annotator(&db);
  auto id = annotator.AddEntity("reporter",
                                {{"role", Value::String("anchor")}});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(db.IsEntity(*id));
  EXPECT_EQ(db.GetAttribute(*id, "role")->string_value(), "anchor");
}

TEST(AnnotatorTest, AddEntityReusesExisting) {
  VideoDatabase db;
  Annotator annotator(&db);
  ObjectId first = *annotator.AddEntity("reporter");
  ObjectId second =
      *annotator.AddEntity("reporter", {{"role", Value::String("anchor")}});
  EXPECT_EQ(first, second);
  EXPECT_EQ(db.Entities().size(), 1u);
  EXPECT_TRUE(db.GetAttribute(first, "role").ok());
}

TEST(AnnotatorTest, AddEntityRejectsIntervalSymbol) {
  VideoDatabase db;
  ASSERT_TRUE(db.CreateInterval("gi", GeneralizedInterval::Single(0, 1)).ok());
  Annotator annotator(&db);
  EXPECT_TRUE(annotator.AddEntity("gi").status().IsInvalidArgument());
}

TEST(AnnotatorTest, AnnotateTrackBuildsFig3Structure) {
  VideoDatabase db;
  Annotator annotator(&db);
  OccurrenceTrack track;
  track.entity = "reporter";
  track.extent = *GeneralizedInterval::Make({Fragment{0, 5}, Fragment{20, 30}});
  track.attributes.emplace_back("role", "anchor");
  auto gi = annotator.AnnotateTrack(track);
  ASSERT_TRUE(gi.ok());
  EXPECT_EQ(*db.Resolve("occ_reporter"), *gi);
  ObjectId entity = *db.Resolve("reporter");
  EXPECT_EQ(db.EntitiesOf(*gi)->size(), 1u);
  EXPECT_EQ(db.EntitiesOf(*gi)->front(), entity);
  EXPECT_EQ(db.GetAttribute(entity, "role")->string_value(), "anchor");
  IntervalSet duration = *db.DurationOf(*gi);
  EXPECT_TRUE(duration.Contains(3));
  EXPECT_TRUE(duration.Contains(25));
  EXPECT_FALSE(duration.Contains(10));
}

TEST(AnnotatorTest, AnnotateSceneWithSubject) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AddEntity("philip").ok());
  ASSERT_TRUE(annotator.AddEntity("brandon").ok());
  auto gi = annotator.AnnotateScene("crime", GeneralizedInterval::Single(0, 10),
                                    {"philip", "brandon"}, "murder");
  ASSERT_TRUE(gi.ok());
  EXPECT_EQ(db.EntitiesOf(*gi)->size(), 2u);
  EXPECT_EQ(db.GetAttribute(*gi, "subject")->string_value(), "murder");
}

TEST(AnnotatorTest, AssertRelationResolvesSymbols) {
  VideoDatabase db;
  Annotator annotator(&db);
  ASSERT_TRUE(annotator.AddEntity("david").ok());
  ASSERT_TRUE(annotator.AddEntity("chest").ok());
  ASSERT_TRUE(annotator
                  .AnnotateScene("crime", GeneralizedInterval::Single(0, 10),
                                 {"david"})
                  .ok());
  ASSERT_TRUE(annotator.AssertRelation("in", {"david", "chest", "crime"}).ok());
  EXPECT_EQ(db.Relation("in").rows(), 1u);
  EXPECT_TRUE(
      annotator.AssertRelation("in", {"nobody", "chest", "crime"})
          .IsNotFound());
}

TEST(AnnotatorTest, AnnotateTimelinePopulatesEverything) {
  VideoDatabase db;
  Annotator annotator(&db);
  VideoTimeline timeline(50);
  ASSERT_TRUE(
      timeline.AddTrack({"a", GeneralizedInterval::Single(0, 10), {}}).ok());
  ASSERT_TRUE(
      timeline.AddTrack({"b", GeneralizedInterval::Single(5, 15), {}}).ok());
  ASSERT_TRUE(annotator.AnnotateTimeline(timeline).ok());
  EXPECT_EQ(db.Entities().size(), 2u);
  EXPECT_EQ(db.BaseIntervals().size(), 2u);
  EXPECT_TRUE(db.Validate().ok());
}

}  // namespace
}  // namespace vqldb
