// EX-1: the paper's Section 5.2 worked example — "The Rope" by Alfred
// Hitchcock — built verbatim through the model API, then checked against
// every statement of the database extract.

#include <gtest/gtest.h>

#include "src/model/database.h"

namespace vqldb {
namespace {

class RopeDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Entities o1..o9 with the paper's attributes.
    auto entity = [&](const char* symbol,
                      std::initializer_list<std::pair<const char*, const char*>>
                          attrs) {
      ObjectId id = *db_.CreateEntity(symbol);
      for (const auto& [k, v] : attrs) {
        ASSERT_TRUE(db_.SetAttribute(id, k, Value::String(v)).ok());
      }
    };
    entity("o1", {{"name", "David"}, {"role", "Victim"}});
    entity("o2", {{"name", "Philip"},
                  {"realname", "Farley Granger"},
                  {"role", "Murderer"}});
    entity("o3", {{"name", "Brandon"},
                  {"realname", "John Dall"},
                  {"role", "Murderer"}});
    entity("o4", {{"identification", "Chest"}});
    entity("o5", {{"name", "Janet"}, {"realname", "Joan Chandler"}});
    entity("o6", {{"name", "Kenneth"}, {"realname", "Douglas Dick"}});
    entity("o7", {{"name", "Mr.Kentley"}, {"realname", "Cedric Hardwicke"}});
    entity("o8", {{"name", "Mrs.Atwater"}, {"realname", "Constance Collier"}});
    entity("o9", {{"name", "Rupert Cadell"}, {"realname", "James Stewart"}});

    // gi1: the crime, duration t > a1 and t < b1 with a1=0, b1=10.
    gi1_ = *db_.CreateInterval("gi1", IntervalSet({TimeInterval::Open(0, 10)}));
    ASSERT_TRUE(db_.SetAttribute(gi1_, "subject", Value::String("murder")).ok());
    for (const char* s : {"o1", "o2", "o3", "o4"}) {
      ASSERT_TRUE(db_.AddEntityToInterval(gi1_, *db_.Resolve(s)).ok());
    }
    ASSERT_TRUE(
        db_.SetAttribute(gi1_, "victim", Value::Oid(*db_.Resolve("o1"))).ok());
    ASSERT_TRUE(db_.SetAttribute(gi1_, "murderer",
                                 Value::Set({Value::Oid(*db_.Resolve("o2")),
                                             Value::Oid(*db_.Resolve("o3"))}))
                    .ok());

    // gi2: the party, duration t > a2 and t < b2 with a2=15, b2=40
    // (a1 < b1 < a2 < b2 as the paper requires).
    gi2_ = *db_.CreateInterval("gi2", IntervalSet({TimeInterval::Open(15, 40)}));
    ASSERT_TRUE(
        db_.SetAttribute(gi2_, "subject", Value::String("Giving a party")).ok());
    for (const char* s :
         {"o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9"}) {
      ASSERT_TRUE(db_.AddEntityToInterval(gi2_, *db_.Resolve(s)).ok());
    }
    ASSERT_TRUE(db_.SetAttribute(gi2_, "host",
                                 Value::Set({Value::Oid(*db_.Resolve("o2")),
                                             Value::Oid(*db_.Resolve("o3"))}))
                    .ok());
    ASSERT_TRUE(db_.SetAttribute(gi2_, "guest",
                                 Value::Set({Value::Oid(*db_.Resolve("o5")),
                                             Value::Oid(*db_.Resolve("o6")),
                                             Value::Oid(*db_.Resolve("o7")),
                                             Value::Oid(*db_.Resolve("o8")),
                                             Value::Oid(*db_.Resolve("o9"))}))
                    .ok());

    // in(o1, o4, gi1) and in(o1, o4, gi2): David is in the chest.
    for (ObjectId gi : {gi1_, gi2_}) {
      ASSERT_TRUE(db_.AssertFact("in", {Value::Oid(*db_.Resolve("o1")),
                                        Value::Oid(*db_.Resolve("o4")),
                                        Value::Oid(gi)})
                      .ok());
    }
  }

  VideoDatabase db_;
  ObjectId gi1_, gi2_;
};

TEST_F(RopeDatabaseTest, SevenTupleShape) {
  EXPECT_EQ(db_.Entities().size(), 9u);        // O
  EXPECT_EQ(db_.BaseIntervals().size(), 2u);   // I
  EXPECT_EQ(db_.fact_count(), 2u);             // R
  EXPECT_TRUE(db_.Validate().ok());
}

TEST_F(RopeDatabaseTest, Lambda1OfGi1) {
  auto entities = db_.EntitiesOf(gi1_);
  ASSERT_TRUE(entities.ok());
  EXPECT_EQ(entities->size(), 4u);
}

TEST_F(RopeDatabaseTest, Lambda1OfGi2) {
  EXPECT_EQ(db_.EntitiesOf(gi2_)->size(), 9u);
}

TEST_F(RopeDatabaseTest, Lambda2DurationsAreOpenIntervals) {
  IntervalSet d1 = *db_.DurationOf(gi1_);
  EXPECT_FALSE(d1.Contains(0));   // strict bound t > a1
  EXPECT_TRUE(d1.Contains(5));
  EXPECT_FALSE(d1.Contains(10));  // strict bound t < b1
  IntervalSet d2 = *db_.DurationOf(gi2_);
  EXPECT_TRUE(d2.Contains(20));
  // a1 < b1 < a2 < b2: the two scenes are disjoint in time.
  EXPECT_TRUE(d1.Intersect(d2).IsEmpty());
}

TEST_F(RopeDatabaseTest, RoleFillersMatchPaper) {
  EXPECT_EQ(db_.GetAttribute(*db_.Resolve("o1"), "role")->string_value(),
            "Victim");
  EXPECT_EQ(db_.GetAttribute(*db_.Resolve("o2"), "role")->string_value(),
            "Murderer");
  EXPECT_EQ(db_.GetAttribute(*db_.Resolve("o3"), "role")->string_value(),
            "Murderer");
}

TEST_F(RopeDatabaseTest, MultiValuedAttributes) {
  // host and murderer are set-valued, as in [1]'s give-party example.
  Value murderer = *db_.GetAttribute(gi1_, "murderer");
  ASSERT_TRUE(murderer.is_set());
  EXPECT_TRUE(*murderer.SetContains(Value::Oid(*db_.Resolve("o2"))));
  EXPECT_TRUE(*murderer.SetContains(Value::Oid(*db_.Resolve("o3"))));
  Value guest = *db_.GetAttribute(gi2_, "guest");
  EXPECT_EQ(guest.set_elements().size(), 5u);
}

TEST_F(RopeDatabaseTest, InRelationHoldsInBothScenes) {
  ObjectId o1 = *db_.Resolve("o1");
  ObjectId o4 = *db_.Resolve("o4");
  EXPECT_TRUE(db_.HasFact(
      Fact{"in", {Value::Oid(o1), Value::Oid(o4), Value::Oid(gi1_)}}));
  EXPECT_TRUE(db_.HasFact(
      Fact{"in", {Value::Oid(o1), Value::Oid(o4), Value::Oid(gi2_)}}));
  EXPECT_EQ(db_.Relation("in").rows(), 2u);
}

TEST_F(RopeDatabaseTest, AttributeIndexFindsMurderers) {
  auto murderers = db_.FindByAttribute("role", Value::String("Murderer"));
  EXPECT_EQ(murderers.size(), 2u);
}

TEST_F(RopeDatabaseTest, TemporalIndexSeparatesScenes) {
  EXPECT_EQ(db_.IntervalsContaining(5), (std::vector<ObjectId>{gi1_}));
  EXPECT_EQ(db_.IntervalsContaining(20), (std::vector<ObjectId>{gi2_}));
  EXPECT_TRUE(db_.IntervalsContaining(12).empty());
}

TEST_F(RopeDatabaseTest, InvertedIndexTracesDavid) {
  ObjectId o1 = *db_.Resolve("o1");
  EXPECT_EQ(db_.IntervalsWithEntity(o1).size(), 2u);
  ObjectId o9 = *db_.Resolve("o9");
  EXPECT_EQ(db_.IntervalsWithEntity(o9), (std::vector<ObjectId>{gi2_}));
}

TEST_F(RopeDatabaseTest, ConcatenationOfScenesIsWholeCrimeArc) {
  ObjectId arc = *db_.Concatenate(gi1_, gi2_);
  IntervalSet duration = *db_.DurationOf(arc);
  EXPECT_TRUE(duration.Contains(5));
  EXPECT_TRUE(duration.Contains(20));
  EXPECT_FALSE(duration.Contains(12));
  EXPECT_EQ(db_.EntitiesOf(arc)->size(), 9u);
  // subject becomes the set of both subjects.
  Value subject = *db_.GetAttribute(arc, "subject");
  EXPECT_EQ(subject, Value::Set({Value::String("Giving a party"),
                                 Value::String("murder")}));
}

}  // namespace
}  // namespace vqldb
