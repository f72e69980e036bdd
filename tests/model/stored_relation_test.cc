// StoredRelation, the database's id-encoded storage of record: membership
// dedups, postings are exact per column, bound matches walk the most
// selective column and come back in assertion order, and the database's
// facts live there and nowhere else.

#include "src/model/stored_relation.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/model/database.h"
#include "src/model/term_dict.h"

namespace vqldb {
namespace {

constexpr uint64_t kCol0 = 1;
constexpr uint64_t kCol1 = 2;

TEST(StoredRelationTest, InsertDedupsAndCounts) {
  StoredRelation rel(2);
  const uint32_t a[] = {7, 8};
  const uint32_t b[] = {7, 9};
  EXPECT_TRUE(rel.Insert(a));
  EXPECT_FALSE(rel.Insert(a));
  EXPECT_TRUE(rel.Insert(b));
  EXPECT_EQ(rel.rows(), 2u);
  EXPECT_TRUE(rel.Contains(a));
  EXPECT_TRUE(rel.Contains(b));
  const uint32_t c[] = {8, 7};
  EXPECT_FALSE(rel.Contains(c));
  std::vector<uint32_t> out;
  const uint32_t key[] = {7, 9};
  EXPECT_EQ(rel.Match(kCol0, key, &out), 2u);
  EXPECT_EQ(rel.Match(kCol1, key, &out), 1u);
  const uint32_t unstored[] = {kNoTermId, 7};
  EXPECT_EQ(rel.Match(kCol0, unstored, &out), 0u);
  EXPECT_EQ(rel.Match(kCol1, unstored, &out), 0u);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 1}));
  EXPECT_EQ(rel.Distinct(0), 1u);
  EXPECT_EQ(rel.Distinct(1), 2u);
}

TEST(StoredRelationTest, MatchFiltersBoundColumnsInAssertionOrder) {
  StoredRelation rel(2);
  // Column 0 cycles through 10 ids, column 1 through 3: 30 distinct rows.
  for (uint32_t r = 0; r < 30; ++r) {
    const uint32_t row[] = {r % 10, 100 + r % 3};
    ASSERT_TRUE(rel.Insert(row));
  }
  std::vector<uint32_t> out;
  const uint32_t key[] = {4, 101};
  // Column 0 (3 rows for id 4) is walked, column 1 filtered on ids.
  EXPECT_EQ(rel.Match(kCol0 | kCol1, key, &out), 3u);
  EXPECT_EQ(out, (std::vector<uint32_t>{4}));
  out.clear();
  rel.Match(kCol0, key, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{4, 14, 24}));
  out.clear();
  rel.Match(kCol1, key, &out);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);
  out.clear();
  const uint32_t miss[] = {4, 555};
  EXPECT_EQ(rel.Match(kCol0 | kCol1, miss, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rel.Match(0, key, &out), 30u);
  EXPECT_EQ(out.size(), 30u);
}

TEST(StoredRelationTest, PostingsSurviveGrowth) {
  StoredRelation rel(1);
  for (uint32_t r = 0; r < 5000; ++r) {
    const uint32_t row[] = {r};
    ASSERT_TRUE(rel.Insert(row));
  }
  EXPECT_EQ(rel.Distinct(0), 5000u);
  for (uint32_t r = 0; r < 5000; r += 499) {
    const uint32_t row[] = {r};
    EXPECT_TRUE(rel.Contains(row));
    std::vector<uint32_t> out;
    EXPECT_EQ(rel.Match(kCol0, row, &out), 1u);
    EXPECT_EQ(out, (std::vector<uint32_t>{r}));
  }
}

TEST(StoredRelationTest, NullaryRelationHoldsOneRow) {
  StoredRelation rel(0);
  EXPECT_TRUE(rel.Insert(nullptr));
  EXPECT_FALSE(rel.Insert(nullptr));
  EXPECT_EQ(rel.rows(), 1u);
  EXPECT_TRUE(rel.Contains(nullptr));
}

TEST(StoredRelationTest, DatabaseStoresFactsAsIdRows) {
  VideoDatabase db;
  ObjectId a = *db.CreateEntity("a");
  ObjectId b = *db.CreateEntity("b");
  ASSERT_TRUE(db.AssertFact("likes", {Value::Oid(a), Value::Oid(b)}).ok());
  ASSERT_TRUE(db.AssertFact("likes", {Value::Oid(b), Value::Oid(a)}).ok());
  ASSERT_TRUE(db.AssertFact("likes", {Value::Oid(a), Value::Oid(b)}).ok());
  EXPECT_TRUE(db.AssertFact("likes", {Value::Oid(a)}).IsInvalidArgument());
  const StoredRelation& likes = db.Relation("likes");
  ASSERT_EQ(likes.rows(), 2u);
  EXPECT_EQ(db.fact_count(), 2u);
  TermDict& dict = TermDict::Global();
  EXPECT_EQ(likes.row(0)[0], dict.IdOf(Value::Oid(a)));
  EXPECT_EQ(likes.ArgsAt(1), (std::vector<Value>{Value::Oid(b), Value::Oid(a)}));
  EXPECT_EQ(likes.Distinct(0), 2u);
  EXPECT_EQ(db.Relation("unknown").rows(), 0u);
  EXPECT_FALSE(db.HasFact(Fact{"likes", {Value::Oid(a), Value::Oid(a)}}));
  EXPECT_FALSE(db.HasFact(Fact{"likes", {Value::Oid(a)}}));
}

}  // namespace
}  // namespace vqldb
