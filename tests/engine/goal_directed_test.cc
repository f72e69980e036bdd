// Goal-directed evaluation: the magic strategy evaluates only the goal's
// dependency cone (a free goal's rewrite degenerates to exactly that cone)
// — same answers as the forced full fixpoint, fewer rules fired.

#include <gtest/gtest.h>

#include "src/engine/magic.h"
#include "src/engine/query.h"

namespace vqldb {
namespace {

class GoalDirectedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    ASSERT_TRUE(session_->Load(R"(
      object a {}.
      object b {}.
      object c {}.
      edge(a, b).
      edge(b, c).

      // Cone of `reach`.
      reach(X, Y) <- edge(X, Y).
      reach(X, Z) <- reach(X, Y), edge(Y, Z).

      // Expensive unrelated cone (cross product chains).
      noise0(X, Y) <- edge(X, Y).
      noise1(X, Y) <- noise0(X, Z), noise0(W, Y).
      noise2(X, Y) <- noise1(X, Z), noise1(W, Y).

      // A cone that depends on reach.
      sym(X, Y) <- reach(Y, X).
    )")
                    .ok());
    session_->set_cache_enabled(false);
  }

  Result<QueryResult> Directed(const char* query_text) {
    session_->mutable_options()->strategy = EvalStrategy::kMagic;
    return session_->Query(query_text);
  }

  Result<QueryResult> Full(const char* query_text) {
    session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
    return session_->Query(query_text);
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(GoalDirectedTest, SameAnswersAsFullMaterialization) {
  auto full = Full("?- reach(X, Y).");
  ASSERT_TRUE(full.ok());
  auto directed = Directed("?- reach(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(full->rows, directed->rows);
  EXPECT_EQ(full->columns, directed->columns);
}

TEST_F(GoalDirectedTest, PrunesUnrelatedCones) {
  auto relevant = DependencyCone("reach", session_->rules());
  // Only the two reach rules (edge facts live in the EDB).
  EXPECT_EQ(relevant.size(), 2u);
  for (const Rule& rule : relevant) {
    EXPECT_EQ(rule.head.predicate, "reach");
  }
  auto directed = Directed("?- reach(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "magic");
  size_t directed_firings = session_->last_stats().rule_firings;
  auto full = Full("?- reach(X, Y).");
  ASSERT_TRUE(full.ok());
  size_t full_firings = session_->last_stats().rule_firings;
  EXPECT_LT(directed_firings, full_firings);
}

TEST_F(GoalDirectedTest, TransitiveConeIncluded) {
  auto relevant = DependencyCone("sym", session_->rules());
  // sym depends on reach: 1 + 2 rules.
  EXPECT_EQ(relevant.size(), 3u);
  auto directed = Directed("?- sym(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(directed->rows.size(), 3u);  // ba, ca, cb
}

TEST_F(GoalDirectedTest, EdbGoalNeedsNoRules) {
  auto relevant = DependencyCone("edge", session_->rules());
  EXPECT_TRUE(relevant.empty());
  auto directed = Directed("?- edge(X, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(directed->rows.size(), 2u);
}

TEST_F(GoalDirectedTest, ConstantFiltersStillApply) {
  ObjectId a = *db_.Resolve("a");
  auto directed = Directed("?- reach(a, Y).");
  ASSERT_TRUE(directed.ok());
  EXPECT_EQ(directed->rows.size(), 2u);  // b and c
  for (const auto& row : directed->rows) {
    EXPECT_NE(row[0].oid_value(), a);
  }
}

TEST_F(GoalDirectedTest, UnknownPredicateYieldsEmpty) {
  auto directed = Directed("?- nothing(X).");
  ASSERT_TRUE(directed.ok());
  EXPECT_TRUE(directed->rows.empty());
}

}  // namespace
}  // namespace vqldb
