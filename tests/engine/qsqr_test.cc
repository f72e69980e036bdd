// The QSQR top-down evaluator: answer correctness on recursive programs,
// goal-directed pruning (bound goals derive far fewer facts than the full
// fixpoint), termination on cyclic data, and how a forced qsqr resolves on
// goals that goal direction must decline.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "src/engine/magic.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

class QsqrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<QuerySession>(&db_);
    session_->mutable_options()->strategy = EvalStrategy::kQsqr;
    session_->set_cache_enabled(false);
    std::string program;
    // A 12-node edge chain c0 -> c1 -> ... -> c11 plus transitive closure
    // and a never-queried noise cone.
    for (int i = 0; i < 12; ++i) {
      program += "object c" + std::to_string(i) + " {}.\n";
    }
    for (int i = 0; i + 1 < 12; ++i) {
      program += "edge(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
                 ").\n";
    }
    program +=
        "path(X, Y) <- edge(X, Y).\n"
        "path(X, Z) <- path(X, Y), edge(Y, Z).\n"
        "noise(X, Y) <- edge(Y, X).\n";
    ASSERT_TRUE(session_->Load(program).ok());
  }

  // Why goal direction must decline the goal (empty when QSQR may run).
  std::string Decline(const std::string& query_text) {
    auto q = Parser::ParseQuery(query_text);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return "";
    const std::vector<Rule>& rules = session_->rules();
    return GoalDirectedEligibility(
        q->goal, DependencyCone(q->goal.predicate, rules), rules,
        session_->options());
  }

  VideoDatabase db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(QsqrTest, AnswersMatchFullMaterialization) {
  const char* goals[] = {
      "?- path(c0, Y).",  "?- path(c8, Y).", "?- path(X, c3).",
      "?- path(c2, c5).", "?- path(X, X).",  "?- path(X, Y).",
      "?- edge(c0, Y).",  "?- noise(X, c0).",
  };
  for (const char* goal : goals) {
    session_->mutable_options()->strategy = EvalStrategy::kQsqr;
    auto qsqr = session_->Query(goal);
    ASSERT_TRUE(qsqr.ok()) << goal << ": " << qsqr.status();
    EXPECT_EQ(session_->last_exec_info().strategy, "qsqr") << goal;
    session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
    session_->Invalidate();
    auto full = session_->Query(goal);
    ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
    EXPECT_EQ(qsqr->rows, full->rows) << goal;
    EXPECT_EQ(qsqr->columns, full->columns) << goal;
  }
}

TEST_F(QsqrTest, BoundGoalDerivesFarFewerFacts) {
  auto qsqr = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(qsqr.ok()) << qsqr.status();
  ASSERT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(session_->last_exec_info().adornment, "bf");
  size_t qsqr_derived = session_->last_stats().derived_facts;

  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  session_->Invalidate();
  auto full = session_->Query("?- path(c9, Y).");
  ASSERT_TRUE(full.ok());
  size_t full_derived = session_->last_stats().derived_facts;

  EXPECT_EQ(qsqr->rows, full->rows);
  // From c9 only two path facts are reachable; the full fixpoint derives
  // the entire transitive closure plus the noise cone.
  EXPECT_LT(qsqr_derived, full_derived / 4);
}

TEST_F(QsqrTest, TerminatesOnCyclicData) {
  // Close the chain into a cycle: naive backward chaining without the memo
  // would recurse forever on path(c0, Y).
  ASSERT_TRUE(session_->Load("edge(c11, c0).").ok());
  auto result = session_->Query("?- path(c0, Y).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(result->rows.size(), 12u);  // every node reachable from c0
}

TEST_F(QsqrTest, RepeatedVariableGoalOnCycle) {
  ASSERT_TRUE(session_->Load("edge(c11, c0).").ok());
  auto qsqr = session_->Query("?- path(X, X).");
  ASSERT_TRUE(qsqr.ok()) << qsqr.status();
  EXPECT_EQ(qsqr->rows.size(), 12u);  // every node cycles back to itself
}

TEST_F(QsqrTest, UnresolvableGoalConstantErrors) {
  auto result = session_->Query("?- path(nosuch, Y).");
  EXPECT_FALSE(result.ok());
}

TEST_F(QsqrTest, BuiltinClassGoalDeclines) {
  EXPECT_NE(Decline("?- Interval(G).").find("builtin"), std::string::npos);
  // The forced qsqr resolves to the full fixpoint and says why.
  auto result = session_->Query("?- Object(X).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 12u);
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
  EXPECT_NE(session_->last_exec_info().decline_reason.find("builtin"),
            std::string::npos);
}

TEST_F(QsqrTest, ExtendedActiveDomainDeclines) {
  session_->mutable_options()->extended_active_domain = true;
  EXPECT_NE(Decline("?- path(c0, Y).").find("extended active domain"),
            std::string::npos);
  ASSERT_TRUE(session_->Query("?- path(c0, Y).").ok());
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
}

TEST_F(QsqrTest, ConstructiveConeDeclinesAndFallbackAgrees) {
  ASSERT_TRUE(session_
                  ->Load("interval gi1 { duration: (t > 0 and t < 5) }.\n"
                         "interval gi2 { duration: (t > 5 and t < 9) }.\n"
                         "seg(gi1). seg(gi2).\n"
                         "combo(G1 ++ G2) <- seg(G1), seg(G2).\n")
                  .ok());
  EXPECT_NE(Decline("?- combo(G).").find("constructive"), std::string::npos);
  // Through the session the plan resolves to the fixpoint and answers.
  auto a = session_->Query("?- combo(G).");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "fixpoint");
  EXPECT_NE(session_->last_exec_info().decline_reason.find("constructive"),
            std::string::npos);
  session_->mutable_options()->strategy = EvalStrategy::kFixpoint;
  session_->Invalidate();
  auto b = session_->Query("?- combo(G).");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->rows, b->rows);
}

TEST_F(QsqrTest, SysGoalFallsBackToMagicPath) {
  auto result = session_->Query("?- sys_relations(P, A, R, B, S).");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(session_->last_exec_info().strategy, "magic");
  EXPECT_EQ(session_->last_exec_info().decline_reason,
            "goal observes sys_* relations");
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(QsqrTest, DeadlineIsEnforced) {
  session_->mutable_options()->deadline = std::chrono::steady_clock::now();
  auto result = session_->Query("?- path(c0, Y).");
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
}

TEST_F(QsqrTest, ExplainShowsStrategyLine) {
  auto text = session_->Explain("?- path(c0, Y).", /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("strategy: qsqr"), std::string::npos) << *text;
  EXPECT_NE(text->find("est. cost"), std::string::npos) << *text;
}

TEST_F(QsqrTest, StatsRecordQsqrAccessPath) {
  auto& collector = obs::StatsCollector::Global();
  uint64_t old_threshold = collector.slow_threshold_us();
  collector.ResetSlowLog();
  collector.set_slow_threshold_us(0);  // log every query
  ASSERT_TRUE(session_->Query("?- path(c0, Y).").ok());
  std::string log = collector.RenderSlowLogJson();
  collector.set_slow_threshold_us(old_threshold);
  collector.ResetSlowLog();
  EXPECT_NE(log.find("qsqr(bf)"), std::string::npos) << log;
}

}  // namespace
}  // namespace vqldb
