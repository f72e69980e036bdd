// The cost-based planner: cardinality estimates from stored EDB counts and
// collector sketches, strategy choice (bound goals go goal-directed, free
// goals with a cached fixpoint stay bottom-up), availability gating, and
// the sys_plan_choices accounting under EvalStrategy::kAuto.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/engine/magic.h"
#include "src/engine/planner.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"

namespace vqldb {
namespace {

std::vector<Rule> ParseRules(std::initializer_list<const char*> texts) {
  std::vector<Rule> rules;
  for (const char* text : texts) {
    auto r = Parser::ParseRule(text);
    EXPECT_TRUE(r.ok()) << r.status();
    rules.push_back(*r);
  }
  return rules;
}

// A chain c0 -> ... -> c(n-1) with edge facts.
std::unique_ptr<VideoDatabase> ChainDb(size_t n) {
  auto db = std::make_unique<VideoDatabase>();
  std::vector<ObjectId> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(*db->CreateEntity("c" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    VQLDB_CHECK_OK(db->AssertFact(
        "edge", {Value::Oid(nodes[i]), Value::Oid(nodes[i + 1])}));
  }
  return db;
}

TEST(PlannerTest, EstimateRowsUsesExactEdbCounts) {
  auto db = ChainDb(40);
  Planner planner(db.get(), obs::StatsSnapshot{});
  EXPECT_DOUBLE_EQ(planner.EstimateRows("edge"), 39.0);
  // Unknown predicate with no sketches: cold-start default.
  EXPECT_DOUBLE_EQ(planner.EstimateRows("nosuch"), Planner::kDefaultRows);
}

TEST(PlannerTest, EstimateCandidatesShrinksWithBoundColumns) {
  auto db = ChainDb(40);
  Planner planner(db.get(), obs::StatsSnapshot{});
  double all_free = planner.EstimateCandidates("edge", 0, 2);
  double bound_first = planner.EstimateCandidates("edge", 1, 2);
  EXPECT_GT(all_free, bound_first);
  EXPECT_GE(bound_first, 1.0 / 64);
}

TEST(PlannerTest, ObservedSelectivityOverridesDerivedEstimate) {
  auto db = ChainDb(10);
  obs::StatsSnapshot snapshot;
  snapshot.selectivity.push_back(obs::SelectivityView{
      "edge", "bf", /*probes=*/100, /*candidates=*/50, /*ewma=*/0.5});
  Planner planner(db.get(), std::move(snapshot));
  // 9 rows * 0.5 observed selectivity.
  EXPECT_NEAR(planner.EstimateCandidates("edge", 1, 2), 4.5, 1e-9);
}

TEST(PlannerTest, BoundGoalPrefersGoalDirected) {
  auto db = ChainDb(40);
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y).",
                           "path(X, Z) <- path(X, Y), edge(Y, Z)."});
  Planner planner(db.get(), obs::StatsSnapshot{});
  PlanInputs inputs;
  inputs.goal_predicate = "path";
  inputs.goal_bound_mask = 1;
  inputs.goal_arity = 2;
  inputs.all_rules = &rules;
  inputs.cone_rules = &rules;
  PlanChoice choice = planner.Choose(inputs);
  EXPECT_NE(choice.strategy, EvalStrategy::kFixpoint);
  EXPECT_LT(choice.cost_qsqr, choice.cost_fixpoint);
  EXPECT_NE(choice.reason.find("bound goal"), std::string::npos);
}

TEST(PlannerTest, CachedFixpointWinsForFreeGoals) {
  auto db = ChainDb(40);
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y).",
                           "path(X, Z) <- path(X, Y), edge(Y, Z)."});
  Planner planner(db.get(), obs::StatsSnapshot{});
  PlanInputs inputs;
  inputs.goal_predicate = "path";
  inputs.goal_bound_mask = 0;
  inputs.goal_arity = 2;
  inputs.all_rules = &rules;
  inputs.cone_rules = &rules;
  inputs.fixpoint_cached = true;
  PlanChoice choice = planner.Choose(inputs);
  EXPECT_EQ(choice.strategy, EvalStrategy::kFixpoint);
  EXPECT_NE(choice.reason.find("fixpoint cached"), std::string::npos);
}

TEST(PlannerTest, FreeGoalWithWholeProgramConeGoesBottomUp) {
  // No goal constants and a cone spanning every rule: demand guards and
  // top-down recursion cannot prune anything, so the planner must not pay
  // their overhead even when the coarse cost estimates would favor them.
  auto db = ChainDb(40);
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y).",
                           "path(X, Z) <- path(X, Y), edge(Y, Z)."});
  Planner planner(db.get(), obs::StatsSnapshot{});
  PlanInputs inputs;
  inputs.goal_predicate = "path";
  inputs.goal_bound_mask = 0;
  inputs.goal_arity = 2;
  inputs.all_rules = &rules;
  inputs.cone_rules = &rules;
  PlanChoice choice = planner.Choose(inputs);
  EXPECT_EQ(choice.strategy, EvalStrategy::kFixpoint);
  EXPECT_NE(choice.reason.find("nothing to prune"), std::string::npos);
}

TEST(PlannerTest, UnavailableStrategiesAreNeverChosen) {
  auto db = ChainDb(10);
  auto rules = ParseRules({"path(X, Y) <- edge(X, Y)."});
  Planner planner(db.get(), obs::StatsSnapshot{});
  PlanInputs inputs;
  inputs.goal_predicate = "path";
  inputs.goal_bound_mask = 1;
  inputs.goal_arity = 2;
  inputs.all_rules = &rules;
  inputs.cone_rules = &rules;
  inputs.magic_available = false;
  inputs.qsqr_available = false;
  PlanChoice choice = planner.Choose(inputs);
  EXPECT_EQ(choice.strategy, EvalStrategy::kFixpoint);
}

TEST(PlannerTest, AutoPicksGoalDirectedForBoundGoalEndToEnd) {
  auto db = ChainDb(60);
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  ASSERT_TRUE(session
                  .Load("path(X, Y) <- edge(X, Y).\n"
                        "path(X, Z) <- path(X, Y), edge(Y, Z).\n")
                  .ok());
  ASSERT_EQ(session.options().strategy, EvalStrategy::kAuto);
  auto bound = session.Query("?- path(c50, Y).");
  ASSERT_TRUE(bound.ok()) << bound.status();
  const QueryExecInfo& info = session.last_exec_info();
  EXPECT_TRUE(info.strategy == "qsqr" || info.strategy == "magic")
      << "auto chose " << info.strategy;
  EXPECT_FALSE(info.plan_reason.empty());
  EXPECT_EQ(bound->rows.size(), 9u);
}

TEST(PlannerTest, AutoRecordsPlanChoicesIntoSysRelation) {
  auto db = ChainDb(20);
  QuerySession session(db.get());
  session.set_cache_enabled(false);
  ASSERT_TRUE(session.Load("path(X, Y) <- edge(X, Y).\n").ok());
  obs::StatsCollector::Global().Reset();
  ASSERT_TRUE(session.Query("?- path(c3, Y).").ok());
  auto snap = obs::StatsCollector::Global().Snapshot();
  bool saw = false;
  for (const auto& pc : snap.plan_choices) {
    if (pc.fingerprint == "path(?, $0)") {
      saw = true;
      EXPECT_GE(pc.count, 1u);
      EXPECT_FALSE(pc.strategy.empty());
    }
  }
  EXPECT_TRUE(saw);
  // And the sys_plan_choices relation surfaces the same rows.
  auto rows = session.Query("?- sys_plan_choices(F, S, C, L).");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_FALSE(rows->rows.empty());
}

TEST(PlannerTest, ExplainShowsAutoChoiceWithCosts) {
  auto db = ChainDb(20);
  QuerySession session(db.get());
  ASSERT_TRUE(session.Load("path(X, Y) <- edge(X, Y).\n").ok());
  auto text = session.Explain("?- path(c3, Y).", /*analyze=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("strategy: "), std::string::npos) << *text;
  EXPECT_NE(text->find("est. cost"), std::string::npos) << *text;
  // Forcing a strategy still explains the planner's view, marked forced.
  session.mutable_options()->strategy = EvalStrategy::kFixpoint;
  auto forced = session.Explain("?- path(c3, Y).", /*analyze=*/false);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_NE(forced->find("strategy: fixpoint (forced"), std::string::npos)
      << *forced;
}

TEST(PlannerTest, OrderBodyPutsSelectiveLiteralFirst) {
  // tagged/1 has one fact, edge/2 has many: the selectivity order starts
  // from tagged even though it is written last.
  auto db = ChainDb(50);
  VQLDB_CHECK_OK(db->AssertFact("tagged", {Value::Oid(*db->Resolve("c7"))}));
  Planner planner(db.get(), obs::StatsSnapshot{});
  EvalOptions options;
  options.reorder_body = true;
  options.body_orderer = &planner;
  auto eval = Evaluator::Make(
      db.get(), ParseRules({"hit(X, Y) <- edge(X, Y), tagged(Y)."}),
      options);
  ASSERT_TRUE(eval.ok()) << eval.status();
  const CompiledRule& compiled = eval->compiled_rules()[0];
  ASSERT_EQ(compiled.steps.size(), 2u);
  EXPECT_EQ(compiled.steps[0].literal.predicate, "tagged");
  EXPECT_EQ(compiled.steps[1].literal.predicate, "edge");
  auto fp = eval->Fixpoint();
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp->FactsFor("hit").size(), 1u);
}

}  // namespace
}  // namespace vqldb
