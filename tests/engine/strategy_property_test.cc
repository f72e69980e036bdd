// Property test: for seeded random programs and every goal binding pattern,
// the three execution strategies — QSQR top-down, magic-set rewrite, and the
// full bottom-up fixpoint — produce exactly the same answer sets, serially,
// in parallel, under a (far-future) deadline, and under a memory governor.
// Three coexisting strategies is where answer-divergence bugs breed; this
// suite is the correctness bar for EvalStrategy::kAuto being free to pick
// any of them. The dispatch cases below check the other side of that
// freedom: goals that goal direction must decline are resolved, under every
// forced strategy and under auto, onto an engine that can run them — and
// EXPLAIN names the engine Run() executes.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/database.h"

namespace vqldb {
namespace {

struct Scenario {
  std::unique_ptr<VideoDatabase> db;
  std::vector<Rule> rules;
  size_t entity_count = 0;
};

// Random positive programs over two EDB relations e/2 and f/2 and two IDB
// predicates d0/2 and d1/2 (the same fragment the magic-set property suite
// uses: joins, recursion, mutual recursion, Object(), (dis)equality).
Scenario RandomScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.db = std::make_unique<VideoDatabase>();
  size_t n = 3 + rng.UniformU64(4);
  s.entity_count = n;
  std::vector<ObjectId> entities;
  for (size_t i = 0; i < n; ++i) {
    entities.push_back(*s.db->CreateEntity("c" + std::to_string(i)));
  }
  for (size_t i = 0; i < 2 * n; ++i) {
    VQLDB_CHECK_OK(s.db->AssertFact(
        rng.Bernoulli(0.5) ? "e" : "f",
        {Value::Oid(entities[rng.UniformU64(n)]),
         Value::Oid(entities[rng.UniformU64(n)])}));
  }

  const char* templates[] = {
      "d0(X, Y) <- e(X, Y).",
      "d0(X, Y) <- f(Y, X).",
      "d0(X, Z) <- d0(X, Y), e(Y, Z).",
      "d1(X, Y) <- e(X, Y), f(X, Y).",
      "d1(X, Y) <- d0(X, Y), X != Y.",
      "d0(X, Y) <- d1(X, Y), d1(Y, X).",
      "d1(X, X) <- e(X, Y), Object(X).",
      "d0(X, Y) <- d1(X, Z), f(Z, Y).",
  };
  size_t num_rules = 2 + rng.UniformU64(5);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = Parser::ParseRule(templates[rng.UniformU64(8)]);
    VQLDB_CHECK(rule.ok());
    s.rules.push_back(*rule);
  }
  return s;
}

// Every goal shape per scenario: both IDB predicates under all four binding
// patterns plus a repeated-variable goal.
std::vector<std::string> GoalsFor(const Scenario& s, uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  auto c = [&] { return "c" + std::to_string(rng.UniformU64(s.entity_count)); };
  std::vector<std::string> goals;
  for (const char* pred : {"d0", "d1"}) {
    std::string p(pred);
    goals.push_back("?- " + p + "(" + c() + ", Y).");
    goals.push_back("?- " + p + "(X, " + c() + ").");
    goals.push_back("?- " + p + "(" + c() + ", " + c() + ").");
    goals.push_back("?- " + p + "(X, Y).");
    goals.push_back("?- " + p + "(X, X).");
  }
  return goals;
}

// The strategy EXPLAIN names on its "strategy: <name> (...)" line.
std::string ExplainedStrategy(QuerySession* session, const std::string& goal) {
  auto text = session->Explain(goal, /*analyze=*/false);
  if (!text.ok()) return "error: " + text.status().ToString();
  const std::string tag = "strategy: ";
  size_t at = text->find(tag);
  if (at == std::string::npos) return "no strategy line";
  at += tag.size();
  return text->substr(at, text->find(' ', at) - at);
}

void CheckEquivalence(uint64_t seed, size_t num_threads, bool with_deadline,
                      bool governed) {
  Scenario s = RandomScenario(seed);
  EvalOptions options;
  options.num_threads = num_threads;
  if (with_deadline) {
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(10);
  }
  QuerySession session(s.db.get(), options);
  session.set_cache_enabled(false);
  if (governed) session.EnableMemoryGovernor(256ull << 20);
  for (const Rule& rule : s.rules) ASSERT_TRUE(session.AddRule(rule).ok());

  for (const std::string& goal : GoalsFor(s, seed)) {
    // Baseline: the full bottom-up fixpoint, no goal direction.
    session.mutable_options()->strategy = EvalStrategy::kFixpoint;
    session.Invalidate();
    auto full = session.Query(goal);
    ASSERT_TRUE(full.ok()) << "seed " << seed << " goal " << goal << ": "
                           << full.status();

    session.mutable_options()->strategy = EvalStrategy::kQsqr;
    auto qsqr = session.Query(goal);
    ASSERT_TRUE(qsqr.ok()) << "seed " << seed << " goal " << goal << ": "
                           << qsqr.status();
    // This fragment has no decline condition: QSQR must actually run.
    EXPECT_EQ(session.last_exec_info().strategy, "qsqr")
        << "seed " << seed << " goal " << goal << " resolved away: "
        << session.last_exec_info().decline_reason;
    EXPECT_EQ(qsqr->rows, full->rows) << "seed " << seed << " goal " << goal;
    EXPECT_EQ(qsqr->columns, full->columns)
        << "seed " << seed << " goal " << goal;

    session.mutable_options()->strategy = EvalStrategy::kMagic;
    auto magic = session.Query(goal);
    ASSERT_TRUE(magic.ok()) << "seed " << seed << " goal " << goal << ": "
                            << magic.status();
    EXPECT_EQ(session.last_exec_info().strategy, "magic")
        << "seed " << seed << " goal " << goal;
    EXPECT_EQ(magic->rows, full->rows) << "seed " << seed << " goal " << goal;
    EXPECT_EQ(magic->columns, full->columns)
        << "seed " << seed << " goal " << goal;

    // Auto may pick any of the three; whatever it picks must agree too.
    // EXPLAIN runs the same plan stage against the same session state, so
    // it must name the strategy the following Run() executes.
    session.mutable_options()->strategy = EvalStrategy::kAuto;
    const std::string explained = ExplainedStrategy(&session, goal);
    auto automatic = session.Query(goal);
    ASSERT_TRUE(automatic.ok()) << "seed " << seed << " goal " << goal << ": "
                                << automatic.status();
    EXPECT_EQ(automatic->rows, full->rows)
        << "seed " << seed << " goal " << goal << " (auto chose "
        << session.last_exec_info().strategy << ")";
    EXPECT_EQ(explained, session.last_exec_info().strategy)
        << "seed " << seed << " goal " << goal;
  }
}

class StrategyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyEquivalenceTest, SerialAnswersAgree) {
  CheckEquivalence(GetParam(), /*num_threads=*/1, /*with_deadline=*/false,
                   /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, ParallelAnswersAgree) {
  CheckEquivalence(GetParam() + 5000, /*num_threads=*/8,
                   /*with_deadline=*/false, /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, DeadlinedAnswersAgree) {
  CheckEquivalence(GetParam() + 9000, /*num_threads=*/(GetParam() % 2) ? 8 : 1,
                   /*with_deadline=*/true, /*governed=*/false);
}

TEST_P(StrategyEquivalenceTest, GovernedAnswersAgree) {
  CheckEquivalence(GetParam() + 13000, /*num_threads=*/1,
                   /*with_deadline=*/false, /*governed=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

// A goal that goal direction must decline. `sys` goals observe sys_*
// relations: QSQR cannot seed them, the magic rewrite can.
struct DeclineCase {
  const char* name;
  std::string program;
  const char* goal;
  bool extended_active_domain;
  bool sys;
};

const char kChain[] =
    "object c0 {}. object c1 {}. object c2 {}.\n"
    "edge(c0, c1). edge(c1, c2).\n"
    "path(X, Y) <- edge(X, Y).\n"
    "path(X, Z) <- path(X, Y), edge(Y, Z).\n";

std::vector<DeclineCase> DeclineCases() {
  return {
      {"constructive cone",
       "interval gi1 { duration: (t > 0 and t < 5) }.\n"
       "interval gi2 { duration: (t > 5 and t < 9) }.\n"
       "seg(gi1). seg(gi2).\n"
       "combo(G1 ++ G2) <- seg(G1), seg(G2).\n",
       "?- combo(G).", false, false},
      {"builtin-class goal", kChain, "?- Object(X).", false, false},
      {"sys_ goal", kChain, "?- sys_relations(P, A, R, B, S).", false, true},
      {"sys_ relation in the cone",
       std::string(kChain) + "big(P) <- sys_relations(P, A, R, B, S), R > 1.\n",
       "?- big(P).", false, true},
      {"extended active domain", kChain, "?- path(c0, Y).", true, false},
  };
}

TEST(StrategyDispatchTest, DeclinedGoalsResolveAndAgree) {
  for (const DeclineCase& c : DeclineCases()) {
    VideoDatabase db;
    EvalOptions options;
    options.extended_active_domain = c.extended_active_domain;
    QuerySession session(&db, options);
    session.set_cache_enabled(false);
    ASSERT_TRUE(session.Load(c.program).ok()) << c.name;

    session.mutable_options()->strategy = EvalStrategy::kFixpoint;
    auto reference = session.Query(c.goal);
    ASSERT_TRUE(reference.ok()) << c.name << ": " << reference.status();
    ASSERT_FALSE(reference->rows.empty()) << c.name;
    EXPECT_EQ(session.last_exec_info().strategy, "fixpoint") << c.name;
    EXPECT_TRUE(session.last_exec_info().decline_reason.empty()) << c.name;

    // The one engine besides the fixpoint that can run the goal, if any.
    const std::string runnable = c.sys ? "magic" : "fixpoint";
    for (EvalStrategy strategy :
         {EvalStrategy::kQsqr, EvalStrategy::kMagic, EvalStrategy::kAuto}) {
      const std::string label =
          std::string(c.name) + " under " + EvalStrategyName(strategy);
      session.mutable_options()->strategy = strategy;
      const std::string explained = ExplainedStrategy(&session, c.goal);
      auto result = session.Query(c.goal);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status();
      const QueryExecInfo& info = session.last_exec_info();
      EXPECT_EQ(result->rows, reference->rows) << label;
      EXPECT_EQ(explained, info.strategy) << label;
      if (strategy == EvalStrategy::kAuto) {
        EXPECT_TRUE(info.strategy == runnable || info.strategy == "fixpoint")
            << label << " ran " << info.strategy;
        EXPECT_TRUE(info.decline_reason.empty()) << label;
      } else {
        EXPECT_EQ(info.strategy, runnable) << label;
        // Resolved away exactly when the forced engine did not run.
        EXPECT_EQ(info.decline_reason.empty(),
                  info.strategy == EvalStrategyName(strategy))
            << label << ": " << info.decline_reason;
      }
    }
  }
}

}  // namespace
}  // namespace vqldb
