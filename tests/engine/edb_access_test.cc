// QSQR reads the EDB in place: stored relations are probed through the
// database's postings instead of being copied into the memo, and an unbound
// `Interval(G)` step whose rule checks `X in G.entities` with X bound
// enumerates the entity index instead of every interval. These tests pin
// the consequences: bound-goal work depends on the entity's intervals, not
// on the archive size; the membership pushdown never changes answers; the
// memo holds no stored rows; read-only goals never grow the term
// dictionary; and QSQR publishes its work to the vqldb_eval_* counters.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/engine/magic.h"
#include "src/engine/qsqr.h"
#include "src/engine/query.h"
#include "src/lang/parser.h"
#include "src/model/term_dict.h"
#include "src/obs/metrics.h"
#include "src/storage/catalog.h"

namespace vqldb {
namespace {

// An archive of `num_intervals` scenes over 20 actors a0..a19. a0 and a1
// appear together in exactly the first five scenes; every other scene
// holds two of a2..a19. a19 appears nowhere.
std::string Archive(int num_intervals) {
  std::string text;
  for (int a = 0; a < 20; ++a) {
    text += "object a" + std::to_string(a) + " {}.\n";
  }
  for (int s = 0; s < num_intervals; ++s) {
    std::string cast = "a0, a1";
    if (s >= 5) {
      cast = "a";
      cast += std::to_string(2 + s % 17);
      cast += ", a";
      cast += std::to_string(2 + (s / 17) % 17);
    }
    text += "interval sc" + std::to_string(s) + " { duration: (t >= " +
            std::to_string(s * 10) + " and t <= " + std::to_string(s * 10 + 9) +
            "), entities: {" + cast + "} }.\n";
  }
  return text;
}

class EdbAccessTest : public ::testing::Test {
 protected:
  // Loads `program` plus the standard rule library into a fresh session.
  void Open(const std::string& program) {
    db_ = std::make_unique<VideoDatabase>();
    session_ = std::make_unique<QuerySession>(db_.get());
    session_->set_cache_enabled(false);
    ASSERT_TRUE(session_->Load(program).ok());
    ASSERT_TRUE(session_->Load(StandardRuleLibrary()).ok());
  }

  Result<QueryResult> Run(const std::string& goal, EvalStrategy strategy) {
    session_->mutable_options()->strategy = strategy;
    session_->Invalidate();
    return session_->Query(goal);
  }

  // The goal's QSQR answer, checked against the forced full fixpoint.
  QueryResult QsqrMatchesFixpoint(const std::string& goal) {
    auto qsqr = Run(goal, EvalStrategy::kQsqr);
    EXPECT_TRUE(qsqr.ok()) << goal << ": " << qsqr.status();
    EXPECT_EQ(session_->last_exec_info().strategy, "qsqr") << goal;
    auto full = Run(goal, EvalStrategy::kFixpoint);
    EXPECT_TRUE(full.ok()) << goal << ": " << full.status();
    if (!qsqr.ok() || !full.ok()) return {};
    EXPECT_EQ(qsqr->ToString(db_.get()), full->ToString(db_.get())) << goal;
    return *qsqr;
  }

  std::unique_ptr<VideoDatabase> db_;
  std::unique_ptr<QuerySession> session_;
};

TEST_F(EdbAccessTest, BoundMembershipWorkIsIndependentOfArchiveSize) {
  struct Work {
    size_t rows, checks, probes;
  };
  auto measure = [&](int num_intervals, const std::string& goal) {
    Open(Archive(num_intervals));
    auto result = Run(goal, EvalStrategy::kQsqr);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
    const EvalStats& stats = session_->last_stats();
    return Work{result.ok() ? result->rows.size() : 0,
                stats.constraint_checks, stats.join_probes};
  };
  for (const std::string goal : {"?- appears(a0, G).",
                                 "?- cooccur(a0, a1, G)."}) {
    Work small = measure(100, goal);
    Work large = measure(10000, goal);
    EXPECT_EQ(small.rows, 5u) << goal;
    EXPECT_EQ(large.rows, 5u) << goal;
    EXPECT_EQ(small.checks, large.checks) << goal;
    EXPECT_EQ(small.probes, large.probes) << goal;
    // Per scene of a0, at most the rule's three constraints, in each of
    // the two passes (the second proves quiescence).
    EXPECT_LE(large.checks, 2u * 3u * 5u) << goal;
  }
}

TEST_F(EdbAccessTest, PushdownAnswersEqualFixpoint) {
  Open(Archive(60) +
       "label(\"a0\"). label(a0).\n"
       "named_in(N, G) <- label(N), Interval(G), N in G.entities.\n"
       "a0_in(G) <- Interval(G), a0 in G.entities.\n");
  EXPECT_EQ(QsqrMatchesFixpoint("?- appears(a0, G).").rows.size(), 5u);
  EXPECT_EQ(QsqrMatchesFixpoint("?- a0_in(G).").rows.size(), 5u);
  EXPECT_EQ(QsqrMatchesFixpoint("?- cooccur(a0, O, G).").rows.size(), 5u);
  // The bound value is not an oid: the full domain is enumerated and the
  // membership check rejects every scene.
  EXPECT_TRUE(QsqrMatchesFixpoint("?- appears(5, G).").rows.empty());
  EXPECT_EQ(QsqrMatchesFixpoint("?- named_in(N, G).").rows.size(), 5u);
  // The entity has no intervals.
  EXPECT_TRUE(QsqrMatchesFixpoint("?- appears(a19, G).").rows.empty());
  EXPECT_TRUE(QsqrMatchesFixpoint("?- cooccur(a19, O, G).").rows.empty());
}

TEST_F(EdbAccessTest, PushdownFollowsOverwrittenEntities) {
  Open(Archive(60));
  ObjectId sc0 = *db_->Resolve("sc0");
  ObjectId sc9 = *db_->Resolve("sc9");
  ObjectId a0 = *db_->Resolve("a0");
  ObjectId a19 = *db_->Resolve("a19");
  ASSERT_TRUE(
      db_->SetAttribute(sc0, kAttrEntities, Value::Set({Value::Oid(a19)}))
          .ok());
  ASSERT_TRUE(db_->AddEntityToInterval(sc9, a0).ok());
  session_->Invalidate();
  QueryResult a0_scenes = QsqrMatchesFixpoint("?- appears(a0, G).");
  std::set<std::string> names;
  for (const auto& row : a0_scenes.rows) {
    names.insert(db_->DisplayName(row[0].oid_value()));
  }
  EXPECT_EQ(names, (std::set<std::string>{"sc1", "sc2", "sc3", "sc4", "sc9"}));
  EXPECT_EQ(QsqrMatchesFixpoint("?- appears(a19, G).").rows.size(), 1u);
  EXPECT_EQ(QsqrMatchesFixpoint("?- cooccur(a0, a1, G).").rows.size(), 4u);
}

TEST_F(EdbAccessTest, StoredAndDerivedRowsOfOneRelationAnswerOnce) {
  // later/2 is both derived and stored: probes read stored rows in place,
  // and a derived fact the database already holds is not added again.
  Open(Archive(20) +
       "next(sc0, sc1). next(sc1, sc2). next(sc2, sc3).\n"
       "later(sc1, sc2). later(sc5, sc6). later(sc6, sc7).\n"
       "later(G1, G2) <- next(G1, G2).\n"
       "later(G1, G3) <- next(G1, G2), later(G2, G3).\n"
       "later(G1, G3) <- later(G1, G2), later(G2, G3).\n");
  EXPECT_EQ(QsqrMatchesFixpoint("?- later(sc0, G).").rows.size(), 3u);
  EXPECT_EQ(QsqrMatchesFixpoint("?- later(sc5, G).").rows.size(), 2u);
  EXPECT_EQ(QsqrMatchesFixpoint("?- later(G, sc2).").rows.size(), 2u);
  QsqrMatchesFixpoint("?- later(G1, G2).");
}

TEST_F(EdbAccessTest, MemoHoldsNoStoredRows) {
  Open(Archive(20) +
       "next(sc0, sc1). next(sc1, sc2). next(sc2, sc3). next(sc7, sc8).\n"
       "later(G1, G2) <- next(G1, G2).\n"
       "later(G1, G3) <- next(G1, G2), later(G2, G3).\n");
  auto run = [&](const std::string& text) {
    auto query = Parser::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status();
    const std::vector<Rule>& rules = session_->rules();
    std::vector<Rule> cone = DependencyCone(query->goal.predicate, rules);
    EXPECT_EQ(GoalDirectedEligibility(query->goal, cone, rules,
                                      session_->options()),
              "");
    auto result =
        QsqrEvaluator::Run(*query, cone, *db_, session_->options());
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  // A derived goal: only its own derived rows, never the next/2 rows it
  // joined.
  QsqrResult later = run("?- later(sc0, G).");
  EXPECT_EQ(later.memo.Predicates(), (std::vector<std::string>{"later"}));
  EXPECT_EQ(later.memo.CountFor("later"), 6u);  // sc0..sc2 each reach on
  // A stored goal: exactly its answer rows.
  QsqrResult next = run("?- next(sc1, G).");
  EXPECT_EQ(next.memo.Predicates(), (std::vector<std::string>{"next"}));
  EXPECT_EQ(next.memo.CountFor("next"), 1u);
  QsqrResult appears = run("?- appears(a0, G).");
  EXPECT_EQ(appears.memo.Predicates(), (std::vector<std::string>{"appears"}));
}

TEST_F(EdbAccessTest, ReadOnlyGoalsNeverGrowTheDictionary) {
  std::string program = Archive(20) +
                        "speaks(a0, sc0). speaks(a1, sc1). next(sc0, sc1).\n"
                        "later(G1, G2) <- next(G1, G2).\n"
                        "later(G1, G3) <- next(G1, G2), later(G2, G3).\n";
  Open(program);
  session_->mutable_options()->strategy = EvalStrategy::kAuto;
  session_->set_cache_enabled(true);
  // Warm up once per goal shape (rule compilation, planner state).
  ASSERT_TRUE(session_->Query("?- speaks(O, 900000).").ok());
  ASSERT_TRUE(session_->Query("?- later(900000, G).").ok());
  const size_t before = TermDict::Global().size();
  for (int i = 1; i <= 5000; ++i) {
    auto stored = session_->Query("?- speaks(O, " + std::to_string(900000 + i) +
                                  ").");
    ASSERT_TRUE(stored.ok()) << stored.status();
    EXPECT_TRUE(stored->rows.empty());
    auto derived = session_->Query("?- later(\"scene-" +
                                   std::to_string(i) + "\", G).");
    ASSERT_TRUE(derived.ok()) << derived.status();
    EXPECT_TRUE(derived->rows.empty());
  }
  EXPECT_EQ(session_->last_exec_info().strategy, "qsqr");
  EXPECT_EQ(TermDict::Global().size(), before);
}

TEST_F(EdbAccessTest, QsqrPublishesItsStatsToMetrics) {
  Open(Archive(30) + "next(sc0, sc1). next(sc1, sc2).\n"
                     "later(G1, G2) <- next(G1, G2).\n"
                     "later(G1, G3) <- next(G1, G2), later(G2, G3).\n");
  auto& registry = obs::MetricsRegistry::Global();
  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };
  const char* kNames[] = {
      "vqldb_eval_fixpoints_total",        "vqldb_eval_rounds_total",
      "vqldb_eval_rule_firings_total",     "vqldb_eval_derived_facts_total",
      "vqldb_eval_constraint_checks_total", "vqldb_eval_join_probes_total",
      "vqldb_eval_join_probe_hits_total",  "vqldb_eval_hash_join_probes_total",
      "vqldb_eval_merge_join_probes_total"};
  for (const std::string goal : {"?- later(sc0, G).", "?- appears(a0, G)."}) {
    std::vector<uint64_t> before;
    for (const char* name : kNames) before.push_back(counter(name));
    auto result = Run(goal, EvalStrategy::kQsqr);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(session_->last_exec_info().strategy, "qsqr");
    const EvalStats& s = session_->last_stats();
    const uint64_t expected[] = {1,
                                 s.iterations,
                                 s.rule_firings,
                                 s.derived_facts,
                                 s.constraint_checks,
                                 s.join_probes,
                                 s.join_probe_hits,
                                 s.hash_join_probes,
                                 s.merge_join_probes};
    for (size_t i = 0; i < std::size(kNames); ++i) {
      EXPECT_EQ(counter(kNames[i]) - before[i], expected[i])
          << goal << " " << kNames[i];
    }
    EXPECT_GT(s.rule_firings, 0u) << goal;
  }
}

}  // namespace
}  // namespace vqldb
