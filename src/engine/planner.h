// Cardinality-based cost model over StatsCollector snapshots: picks the
// execution strategy (QSQR vs. magic-set rewrite vs. full fixpoint) per
// query and orders rule body literals by estimated selectivity (replacing
// the stats-blind bound-first greedy when EvalOptions::reorder_body is on).
//
// Estimates come from three sources, in preference order:
//   1. stored EDB row counts and per-column distinct counts, read from the
//      database's postings (VideoDatabase::Relation — exact);
//   2. per-column HyperLogLog distinct sketches of derived relations and
//      per-(predicate, adornment) selectivity EWMAs from the statistics
//      collector (derived relations appear once a fixpoint observed them);
//   3. fixed defaults when nothing has been observed yet (cold start).
// The cost formulas are deliberately coarse — their job is to separate
// "touch a handful of rows through a bound goal" from "derive the whole
// IDB", not to rank near-ties; the bench_planner gate only requires auto to
// sit within 5% of the per-query best on a mixed workload.

#ifndef VQLDB_ENGINE_PLANNER_H_
#define VQLDB_ENGINE_PLANNER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/evaluator.h"
#include "src/engine/rule_compiler.h"
#include "src/lang/ast.h"
#include "src/model/database.h"
#include "src/obs/stats.h"

namespace vqldb {

/// One strategy decision with its cost estimates (surfaced by EXPLAIN and
/// recorded into sys_plan_choices).
struct PlanChoice {
  EvalStrategy strategy = EvalStrategy::kFixpoint;
  double cost_qsqr = 0;
  double cost_magic = 0;
  double cost_fixpoint = 0;
  std::string reason;  // one-line justification for EXPLAIN
};

/// Everything Choose() needs to know about one query.
struct PlanInputs {
  std::string goal_predicate;
  uint64_t goal_bound_mask = 0;  // bit i set => goal argument i is a constant
  size_t goal_arity = 0;
  /// The full rule program and the goal's dependency cone within it.
  const std::vector<Rule>* all_rules = nullptr;
  const std::vector<Rule>* cone_rules = nullptr;
  /// The session already holds a materialized full fixpoint (answering from
  /// it costs only the goal-relation scan).
  bool fixpoint_cached = false;
  bool magic_available = true;
  bool qsqr_available = true;
};

class Planner : public LiteralOrderer {
 public:
  /// Captures the statistics snapshot and the database's current
  /// cardinalities (entity/interval counts; EDB row and distinct counts are
  /// read live from the stored relations' postings).
  Planner(const VideoDatabase* db, obs::StatsSnapshot snapshot);

  /// Picks the cheapest available strategy for the query. Deterministic:
  /// equal costs break toward qsqr, then magic, then fixpoint.
  PlanChoice Choose(const PlanInputs& inputs) const;

  /// LiteralOrderer: greedy minimum-estimated-candidates body order under
  /// the legality constraint (computable literals only once fully bound).
  std::vector<size_t> OrderBody(
      const std::vector<CompiledLiteral>& literals,
      const std::vector<bool>& computable) const override;

  /// Estimated rows of a relation: exact EDB count when stored, else the
  /// largest per-column distinct estimate the collector has seen for the
  /// predicate (derived relations), else kDefaultRows.
  double EstimateRows(const std::string& predicate) const;

  /// Estimated candidate rows per probe of `predicate` with the given
  /// bound-position mask: a seeded selectivity EWMA when one exists for the
  /// adornment, else rows / product of bound-column distinct counts.
  double EstimateCandidates(const std::string& predicate, uint64_t bound_mask,
                            size_t arity) const;

  static constexpr double kDefaultRows = 64;
  static constexpr double kDefaultDistinct = 8;

 private:
  double DistinctOf(const std::string& predicate, size_t column) const;
  /// Estimated cost of one naive evaluation of a rule body: product of
  /// per-literal candidate estimates under progressive binding.
  double RuleCost(const Rule& rule) const;

  const VideoDatabase* db_;
  std::map<std::pair<std::string, size_t>, double> distinct_;
  std::map<std::pair<std::string, std::string>, double> ewma_;
  double num_entities_ = 0;
  double num_intervals_ = 0;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_PLANNER_H_
