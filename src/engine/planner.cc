#include "src/engine/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace vqldb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Costs multiply per body literal; cap so pathological programs cannot
// overflow into meaningless comparisons.
constexpr double kCostCap = 1e18;

std::string FormatCost(double cost) {
  if (cost == kInf) return "inf";
  std::ostringstream os;
  if (cost >= 100 || cost == std::floor(cost)) {
    os << static_cast<long long>(std::min(cost, kCostCap));
  } else {
    os.precision(3);
    os << cost;
  }
  return os.str();
}

}  // namespace

Planner::Planner(const VideoDatabase* db, obs::StatsSnapshot snapshot)
    : db_(db) {
  for (const obs::ColumnStatView& c : snapshot.columns) {
    distinct_[{c.predicate, c.column}] = c.distinct_estimate;
  }
  for (const obs::SelectivityView& s : snapshot.selectivity) {
    ewma_[{s.predicate, s.adornment}] = s.ewma;
  }
  num_entities_ = static_cast<double>(db->Entities().size());
  num_intervals_ = static_cast<double>(db->BaseIntervals().size() +
                                       db->derived_interval_count());
}

double Planner::DistinctOf(const std::string& predicate, size_t column) const {
  const StoredRelation& stored = db_->Relation(predicate);
  if (stored.rows() > 0) {
    return static_cast<double>(
        stored.Distinct(static_cast<uint32_t>(column)));
  }
  auto it = distinct_.find({predicate, column});
  if (it != distinct_.end() && it->second >= 1) return it->second;
  return kDefaultDistinct;
}

double Planner::EstimateRows(const std::string& predicate) const {
  size_t stored = db_->Relation(predicate).rows();
  if (stored > 0) return static_cast<double>(stored);
  // Derived relations never live in the database; the column sketches have
  // seen their rows if any fixpoint materialized them while observed. The
  // widest column's distinct count lower-bounds the row count.
  double best = 0;
  for (auto it = distinct_.lower_bound({predicate, 0});
       it != distinct_.end() && it->first.first == predicate; ++it) {
    best = std::max(best, it->second);
  }
  return best >= 1 ? best : kDefaultRows;
}

double Planner::EstimateCandidates(const std::string& predicate,
                                   uint64_t bound_mask, size_t arity) const {
  double rows = EstimateRows(predicate);
  if (bound_mask == 0) return rows;
  auto it = ewma_.find({predicate, obs::AdornmentString(bound_mask, arity)});
  if (it != ewma_.end() && it->second > 0) {
    return std::max(it->second * rows, 1.0 / 64);
  }
  double reduced = rows;
  for (size_t i = 0; i < arity && i < 64; ++i) {
    if (bound_mask >> i & 1) reduced /= std::max(1.0, DistinctOf(predicate, i));
  }
  return std::max(reduced, 1.0 / 64);
}

double Planner::RuleCost(const Rule& rule) const {
  std::set<std::string> bound;
  double cost = 1;
  for (const Atom& atom : rule.body) {
    double est;
    if (atom.IsBuiltinClass()) {
      bool arg_bound = !atom.args.empty() &&
                       (atom.args[0].kind != Term::Kind::kVariable ||
                        bound.count(atom.args[0].variable));
      est = arg_bound ? 1 : std::max(1.0, num_entities_ + num_intervals_);
    } else {
      uint64_t mask = 0;
      for (size_t i = 0; i < atom.args.size() && i < 64; ++i) {
        const Term& t = atom.args[i];
        if (t.kind != Term::Kind::kVariable || bound.count(t.variable)) {
          mask |= uint64_t{1} << i;
        }
      }
      est = EstimateCandidates(atom.predicate, mask, atom.args.size());
    }
    cost *= std::max(est, 1.0);
    if (cost > kCostCap) return kCostCap;
    for (const Term& t : atom.args) {
      if (t.kind == Term::Kind::kVariable) bound.insert(t.variable);
    }
  }
  return cost;
}

PlanChoice Planner::Choose(const PlanInputs& inputs) const {
  PlanChoice choice;

  // Total program cost: what one full naive pass over every rule does.
  // Fixpoints repeat rounds, but the relative ordering is what matters.
  double program_cost = 0;
  if (inputs.all_rules != nullptr) {
    for (const Rule& rule : *inputs.all_rules) program_cost += RuleCost(rule);
  }
  double cone_cost = 0;
  if (inputs.cone_rules != nullptr) {
    for (const Rule& rule : *inputs.cone_rules) cone_cost += RuleCost(rule);
  }
  if (cone_cost == 0) {
    // Pure-EDB goal: the work is the goal relation itself.
    cone_cost = EstimateRows(inputs.goal_predicate);
  }

  // Selectivity of the goal's constants: the fraction of the goal relation
  // a bound probe touches.
  double bound_sel = 1;
  for (size_t i = 0; i < inputs.goal_arity && i < 64; ++i) {
    if (inputs.goal_bound_mask >> i & 1) {
      bound_sel /= std::max(1.0, DistinctOf(inputs.goal_predicate, i));
    }
  }
  const bool bound_goal = inputs.goal_bound_mask != 0;

  choice.cost_fixpoint =
      inputs.fixpoint_cached ? EstimateRows(inputs.goal_predicate)
                             : program_cost + EstimateRows(inputs.goal_predicate);
  // Magic restricts derivation to the goal's demand cone: roughly the cone
  // cost scaled by the goal's selectivity, plus a rewrite overhead.
  choice.cost_magic = inputs.magic_available
                          ? 10 + bound_sel * cone_cost
                          : kInf;
  // QSQR answers bound goals tuple-at-a-time with memoization and no
  // demand-relation materialization: cheaper than magic on selective bound
  // goals, costlier on free goals (its outer repeat loop re-walks calls).
  choice.cost_qsqr = inputs.qsqr_available
                         ? (bound_goal ? 0.5 * bound_sel * cone_cost
                                       : 1.5 * cone_cost)
                         : kInf;

  // A goal with no constants whose cone spans the whole program has nothing
  // for a goal-directed strategy to prune — no demand (every tuple is
  // demanded) and no cone (no rule is dropped). Demand guards and
  // tuple-at-a-time recursion would be pure overhead; go bottom-up.
  const bool nothing_to_prune = !bound_goal && cone_cost >= program_cost;

  choice.strategy = EvalStrategy::kFixpoint;
  double best = choice.cost_fixpoint;
  if (!nothing_to_prune) {
    if (choice.cost_magic < best) {
      choice.strategy = EvalStrategy::kMagic;
      best = choice.cost_magic;
    }
    if (choice.cost_qsqr <= best) {
      // <=: ties break toward the leanest goal-directed strategy.
      choice.strategy = EvalStrategy::kQsqr;
      best = choice.cost_qsqr;
    }
  }

  std::ostringstream reason;
  reason << (bound_goal ? "bound goal" : "free goal");
  if (nothing_to_prune) reason << ", nothing to prune";
  reason << ", est. cost qsqr " << FormatCost(choice.cost_qsqr) << ", magic "
         << FormatCost(choice.cost_magic) << ", fixpoint "
         << FormatCost(choice.cost_fixpoint);
  if (inputs.fixpoint_cached) reason << " (fixpoint cached)";
  choice.reason = reason.str();
  return choice;
}

std::vector<size_t> Planner::OrderBody(
    const std::vector<CompiledLiteral>& literals,
    const std::vector<bool>& computable) const {
  const size_t n = literals.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::set<int> bound;
  std::vector<bool> used(n, false);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_cost = kInf;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const CompiledLiteral& lit = literals[i];
      size_t free_vars = 0;
      uint64_t mask = 0;
      for (size_t a = 0; a < lit.args.size(); ++a) {
        const CompiledTerm& t = lit.args[a];
        if (!t.is_var || bound.count(t.var)) {
          if (a < 64) mask |= uint64_t{1} << a;
        } else {
          ++free_vars;
        }
      }
      double cost;
      if (computable[i]) {
        if (free_vars != 0) continue;  // illegal before its producers
        cost = 0.5;  // a pure filter: run as early as legality allows
      } else if (lit.builtin != BuiltinClass::kNone) {
        cost = free_vars == 0 ? 1
                              : std::max(1.0, num_entities_ + num_intervals_);
      } else {
        cost = EstimateCandidates(lit.predicate, mask, lit.args.size());
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best == n) {
      // Only stranded computable literals remain; emit them in written
      // order — the evaluator reports the range-restriction error.
      for (size_t i = 0; i < n; ++i) {
        if (!used[i]) {
          best = i;
          break;
        }
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const CompiledTerm& t : literals[best].args) {
      if (t.is_var) bound.insert(t.var);
    }
  }
  return order;
}

}  // namespace vqldb
