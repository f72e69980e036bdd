#include "src/engine/qsqr.h"

#include <chrono>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "src/constraint/concrete_domain.h"
#include "src/engine/binding.h"
#include "src/engine/eval_common.h"
#include "src/model/term_dict.h"

namespace vqldb {
namespace {

using Clock = std::chrono::steady_clock;

// Backtracking through rule bodies recurses once per call-chain link; each
// level costs a small constant number of frames, so this bounds the stack
// at a few megabytes while admitting chains far longer than any workload.
constexpr size_t kMaxDepth = 2000;

// One call pattern: which arguments of `pred` are bound, and to what.
// Bound values are identified by their term-dictionary ids where they have
// one (id equality is value equality). Reads never intern, so a value the
// dictionary has not seen (a goal constant stored nowhere, an oid no fact
// mentions) keeps kNoTermId and is identified by the value itself.
struct CallKey {
  std::string pred;
  uint64_t mask = 0;
  std::vector<uint32_t> ids;        // bound positions, ascending
  std::vector<Value> unresolved;    // values of the kNoTermId positions

  bool operator<(const CallKey& o) const {
    return std::tie(pred, mask, ids, unresolved) <
           std::tie(o.pred, o.mask, o.ids, o.unresolved);
  }
};

// A call's bound arguments, positionally. values/ids are sized to the call
// arity; only positions with the mask bit set are meaningful.
struct Pattern {
  uint64_t mask = 0;
  std::vector<Value> values;
  std::vector<uint32_t> ids;
};

class Engine {
 public:
  Engine(const VideoDatabase& db, const EvalOptions& options)
      : db_(db), options_(options) {}

  Status Init(const Query& query, const std::vector<Rule>& cone);
  Status Run(QsqrResult* out);
  const EvalStats& stats() const { return stats_; }

 private:
  Status Solve(const std::string& pred, const Pattern& pattern, size_t depth);
  Status SolveRule(const CompiledRule& rule, const Pattern& pattern,
                   size_t depth);
  Status SolveSteps(const CompiledRule& rule, size_t step_idx, BindingEnv* env,
                    size_t depth);
  // The relational step's candidate rows: IDB answers from the memo,
  // stored rows from the database's postings.
  Status SolveRelational(const CompiledRule& rule, size_t step_idx,
                         BindingEnv* env, size_t depth);
  // The domain an unbound builtin step enumerates: the entity index when a
  // constraint `X in G.entities` of this or a later step has X bound to an
  // oid, else the whole class.
  std::vector<ObjectId> BuiltinDomain(const CompiledRule& rule,
                                      size_t step_idx,
                                      const BindingEnv& env) const;
  Status Emit(const CompiledRule& rule, const BindingEnv& env);
  Status CheckConstraint(const CompiledConstraint& constraint,
                         const BindingEnv& env, bool* ok);
  Status CheckInterrupt() const;
  // Polls the interrupt surface every 1024 solve steps (same granularity as
  // the bottom-up engine's emission poll).
  Status MaybePoll() {
    if ((++steps_ & 1023u) == 1023u) return CheckInterrupt();
    return Status::OK();
  }

  const VideoDatabase& db_;
  const EvalOptions& options_;
  Interpretation memo_;  // IDB answers only; stored rows are read in place
  std::vector<CompiledRule> rules_;
  std::vector<bool> head_stored_;  // per rule: its head relation has rows
  std::map<std::string, std::vector<size_t>> rules_by_head_;
  std::set<CallKey> calls_;  // expanded this pass
  std::string goal_pred_;
  Pattern goal_pattern_;
  bool changed_ = false;
  size_t passes_ = 0;
  uint64_t steps_ = 0;
  EvalStats stats_;
};

Status Engine::Init(const Query& query, const std::vector<Rule>& cone) {
  const Atom& goal = query.goal;
  goal_pred_ = goal.predicate;

  // Compile the cone with the same options the bottom-up engines use, so
  // reordering (greedy or planner-driven) behaves identically.
  CompileOptions copts;
  copts.reorder_body = options_.reorder_body;
  copts.concrete_domain = options_.concrete_domain;
  copts.orderer = options_.reorder_body ? options_.body_orderer : nullptr;
  for (const Rule& rule : cone) {
    VQLDB_ASSIGN_OR_RETURN(CompiledRule compiled,
                           RuleCompiler::Compile(rule, db_, copts));
    rules_by_head_[compiled.head_predicate].push_back(rules_.size());
    rules_.push_back(std::move(compiled));
  }

  // The goal's call pattern: bound where the argument is a constant.
  // Constants resolve without interning: a miss means no relation stores
  // the value, and read-only traffic must not grow the dictionary.
  TermDict& dict = TermDict::Global();
  goal_pattern_.values.resize(goal.args.size());
  goal_pattern_.ids.assign(goal.args.size(), kNoTermId);
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i].kind != Term::Kind::kConstant) continue;
    VQLDB_ASSIGN_OR_RETURN(Value v, ResolveConst(goal.args[i].constant, db_));
    goal_pattern_.ids[i] = dict.IdOf(v);
    goal_pattern_.values[i] = std::move(v);
    if (i < 64) goal_pattern_.mask |= uint64_t{1} << i;
  }

  // Stored relations are probed in place (SolveRelational), so the memo
  // holds derived rows only. Governed and observed like the bottom-up
  // engine's interpretations: derived rows charge the budget and feed the
  // statistics sketches.
  memo_.set_budget(options_.budget);
  memo_.set_observed(true);
  for (const CompiledRule& rule : rules_) {
    head_stored_.push_back(db_.Relation(rule.head_predicate).rows() > 0);
  }
  return CheckInterrupt();
}

Status Engine::Run(QsqrResult* out) {
  do {
    stats_.iterations = ++passes_;
    if (passes_ > options_.max_iterations) {
      return Status::EvaluationError(
          "qsqr evaluation exceeds max_iterations = " +
          std::to_string(options_.max_iterations));
    }
    calls_.clear();
    changed_ = false;
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
    VQLDB_RETURN_NOT_OK(Solve(goal_pred_, goal_pattern_, 0));
  } while (changed_);
  // The goal's stored answers join its derived ones in the memo (a goal
  // constant the dictionary never saw matches no stored row). They are
  // read results, not new knowledge: they skip the statistics sketches.
  const StoredRelation& stored = db_.Relation(goal_pred_);
  if (stored.rows() > 0 && stored.arity() == goal_pattern_.ids.size()) {
    std::vector<uint32_t> positions;
    stored.Match(goal_pattern_.mask, goal_pattern_.ids.data(), &positions);
    memo_.set_observed(false);
    for (uint32_t pos : positions) {
      memo_.AddRow(goal_pred_,
                   Interpretation::RowRef{stored.row(pos), stored.arity()});
    }
  }
  out->stats = stats_;
  out->memo = std::move(memo_);
  return Status::OK();
}

Status Engine::Solve(const std::string& pred, const Pattern& pattern,
                     size_t depth) {
  auto it = rules_by_head_.find(pred);
  if (it == rules_by_head_.end()) return Status::OK();  // pure EDB
  if (depth > kMaxDepth) {
    return Status::EvaluationError(
        "qsqr recursion depth exceeded (" + std::to_string(kMaxDepth) +
        " nested calls) solving " + pred);
  }
  CallKey key;
  key.pred = pred;
  key.mask = pattern.mask;
  for (size_t i = 0; i < pattern.ids.size() && i < 64; ++i) {
    if (!(pattern.mask >> i & 1)) continue;
    key.ids.push_back(pattern.ids[i]);
    if (pattern.ids[i] == kNoTermId) key.unresolved.push_back(pattern.values[i]);
  }
  // Already expanded this pass: its answers-so-far are in the memo; any
  // still missing surface next pass (the expansion in flight sets changed_).
  if (!calls_.insert(std::move(key)).second) return Status::OK();
  for (size_t ri : it->second) {
    VQLDB_RETURN_NOT_OK(SolveRule(rules_[ri], pattern, depth));
  }
  return Status::OK();
}

Status Engine::SolveRule(const CompiledRule& rule, const Pattern& pattern,
                         size_t depth) {
  // A rule of a different head arity cannot produce facts this call's
  // probes would match.
  if (rule.head.size() != pattern.values.size()) return Status::OK();
  BindingEnv env(rule.num_vars);

  // Unify the head against the call's bound arguments — this is where the
  // goal's constants flow into the body (sideways information passing).
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (i >= 64 || !(pattern.mask >> i & 1)) continue;
    const CompiledHeadTerm& ht = rule.head[i];
    switch (ht.kind) {
      case CompiledHeadTerm::Kind::kValue:
        if (!(ht.value == pattern.values[i])) return Status::OK();
        break;
      case CompiledHeadTerm::Kind::kVar:
        if (env.IsBound(ht.var)) {
          if (!(env.Get(ht.var) == pattern.values[i])) return Status::OK();
        } else {
          env.Bind(ht.var, pattern.values[i], pattern.ids[i]);
        }
        break;
      case CompiledHeadTerm::Kind::kConcat:
        // Constructive rules are declined before evaluation starts.
        return Status::Internal("constructive head reached QSQR evaluation");
    }
  }

  for (const CompiledConstraint& c : rule.ground_constraints) {
    bool ok = false;
    VQLDB_RETURN_NOT_OK(CheckConstraint(c, env, &ok));
    if (!ok) return Status::OK();
  }
  return SolveSteps(rule, 0, &env, depth);
}

Status Engine::SolveSteps(const CompiledRule& rule, size_t step_idx,
                          BindingEnv* env, size_t depth) {
  VQLDB_RETURN_NOT_OK(MaybePoll());
  if (step_idx == rule.steps.size()) return Emit(rule, *env);
  const CompiledStep& step = rule.steps[step_idx];
  const CompiledLiteral& lit = step.literal;

  auto proceed = [&]() -> Status {
    for (const CompiledConstraint& c : step.post_constraints) {
      bool ok = false;
      VQLDB_RETURN_NOT_OK(CheckConstraint(c, *env, &ok));
      if (!ok) return Status::OK();
    }
    return SolveSteps(rule, step_idx + 1, env, depth);
  };

  if (lit.builtin != BuiltinClass::kNone) {
    const CompiledTerm& arg = lit.args[0];
    if (!arg.is_var || env->IsBound(arg.var)) {
      const Value& v = arg.is_var ? env->Get(arg.var) : arg.value;
      if (!v.is_oid() || !eval_common::InClass(db_, v.oid_value(),
                                               lit.builtin)) {
        return Status::OK();
      }
      return proceed();
    }
    for (ObjectId id : BuiltinDomain(rule, step_idx, *env)) {
      env->Bind(arg.var, Value::Oid(id));
      Status st = proceed();
      env->Unbind(arg.var);
      VQLDB_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  if (options_.concrete_domain != nullptr &&
      options_.concrete_domain->HasPredicate(
          lit.predicate, static_cast<int>(lit.args.size()))) {
    bool holds = false;
    VQLDB_RETURN_NOT_OK(eval_common::EvalConcreteLiteral(
        *options_.concrete_domain, options_.strict_types, lit, *env, &holds));
    return holds ? proceed() : Status::OK();
  }

  return SolveRelational(rule, step_idx, env, depth);
}

std::vector<ObjectId> Engine::BuiltinDomain(const CompiledRule& rule,
                                            size_t step_idx,
                                            const BindingEnv& env) const {
  const CompiledStep& step = rule.steps[step_idx];
  const int g = step.literal.args[0].var;
  if (step.literal.builtin == BuiltinClass::kInterval) {
    // Every emission passes the constraints of this and all later steps,
    // and X keeps its binding through them, so an interval whose entities
    // lack X can never emit: enumerating IntervalsWithEntity(X) (the
    // inverted index SetAttribute maintains) only skips doomed candidates.
    // The constraint itself is still checked where it sits.
    for (size_t s = step_idx; s < rule.steps.size(); ++s) {
      for (const CompiledConstraint& c : rule.steps[s].post_constraints) {
        if (c.kind != ConstraintExpr::Kind::kMembership ||
            c.rhs.kind != CompiledOperand::Kind::kAccess ||
            !c.rhs.base_is_var || c.rhs.var != g ||
            c.rhs.attribute != kAttrEntities) {
          continue;
        }
        const Value* x = nullptr;
        if (c.lhs.kind == CompiledOperand::Kind::kValue) {
          x = &c.lhs.value;
        } else if (c.lhs.kind == CompiledOperand::Kind::kVar &&
                   env.IsBound(c.lhs.var)) {
          x = &env.Get(c.lhs.var);
        }
        if (x != nullptr && x->is_oid()) {
          return db_.IntervalsWithEntity(x->oid_value());
        }
      }
    }
  }
  return eval_common::DomainOf(db_, step.literal.builtin);
}

Status Engine::SolveRelational(const CompiledRule& rule, size_t step_idx,
                               BindingEnv* env, size_t depth) {
  const CompiledStep& step = rule.steps[step_idx];
  const CompiledLiteral& lit = step.literal;
  const size_t arity = lit.args.size();
  TermDict& dict = TermDict::Global();

  // The probe key: the id of every argument bound before this step. A
  // binding without an id (its value was never interned when bound) is
  // looked up again — an emission may have interned it since — and one the
  // dictionary still lacks matches no row anywhere.
  std::vector<uint32_t> key(arity, kNoTermId);
  std::vector<bool> bound(arity, false);
  uint64_t mask = 0;
  auto resolve = [&]() {
    bool resolvable = true;
    for (size_t i = 0; i < arity; ++i) {
      if (bound[i] && key[i] == kNoTermId) {
        key[i] = dict.IdOf(env->Get(lit.args[i].var));
        resolvable &= key[i] != kNoTermId;
      }
    }
    return resolvable;
  };
  for (size_t i = 0; i < arity; ++i) {
    const CompiledTerm& arg = lit.args[i];
    if (!arg.is_var) {
      key[i] = arg.value_id;
    } else if (env->IsBound(arg.var)) {
      key[i] = env->GetId(arg.var);
    } else {
      continue;
    }
    bound[i] = true;
    if (i < 64) mask |= uint64_t{1} << i;
  }
  resolve();

  // Derive the subgoal's call pattern and recurse if it names an IDB
  // predicate, filling the memo before probing it.
  const bool idb = rules_by_head_.count(lit.predicate) > 0;
  if (idb) {
    Pattern sub;
    sub.mask = mask;
    sub.values.resize(arity);
    sub.ids.assign(arity, kNoTermId);
    for (size_t i = 0; i < arity && i < 64; ++i) {
      if (!(mask >> i & 1)) continue;
      const CompiledTerm& arg = lit.args[i];
      sub.values[i] = arg.is_var ? env->Get(arg.var) : arg.value;
      sub.ids[i] = key[i];
    }
    VQLDB_RETURN_NOT_OK(Solve(lit.predicate, sub, depth + 1));
  }
  // The subgoal's emissions may have interned a value that had no id.
  if (!resolve()) return Status::OK();

  auto proceed = [&]() -> Status {
    for (const CompiledConstraint& c : step.post_constraints) {
      bool ok = false;
      VQLDB_RETURN_NOT_OK(CheckConstraint(c, *env, &ok));
      if (!ok) return Status::OK();
    }
    return SolveSteps(rule, step_idx + 1, env, depth);
  };
  // Matches one candidate row on raw ids, binding the free arguments
  // (recorded for backtracking), then runs the rest of the body. The row
  // pointer is not read after proceeding: emissions may regrow the memo.
  auto try_row = [&](const uint32_t* row) -> Status {
    int bound_here[16];
    size_t num_bound = 0;
    std::vector<int> overflow;
    bool matched = true;
    for (size_t i = 0; i < arity && matched; ++i) {
      const CompiledTerm& arg = lit.args[i];
      if (bound[i]) {
        matched = key[i] == row[i];
      } else if (env->IsBound(arg.var)) {
        matched = env->GetId(arg.var) == row[i];  // repeated in this literal
      } else {
        env->Bind(arg.var, dict.Get(row[i]), row[i]);
        if (num_bound < 16) {
          bound_here[num_bound++] = arg.var;
        } else {
          overflow.push_back(arg.var);
        }
      }
    }
    Status st = matched ? proceed() : Status::OK();
    for (size_t i = 0; i < num_bound; ++i) env->Unbind(bound_here[i]);
    for (int v : overflow) env->Unbind(v);
    return st;
  };

  if (idb) {
    std::vector<Value> probe_key;
    for (size_t i = 0; i < arity && i < 64; ++i) {
      if (mask >> i & 1) probe_key.push_back(dict.Get(key[i]));
    }
    ++stats_.join_probes;
    ++stats_.hash_join_probes;
    // Copy the candidate positions: emissions during recursion below may
    // extend the lazily built index the reference designates. Positions
    // stay valid (row storage is append-only in insertion order); the row
    // is re-fetched per candidate because Add may regrow the id columns.
    std::vector<size_t> candidates =
        memo_.LookupMulti(lit.predicate, mask, probe_key);
    if (!candidates.empty()) ++stats_.join_probe_hits;
    Interpretation::RelationView rel = memo_.Relation(lit.predicate);
    for (size_t pos : candidates) {
      Interpretation::RowRef row = rel.row(pos);
      if (row.arity != arity) continue;
      VQLDB_RETURN_NOT_OK(try_row(row.ids));
    }
  }

  // Stored rows, probed through the postings of the most selective bound
  // column. The database is not mutated during evaluation (constructive
  // programs decline), so the rows stay put across the recursion.
  const StoredRelation& stored = db_.Relation(lit.predicate);
  if (stored.rows() == 0 || stored.arity() != arity) return Status::OK();
  ++stats_.join_probes;
  std::vector<uint32_t> positions;
  stored.Match(mask, key.data(), &positions);
  if (!positions.empty()) ++stats_.join_probe_hits;
  for (uint32_t pos : positions) {
    VQLDB_RETURN_NOT_OK(try_row(stored.row(pos)));
  }
  return Status::OK();
}

Status Engine::Emit(const CompiledRule& rule, const BindingEnv& env) {
  if ((stats_.rule_firings & 1023u) == 1023u) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
  }
  Fact fact;
  fact.relation = rule.head_predicate;
  fact.args.reserve(rule.head.size());
  for (const CompiledHeadTerm& ht : rule.head) {
    switch (ht.kind) {
      case CompiledHeadTerm::Kind::kValue:
        fact.args.push_back(ht.value);
        break;
      case CompiledHeadTerm::Kind::kVar:
        fact.args.push_back(env.Get(ht.var));
        break;
      case CompiledHeadTerm::Kind::kConcat:
        return Status::Internal("constructive head reached QSQR evaluation");
    }
  }
  ++stats_.rule_firings;
  // A derived fact the database already stores adds nothing: probes read
  // the stored copy in place.
  if (head_stored_[static_cast<size_t>(&rule - rules_.data())] &&
      db_.HasFact(fact)) {
    return Status::OK();
  }
  if (memo_.Add(std::move(fact))) {
    ++stats_.derived_facts;
    changed_ = true;
    if (memo_.size() > options_.max_facts) {
      return Status::EvaluationError(
          "qsqr memo exceeds max_facts = " +
          std::to_string(options_.max_facts));
    }
  }
  return Status::OK();
}

Status Engine::CheckConstraint(const CompiledConstraint& constraint,
                               const BindingEnv& env, bool* ok) {
  ++stats_.constraint_checks;
  if ((stats_.constraint_checks & 1023u) == 1023u) {
    VQLDB_RETURN_NOT_OK(CheckInterrupt());
  }
  return eval_common::CheckConstraint(db_, options_.strict_types, constraint,
                                      env, ok);
}

Status Engine::CheckInterrupt() const {
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return Status::Cancelled("qsqr evaluation cancelled after " +
                             std::to_string(passes_) + " passes");
  }
  if (options_.deadline.has_value() && Clock::now() > *options_.deadline) {
    return Status::DeadlineExceeded(
        "qsqr deadline exceeded after " + std::to_string(passes_) +
        " passes and " + std::to_string(stats_.derived_facts) +
        " derived facts");
  }
  if (options_.budget != nullptr) {
    Status st = options_.budget->Check();
    if (!st.ok()) {
      return Status::ResourceExhausted(
          st.message() + " (after " + std::to_string(passes_) +
          " passes and " + std::to_string(stats_.derived_facts) +
          " derived facts)");
    }
  }
  return Status::OK();
}

}  // namespace

Result<QsqrResult> QsqrEvaluator::Run(const Query& query,
                                      const std::vector<Rule>& cone,
                                      const VideoDatabase& db,
                                      const EvalOptions& options) {
  QsqrResult out;
  const Atom& goal = query.goal;

  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i].kind == Term::Kind::kConcat) {
      return Status::InvalidArgument(
          "constructive terms are not allowed in query goals");
    }
  }

  // One evaluation publishes its counters once, like a bottom-up fixpoint:
  // on completion, or on a deadline, cancel or budget abort.
  const Clock::time_point start = Clock::now();
  Engine engine(db, options);
  Status st = engine.Init(query, cone);
  if (st.ok()) st = engine.Run(&out);
  if (st.ok() || st.IsDeadlineExceeded() || st.IsCancelled() ||
      st.IsResourceExhausted()) {
    PublishEvalMetrics(
        engine.stats(),
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  VQLDB_RETURN_NOT_OK(st);
  return out;
}

}  // namespace vqldb
