// QSQR (Query-Subquery Recursive) evaluation: top-down memoized backward
// chaining. Where the magic-set rewrite makes the *bottom-up* engine
// goal-directed by materializing demand relations (m#pred#adornment) and
// running a full semi-naive fixpoint over the rewritten program, QSQR walks
// the rules of the goal's dependency cone top-down, tuple at a time,
// pushing the goal's bound arguments into rule bodies directly — no demand
// relations, no rewritten program, no per-round delta bookkeeping.
//
// The engine keeps one memo Interpretation of every answer derived so far
// and a per-pass set of expanded call patterns (predicate, adornment, bound
// values). Stored relations are never copied: EDB literals probe the
// database's id rows in place, through the postings of their most
// selective bound column (VideoDatabase::Relation). Solving a goal expands
// each defining rule once per pass: the head is unified against the call's
// bound arguments, the body is walked left-to-right with backtracking, IDB
// subgoals recurse (then probe the memo), EDB literals probe the store. An
// unbound Interval(G) step whose rule checks `X in G.entities` with X
// already bound to an oid enumerates the entity index (the intervals whose
// entities hold X) instead of every interval; the constraint is still
// checked where it sits, so this only skips candidates that cannot emit. Because answers derived *after* a memo probe are
// not re-joined within the pass, the outer loop repeats — clearing the
// call set, keeping the memo — until a full pass derives nothing new.
// Answers grow monotonically and are bounded by the finite ground-atom
// universe, so the loop terminates; on the final (quiescent) pass every
// probe saw the complete answer set, which gives completeness. Soundness is
// immediate: every emission instantiates a program rule over memo facts.
//
// Equivalence: for every goal QSQR answers, the answer set equals the
// magic-set evaluation's and the full fixpoint's restriction to the goal —
// property-tested across serial / parallel / deadlined / governed modes.
// The shared semantic kernel (eval_common.h) keeps constraint checking,
// concrete-domain literals and builtin-class domains identical by
// construction.
//
// QSQR runs only on goals GoalDirectedEligibility() (src/engine/magic.h)
// accepts — the same condition as the magic rewrite, because builtin-class
// goals, the extended active domain and constructive rules in (or
// observable from) the goal's cone make any goal-directed pruning unsound.

#ifndef VQLDB_ENGINE_QSQR_H_
#define VQLDB_ENGINE_QSQR_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/interpretation.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

/// Result of one QSQR evaluation.
struct QsqrResult {
  /// Everything derived, plus the goal relation's stored rows that match
  /// the goal: the goal's answers are the memo's goal-predicate facts. No
  /// other stored row is copied here. Budget-governed when the options
  /// carry a budget.
  Interpretation memo;

  /// `iterations` counts outer passes; join counters count memo and store
  /// probes (hash_join_probes only the Value-keyed memo probes).
  EvalStats stats;
};

class QsqrEvaluator {
 public:
  /// Answers `query` top-down over its dependency `cone` (DependencyCone);
  /// the goal must be eligible (GoalDirectedEligibility() empty). `db`
  /// supplies the EDB, read in place, and resolves goal constants, which
  /// are never interned; it is never mutated (an eligible cone has no
  /// constructive rule). Honors
  /// options.deadline / cancel / budget at the same granularity as the
  /// bottom-up engine, and options.max_iterations / max_facts as caps on
  /// outer passes / memo size. Publishes its stats to the vqldb_eval_*
  /// metrics once per evaluation.
  static Result<QsqrResult> Run(const Query& query,
                                const std::vector<Rule>& cone,
                                const VideoDatabase& db,
                                const EvalOptions& options);
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QSQR_H_
