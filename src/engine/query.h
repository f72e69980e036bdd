// QuerySession: the user-facing entry point tying everything together.
// Load a program (declarations populate the database, facts assert into it,
// rules accumulate), then ask queries (Def. 13) against the least fixpoint
// of the rules over the database.
//
// Every query runs one pipeline, Run(): admit it through the gate; scope
// the goal once (does it observe sys_* relations, its dependency cone, is
// it eligible for goal direction); consult the memoizing query cache (keyed
// on the goal's shape, its bound values and the database/rule epochs, so
// entries never outlive the state they were computed against); plan — the
// forced strategy or the cost-based planner's choice, resolved through
// eligibility so it can always run; execute QSQR (src/engine/qsqr.h), the
// magic-set rewrite (src/engine/magic.h) or the full fixpoint under the
// per-query budget; decode, store and record. All three engines produce
// identical answer sets.

#ifndef VQLDB_ENGINE_QUERY_H_
#define VQLDB_ENGINE_QUERY_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/budget.h"
#include "src/common/result.h"
#include "src/engine/evaluator.h"
#include "src/engine/interpretation.h"
#include "src/engine/planner.h"
#include "src/engine/query_gate.h"
#include "src/engine/sysrel.h"
#include "src/lang/ast.h"
#include "src/model/database.h"

namespace vqldb {

/// The answer set of a query: one column per distinct variable of the goal
/// (in first-occurrence order), rows deduplicated and sorted.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }

  /// Tabular rendering; when `db` is given, oids print as their symbols.
  std::string ToString(const VideoDatabase* db = nullptr) const;
};

/// How the last Run() actually answered its query (introspection for tests,
/// the shell, and EXPLAIN).
struct QueryExecInfo {
  bool cache_hit = false;  // served from the query cache, no evaluation
  /// The strategy that executed ("qsqr" | "magic" | "fixpoint"; empty on a
  /// cache hit), and — when the planner chose it (EvalStrategy::kAuto) —
  /// the planner's one-line justification with its cost estimates. Forced
  /// strategies leave plan_reason empty.
  std::string strategy;
  std::string plan_reason;
  /// Why a forced strategy could not run on this goal and was resolved to
  /// `strategy` (empty when it ran; the planner never picks one that can't).
  std::string decline_reason;
  std::string adornment;        // goal adornment when qsqr/magic ran, "bf"
  size_t magic_rule_count = 0;  // demand rules the magic rewrite generated
  // Scatter-gather completeness, filled by the sharded archive layer
  // (src/storage/shard_store.h); single-session queries leave them zero.
  bool partial = false;        // some targeted shard could not answer
  size_t shards_targeted = 0;  // shards the goal was scattered to
  size_t shards_answered = 0;  // shards that contributed an answer
  size_t shards_pruned = 0;    // shards skipped by constant-binding pruning
};

/// A stateful session over one database.
///
/// The full fixpoint and the query answers are cached between queries.
/// Both caches key on the database's mutation epoch (the query cache also on
/// the session's rule epoch; rule changes drop the fixpoint), so writes to
/// the database from outside the session need no Invalidate().
class QuerySession {
 public:
  explicit QuerySession(VideoDatabase* db, EvalOptions options = {});

  /// Parses and applies a whole program: declarations create objects, fact
  /// rules assert database facts, proper rules accumulate in the session.
  /// Embedded queries (?- ...) are checked but not executed — use Query().
  Status Load(std::string_view program_text);

  /// Parses and adds a single rule.
  Status AddRule(std::string_view rule_text);
  Status AddRule(Rule rule);

  /// Runs "?- goal." and returns its answer set through the query pipeline
  /// (see the file comment). `parse_us` is the caller's parse time, folded
  /// into the statistics record.
  Result<QueryResult> Query(std::string_view query_text);
  Result<QueryResult> Run(const struct Query& query, uint64_t parse_us = 0);

  /// EXPLAIN: the strategy Run() would execute (the same plan stage), and
  /// the magic-rewritten rules when the goal is eligible for goal direction,
  /// else the goal's dependency cone — with each rule's executable plan
  /// (access paths, constraint placement), plus the query-cache status.
  /// With `analyze` set, additionally runs that fixpoint with profiling on
  /// and appends per-rule / per-round wall times and tuple counts, the
  /// aggregate evaluation stats, and the answer set — EXPLAIN ANALYZE.
  /// Diagnostic: never serves from or stores into the query cache.
  Result<std::string> Explain(std::string_view query_text, bool analyze);

  /// The materialized least fixpoint (computing it if stale).
  Result<const Interpretation*> Materialize();

  /// Drops the cached fixpoint and the query cache. Both are epoch-keyed,
  /// so this is needed only after option changes that affect answers.
  void Invalidate() {
    fixpoint_cache_.reset();
    ClearQueryCache();
  }

  // ----------------------------------------------------------- query cache

  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool on) { cache_enabled_ = on; }
  void ClearQueryCache();
  size_t query_cache_size() const { return query_cache_.size(); }

  /// Bytes the cached answer rows currently occupy (ApproxBytes estimate).
  size_t query_cache_bytes() const { return cache_bytes_; }
  /// Byte budget for the query cache: storing past it evicts LRU entries
  /// first (the entry cap stays as a secondary bound), and an answer larger
  /// than the whole budget is simply not cached.
  size_t cache_max_bytes() const { return cache_max_bytes_; }
  void set_cache_max_bytes(size_t bytes) { cache_max_bytes_ = bytes; }

  // ------------------------------------------------- resource governance

  /// Installs a session-wide resource governor. Each Run() creates a
  /// per-query child budget parented to it, so concurrent queries share the
  /// global headroom; cached answers (query cache, fixpoint cache) keep
  /// their byte reservations until evicted. When a query trips the
  /// governor, Run() degrades gracefully: shed every cache, clear the trip,
  /// retry once, and only then fail with ResourceExhausted. A governed
  /// failure never mutates the database (derived intervals materialized by
  /// the failed evaluation are rolled back). Drops existing caches.
  void set_governor(std::shared_ptr<ResourceBudget> governor);
  const std::shared_ptr<ResourceBudget>& governor() const {
    return governor_;
  }
  /// Convenience: installs a governor limited to `max_bytes` (0 uninstalls)
  /// wired to the vqldb_governor_bytes_{reserved,peak} gauges.
  void EnableMemoryGovernor(size_t max_bytes);

  /// Additional limits applied to every per-query child budget (0 = none).
  void set_per_query_limits(ResourceBudget::Limits limits) {
    per_query_limits_ = limits;
  }
  const ResourceBudget::Limits& per_query_limits() const {
    return per_query_limits_;
  }

  /// Admission control: when set, every Run() holds a gate ticket for the
  /// duration of the query and fails with Status::Overloaded when the gate
  /// sheds it. A gate with one slot serializes this (non-thread-safe)
  /// session across threads.
  void set_gate(std::shared_ptr<QueryGate> gate) { gate_ = std::move(gate); }
  const std::shared_ptr<QueryGate>& gate() const { return gate_; }

  // -------------------------------------------------------- sharded archive

  /// When this session serves one shard of a sharded archive, the archive
  /// installs a provider so sys_shards queries see live per-shard health.
  /// Invoked once per system-fact batch; every shard's session gets the
  /// same provider, so sys_shards answers are identical regardless of which
  /// shard evaluates them.
  using ShardInfoProvider = std::function<std::vector<ShardInfoRow>()>;
  void set_shard_info_provider(ShardInfoProvider provider) {
    shard_info_provider_ = std::move(provider);
  }

  /// How the most recent Run() answered (reset at the start of each Run).
  const QueryExecInfo& last_exec_info() const { return exec_info_; }

  const std::vector<Rule>& rules() const { return rules_; }
  VideoDatabase* database() { return db_; }
  const EvalStats& last_stats() const { return last_stats_; }

  /// Evaluation options for subsequent queries. `strategy` (with
  /// EvalStrategy::kFixpoint the one switch that turns goal direction off)
  /// and `num_threads` need no Invalidate(): answers are strategy- and
  /// thread-count invariant; other option changes affect semantics and do.
  const EvalOptions& options() const { return options_; }
  EvalOptions* mutable_options() { return &options_; }

  /// Applies one declaration to a database (exposed for the storage layer).
  static Status ApplyDecl(const ObjectDecl& decl, VideoDatabase* db);

  /// Asserts a ground fact rule into a database.
  static Status ApplyFact(const Rule& fact_rule, VideoDatabase* db);

 private:
  /// Cache key: the goal's shape with variables canonicalized by first
  /// occurrence ("?- p(a, X, X)" and "?- p(a, Y, Y)" share an entry), its
  /// resolved bound values, and the epochs/options the answer depends on.
  struct CacheKey {
    std::string predicate;
    std::string pattern;  // per argument: "c" or "v<canonical index>"
    std::vector<Value> bound_values;
    uint64_t db_epoch = 0;
    uint64_t rules_epoch = 0;
    uint64_t options_fp = 0;
    bool operator==(const CacheKey& o) const;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  /// Cached answers are stored dictionary-encoded: one flat run of term-
  /// dictionary symbol ids (row-major), decoded back to Values on a hit.
  /// `bytes` is the exact retained footprint — the id payload plus the
  /// dictionary bytes this answer was first to intern ("amortization") —
  /// counted into cache_bytes_ and the governor.
  struct CacheEntry {
    std::vector<uint32_t> ids;  // row_count * column_count symbol ids
    size_t column_count = 0;
    size_t row_count = 0;
    size_t bytes = 0;
    std::list<CacheKey>::iterator lru_it;
  };

  /// What the pipeline learns about a goal once, before the cache lookup;
  /// every later stage reads it instead of re-deriving it.
  struct GoalScope {
    std::vector<Rule> cone;  // DependencyCone of the goal within rules_
    /// The goal can observe sys_* relations. Such queries bypass both
    /// caches — system state changes without bumping the epochs — and are
    /// seeded with one consistent batch of system facts, keeping answers
    /// byte-identical across strategies.
    bool sys = false;
    /// GoalDirectedEligibility(): empty when QSQR / magic may run.
    std::string decline;
    uint64_t bound_mask = 0;  // bit i set => goal argument i is a constant
  };
  /// The plan stage's outcome: a strategy that can run on the goal.
  struct QueryPlan {
    EvalStrategy strategy = EvalStrategy::kFixpoint;
    bool forced = false;  // options_.strategy named it, not the planner
    PlanChoice choice;    // the planner's estimates, when it was consulted
    std::string decline_reason;  // why a forced strategy was resolved away
  };

  GoalScope ScopeGoal(const Atom& goal) const;
  /// The forced strategy or, under EvalStrategy::kAuto (or when
  /// `consult_planner`, for EXPLAIN's estimates), the planner's choice —
  /// resolved through the scope's eligibility: qsqr needs an eligible goal
  /// that observes no sys_* relation, magic an eligible goal.
  QueryPlan PlanQuery(const struct Query& query, const GoalScope& scope,
                      bool consult_planner);
  /// The cached strategy-choice planner, refreshed on epoch change.
  const Planner& AutoPlanner();

  /// Installs the planner as the body-literal orderer when reorder_body is
  /// on and the caller did not supply one, refreshing its statistics
  /// snapshot. Called at the top of Run(), Explain() and Materialize().
  void RefreshPlanner();

  /// Runs `strategy` under a per-query child budget with the database-
  /// rollback anchor: a governed failure (resource/deadline/cancel) unwinds
  /// any derived intervals the evaluation materialized.
  Result<QueryResult> Execute(const struct Query& query,
                              const GoalScope& scope, EvalStrategy strategy);
  /// Evaluates a fresh (uncached) fixpoint of `program` with `seeds` and
  /// answers `query` from it.
  Result<QueryResult> EvaluateAndAnswer(std::vector<Rule> program,
                                        std::vector<Fact> seeds,
                                        const struct Query& query);
  /// Decodes `query`'s answer set from `interp`, timed into
  /// phases_.decode_us.
  Result<QueryResult> AnswerFrom(const Interpretation& interp,
                                 const struct Query& query);

  /// The cached full fixpoint is current: computed against the present
  /// database epoch. Rule changes drop it (Invalidate()), so the rule epoch
  /// needs no check.
  bool FixpointCacheFresh() const;
  std::vector<Fact> BuildSystemSeedFacts() const;

  /// Drops the query cache and the fixpoint cache, releasing their governor
  /// reservations; returns the bytes freed (the shed-before-fail path).
  size_t ShedCaches();
  /// Removes the cache entry `it` points at, maintaining cache_bytes_ and
  /// the governor reservation.
  void EvictCacheEntry(std::list<CacheKey>::iterator it);

  /// nullopt when the goal cannot be keyed (unresolvable symbol or a
  /// constructive term) — evaluation then reports the actual error.
  std::optional<CacheKey> MakeCacheKey(const struct Query& query) const;
  uint64_t OptionsFingerprint() const;
  /// Columns of `query`'s distinct variables in first-occurrence order —
  /// the layout every execution path produces for rows of a shared shape.
  static std::vector<std::string> ColumnsOf(const struct Query& query);
  /// Decodes a cache hit, refreshing its LRU position.
  QueryResult ReadCacheEntry(CacheEntry& entry, const struct Query& query);
  void StoreCacheEntry(CacheKey key, const QueryResult& result);

  VideoDatabase* db_;
  EvalOptions options_;
  std::vector<Rule> rules_;
  /// Session-owned planner standing in for options_.body_orderer when
  /// reorder_body is on (RefreshPlanner); rebuilt per query so its
  /// statistics snapshot stays current.
  std::unique_ptr<Planner> planner_;
  /// Strategy-choice planner for kAuto, cached per (db epoch, rules epoch):
  /// a collector snapshot copies every sketch and latency ring, too costly
  /// to re-take for each sub-millisecond goal (AutoPlanner()).
  std::unique_ptr<Planner> auto_planner_;
  uint64_t auto_planner_db_epoch_ = 0;
  uint64_t auto_planner_rules_epoch_ = 0;
  std::optional<Interpretation> fixpoint_cache_;
  uint64_t fixpoint_db_epoch_ = 0;  // the epoch fixpoint_cache_ is valid at
  EvalStats last_stats_;
  QueryExecInfo exec_info_;

  bool cache_enabled_ = true;
  uint64_t rules_epoch_ = 0;  // bumped whenever rules_ changes

  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> query_cache_;
  std::list<CacheKey> cache_lru_;  // front = least recently used
  size_t cache_bytes_ = 0;
  size_t cache_max_bytes_ = 16u << 20;  // 16 MiB of cached answer rows

  std::shared_ptr<ResourceBudget> governor_;
  std::shared_ptr<QueryGate> gate_;
  ResourceBudget::Limits per_query_limits_;
  ShardInfoProvider shard_info_provider_;

  // --- self-observation state (see src/engine/sysrel.h) -------------------
  // Per-query phase timings, accumulated by the execution paths and
  // consumed by Run()'s statistics record.
  struct PhaseTimes {
    uint64_t rewrite_us = 0;
    uint64_t eval_us = 0;
    uint64_t decode_us = 0;
  };
  PhaseTimes phases_;
  // Per-query budget consumption captured by Execute before the child
  // budget is detached (zero when ungoverned).
  struct BudgetUsage {
    uint64_t bytes_peak = 0;
    uint64_t tuples = 0;
    uint64_t solver_steps = 0;
  };
  BudgetUsage budget_usage_;
};

}  // namespace vqldb

#endif  // VQLDB_ENGINE_QUERY_H_
