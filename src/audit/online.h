#ifndef AUDITDB_AUDIT_ONLINE_H_
#define AUDITDB_AUDIT_ONLINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/audit_index.h"
#include "src/audit/candidate.h"
#include "src/audit/granule.h"
#include "src/audit/suspicion.h"
#include "src/engine/lineage.h"
#include "src/querylog/query_log.h"
#include "src/sql/query_shape.h"
#include "src/storage/database.h"

namespace auditdb {

namespace service {
class ThreadPool;
}  // namespace service

namespace audit {

/// Per-scheme screening state of one standing expression: the scheme
/// resolved against the expression's current target view, plus the two
/// counters the monitor accumulates.
struct OnlineSchemeState {
  ResolvedScheme resolved;
  std::set<ColumnRef> covered_attrs;  // by the batch so far
  size_t accessed_facts = 0;
};

/// Builds the per-scheme states of `expr` against `view`, carrying the
/// accumulated attribute coverage over from `previous` (matched by scheme
/// attrs). Fails as ResolveSchemes does when a scheme attribute or tid
/// table is absent from the view. Exposed as a free function so the
/// failure path is testable against hand-built views.
Result<std::vector<OnlineSchemeState>> BuildOnlineSchemeStates(
    const AuditExpression& expr, const TargetView& view,
    const std::vector<OnlineSchemeState>& previous);

/// Sharing knob for the online monitor.
struct OnlineAuditorOptions {
  /// Profile cache to share with other audit components (e.g. the
  /// serving stack's); a private one is created when null.
  std::shared_ptr<DecisionCache> cache;
};

/// Online auditing — the paper's future work (Section 4): instead of
/// combing a historical log, queries are screened *as they arrive*
/// against a set of standing audit expressions, and each expression
/// reports a running **suspicion rank** (the paper's "closeness value")
/// for the batch of accesses seen so far, firing the moment the batch
/// fully accesses a granule.
///
/// The rank instantiates the paper's open notion as coverage progress:
/// for each granule scheme S with effective threshold k,
///
///     rank(S) = (|covered attrs of S| + min(accessed facts, k))
///               / (|S| + k)
///
/// and the expression's rank is the max over its schemes. rank = 1 iff
/// some scheme's attributes are fully covered and at least k facts are
/// accessed — exactly the offline suspicion condition, so the online
/// monitor fires on the same batches the offline Auditor flags (for the
/// same database states).
class OnlineAuditor {
 public:
  /// `db` is the live database; each observation pins one snapshot of it
  /// and screens against that. Staleness of the standing target views is
  /// detected per expression via the epoch fingerprint of its FROM
  /// tables — writes to unrelated tables neither rebuild views nor evict
  /// cached decisions. `db` must outlive the auditor.
  explicit OnlineAuditor(Database* db,
                         OnlineAuditorOptions options = OnlineAuditorOptions{});

  OnlineAuditor(const OnlineAuditor&) = delete;
  OnlineAuditor& operator=(const OnlineAuditor&) = delete;

  /// Registers a standing audit expression (not yet qualified is fine).
  /// The target view U is computed against the current database state at
  /// registration time and is re-derived automatically whenever one of
  /// its FROM tables changes underneath (cheap staleness check via the
  /// tables' epoch fingerprint). Returns the expression's id.
  Result<int> AddExpression(const AuditExpression& expr);

  /// Deregisters a standing expression; its accumulated batch state is
  /// discarded. NotFound for an id never added or already removed. Ids
  /// are never reused. Must not run concurrently with Observe (the
  /// auditor is externally synchronized, like every other mutator).
  Status RemoveExpression(int id);

  /// Number of registered expressions.
  size_t size() const { return entries_.size(); }

  /// Screening outcome for one expression after one observation.
  struct Screening {
    int expression_id = 0;
    /// Whether the accumulated batch now accesses a full granule.
    bool fired = false;
    /// Closeness in [0,1]; 1 iff fired (for THRESHOLD N; ALL behaves
    /// the same with k = |U|).
    double rank = 0.0;
    /// The scheme achieving the rank.
    size_t best_scheme = 0;
  };

  /// Feeds one query. The query is parsed and executed once against the
  /// current database state; expressions whose limiting parameters
  /// reject the access are skipped (their previous state is reported
  /// unchanged). Candidacy-check failures (e.g. the query references a
  /// table unknown to the catalog) and a candidate's execution failure
  /// (e.g. a type error) propagate as errors rather than silently
  /// clearing the query; unparseable queries are ignored, as in the
  /// offline pipeline's parse_failed verdicts. Returns one Screening
  /// per registered expression, in registration order. When an
  /// expression fails, every other expression still observes the query
  /// and the first failure in registration order is returned.
  ///
  /// With a non-null `pool` and more than one expression to visit, the
  /// per-expression coverage updates (independent state per standing
  /// expression) fan out over it; the screenings, the error and the
  /// state left behind are the same as the serial path's. The database
  /// must not be mutated concurrently with a screening.
  Result<std::vector<Screening>> Observe(const LoggedQuery& query,
                                         service::ThreadPool* pool = nullptr);

  /// Current screening state of every expression (without observing).
  std::vector<Screening> Current() const;

  /// Observe → fan-out hook: invoked synchronously on the observing
  /// thread at the end of every *successful* observation, after all
  /// per-expression updates, with the query and the screenings Observe
  /// is about to return. The serving stack uses it to publish push
  /// events (src/net/subscription.h); a null listener disables it.
  using ScreeningListener = std::function<void(
      const LoggedQuery& query, const std::vector<Screening>& screenings)>;
  void SetScreeningListener(ScreeningListener listener) {
    listener_ = std::move(listener);
  }

  /// Drops the accumulated batch state of every expression (e.g. at the
  /// start of a new monitoring window).
  void ResetBatches();

  /// Index / decision-cache effectiveness counters (shared with the
  /// cache passed in via options, if any).
  const AuditIndexStats& stats() const { return *cache_->stats(); }

 private:
  struct Entry {
    int id = 0;
    AuditExpression expr;
    /// expr.attrs.AllAttributes(), for the candidacy checks.
    std::set<ColumnRef> audited;
    TargetView view;
    std::vector<OnlineSchemeState> schemes;
    /// Batch-accumulated indispensable tids per table, as compressed
    /// bitmaps (unions are word-wide Ors as queries stream in).
    std::map<std::string, TidBitmap> batch_tids;
    bool fired = false;
    /// Epoch fingerprint of the expression's FROM tables the view was
    /// built against; the view is stale iff the current fingerprint
    /// differs.
    uint64_t built_fingerprint = 0;
  };

  /// Shared per-observation context: snapshot/parse/execute once, reuse
  /// for every visited entry.
  struct ObserveContext {
    /// The query's static facts against `view`'s catalog; unset when the
    /// query does not parse. Transient: a fresh write is mostly a new
    /// shape, and keeping its parse in the log would grow memory with
    /// every write.
    std::optional<StaticFacts> facts;
    /// The query's executed profile; null when parsing or execution
    /// failed.
    const AccessProfile* profile = nullptr;
    /// Why execution failed (Ok otherwise). A candidate entry returns it:
    /// a query that was never executed must not read as cleared.
    Status profile_status;
    sql::QueryShape shape;
    /// The observation's pinned database view: every per-entry rebuild
    /// and candidacy check reads this one consistent state.
    DatabaseView view;
  };

  Status RebuildEntryView(Entry* entry, const DatabaseView& view);
  void RecomputeAccessCounts(Entry* entry);
  static Screening ScreeningOf(const Entry& entry);
  /// One expression's share of Observe: candidacy check + coverage
  /// accumulation. `ctx.facts` may be unset (parse failure — the entry's
  /// state is left unchanged); a candidate whose execution failed returns
  /// `ctx.profile_status`. Entries are independent, so distinct entries
  /// may be observed concurrently.
  Status ObserveEntry(Entry* entry, const LoggedQuery& query,
                      const ObserveContext& ctx);
  /// Entries the observation must visit, in registration order. With
  /// the query's accessed columns statically resolved (ctx.facts), this
  /// is the subset whose audited attributes the query can touch;
  /// otherwise (parse or resolution failure) every entry, so each
  /// entry's candidacy check surfaces the failure.
  std::vector<Entry*> EntriesToVisit(const ObserveContext& ctx);

  Database* db_;
  /// Never null: a private cache when options.cache is null.
  std::shared_ptr<DecisionCache> cache_;
  ExpressionIndex index_;
  std::vector<std::unique_ptr<Entry>> entries_;
  int next_id_ = 1;
  ScreeningListener listener_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_ONLINE_H_
