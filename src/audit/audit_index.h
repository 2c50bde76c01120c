#ifndef AUDITDB_AUDIT_AUDIT_INDEX_H_
#define AUDITDB_AUDIT_AUDIT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/audit/audit_expression.h"
#include "src/audit/candidate.h"
#include "src/engine/lineage.h"
#include "src/sql/query_shape.h"

namespace auditdb {
namespace audit {

/// The standing-expression audit index (the paper's future-work ask for
/// "efficient algorithms mapping audit expressions to suspicious query
/// batches"): an inverted index from audited attribute to expression id,
/// consulted *before* any per-expression work, plus a memoization layer
/// for the per-(query, expression) static decisions the auditors
/// otherwise re-derive on every observation. Shared by the offline
/// Auditor, the OnlineAuditor and the AuditService.

/// Monotonic counters of index and cache effectiveness. Readable while
/// screenings run (relaxed atomics); rendered as the "index" metrics
/// section of auditd / the shell.
struct AuditIndexStats {
  /// Queries routed through the inverted index.
  std::atomic<uint64_t> index_lookups{0};
  /// Expressions visited because the index says the query can touch them.
  std::atomic<uint64_t> index_visited{0};
  /// Expressions skipped without any per-expression work.
  std::atomic<uint64_t> index_skipped{0};
  /// Queries that bypassed the index (parse or column-resolution
  /// failure) and visited every expression.
  std::atomic<uint64_t> index_fallbacks{0};
  /// Decision-cache traffic (accessed-columns + candidacy + profiles).
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};

  /// {"lookups":..,"visited":..,"skipped":..,"fallbacks":..,
  ///  "cache_hits":..,"cache_misses":..}
  std::string ToJson() const;
};

/// Inverted index over standing audit expressions: audited attribute
/// (fully qualified ColumnRef) -> expression ids. A query whose
/// statically-accessed columns are disjoint from an expression's audited
/// attributes can never be a batch candidate for it (the attribute-touch
/// test of Definition 1 fails), so consulting the index first makes one
/// observation sublinear in the number of standing expressions.
///
/// Not internally synchronized: registration is a setup-time operation;
/// Candidates() is const and safe to call concurrently once registration
/// is done (the OnlineAuditor serializes Add against Observe).
class ExpressionIndex {
 public:
  /// Registers a *qualified* expression under `id` (its audited
  /// attributes come from attrs.AllAttributes()).
  void Add(int id, const AuditExpression& expr);

  /// Unregisters `id` (no-op when absent).
  void Remove(int id);

  /// Ids of expressions at least one of whose audited attributes appears
  /// in `accessed`, in ascending order.
  std::vector<int> Candidates(const std::set<ColumnRef>& accessed) const;

  size_t size() const { return attrs_by_id_.size(); }

 private:
  std::unordered_map<ColumnRef, std::set<int>, ColumnRefHash> by_column_;
  std::map<int, std::vector<ColumnRef>> attrs_by_id_;
};

/// Memoizes the static per-query / per-(query, expression) decisions and
/// the executed access profiles, keyed on (query shape [, expression
/// hash], state key). The state key is chosen by the caller for what the
/// decision actually depends on:
///   - purely static decisions (accessed columns, batch candidacy) read
///     only schemas, so their key is the catalog epoch — row writes never
///     evict them;
///   - executed access profiles read table data, so their key is the
///     EpochFingerprint of the version epochs of exactly the tables the
///     query touches — a write to P-Employ cannot evict a P-Health
///     profile.
/// Thread-safe: screenings of distinct expressions share one cache across
/// worker threads. Stale hits are impossible by construction (the state
/// key is part of every entry's key), so nothing invalidates the cache on
/// writes. Each section holds at most its cap of entries; at the cap the
/// section is dropped whole (cheap, rare, and correctness never depends
/// on retention).
class DecisionCache {
 public:
  static constexpr size_t kMaxColumnEntries = 4096;
  static constexpr size_t kMaxDecisionEntries = 8192;
  /// Executed access profiles are the heavyweight entries (they hold the
  /// query's full lineage-bearing result), so their cap is much smaller.
  static constexpr size_t kMaxProfileEntries = 256;

  DecisionCache() = default;

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  /// The statically accessed columns of one parsed query
  /// (StaticAccessedColumns), memoized — including error outcomes, so a
  /// hit reproduces the miss byte for byte.
  struct ColumnsEntry {
    Status status;
    /// Set iff status.ok(). Shared: readers keep the set alive without
    /// copying it.
    std::shared_ptr<const std::set<ColumnRef>> columns;
  };
  Result<ColumnsEntry> AccessedColumns(const sql::QueryShape& shape,
                                       bool outputs_only, uint64_t state_key,
                                       const sql::SelectStatement& stmt,
                                       const Catalog& catalog);

  /// IsBatchCandidate memoized per (query shape, expression hash).
  /// `expr_hash` must identify the qualified expression (a structural
  /// hash of its canonical form); `options` variations are folded into
  /// the key.
  Result<bool> BatchCandidate(const sql::QueryShape& shape,
                              uint64_t expr_hash, uint64_t state_key,
                              const sql::SelectStatement& stmt,
                              const AuditExpression& expr,
                              const Catalog& catalog,
                              const CandidateOptions& options);

  /// Executed access profile of one query against the data state
  /// identified by `state_key`. Only successful executions are cached
  /// (failures are deterministic and cheap relative to a successful
  /// execution). Returns nullptr on miss; the caller computes and
  /// Store()s.
  std::shared_ptr<const AccessProfile> LookupProfile(
      const sql::QueryShape& shape, uint64_t state_key) const;
  void StoreProfile(const sql::QueryShape& shape, uint64_t state_key,
                    std::shared_ptr<const AccessProfile> profile);

  AuditIndexStats* stats() { return &stats_; }
  const AuditIndexStats& stats() const { return stats_; }

  /// Current entry counts, for tests and metrics.
  size_t column_entries() const;
  size_t decision_entries() const;
  size_t profile_entries() const;

 private:
  struct Decision {
    Status status;
    bool candidate = false;
  };

  mutable AuditIndexStats stats_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ColumnsEntry> columns_;
  std::unordered_map<std::string, Decision> decisions_;
  std::unordered_map<std::string, std::shared_ptr<const AccessProfile>>
      profiles_;
};

/// IsBatchCandidate through an optional cache: with `cache` null this is
/// exactly IsBatchCandidate (the offline Auditor with default
/// AuditOptions runs uncached). Cached or not, the outcome is the same.
Result<bool> CachedBatchCandidate(DecisionCache* cache,
                                  const sql::QueryShape& shape,
                                  uint64_t expr_hash,
                                  uint64_t state_key,
                                  const sql::SelectStatement& stmt,
                                  const AuditExpression& expr,
                                  const Catalog& catalog,
                                  const CandidateOptions& options);

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_AUDIT_INDEX_H_
