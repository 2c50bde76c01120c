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
#include "src/engine/lineage.h"
#include "src/sql/query_shape.h"

namespace auditdb {
namespace audit {

/// The standing-expression audit index (the paper's future-work ask for
/// "efficient algorithms mapping audit expressions to suspicious query
/// batches"): an inverted index from audited attribute to expression id,
/// consulted *before* any per-expression work, plus the online monitor's
/// cache of executed access profiles, which the AuditService shares with
/// it.

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
  /// Decision-cache traffic (executed access profiles).
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

/// Memoizes the online monitor's executed access profiles, keyed on
/// (query shape, state key). The state key is the EpochFingerprint of the
/// version epochs of exactly the tables the query touches — a write to
/// P-Employ cannot evict a P-Health profile. (Static decisions read only
/// the query's text and the catalog; the query log memoizes those per
/// shape, see ParsedShape.) Thread-safe. Stale hits are impossible by
/// construction (the state key is part of every entry's key), so nothing
/// invalidates the cache on writes. It holds at most kMaxProfileEntries;
/// at the cap it is dropped whole (cheap, rare, and correctness never
/// depends on retention).
class DecisionCache {
 public:
  /// Executed access profiles hold the query's full lineage-bearing
  /// result, so the cap is small.
  static constexpr size_t kMaxProfileEntries = 256;

  DecisionCache() = default;

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

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

  /// Current entry count, for tests and metrics.
  size_t profile_entries() const;

 private:
  mutable AuditIndexStats stats_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const AccessProfile>>
      profiles_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_AUDIT_INDEX_H_
