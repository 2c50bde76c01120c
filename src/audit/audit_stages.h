#ifndef AUDITDB_AUDIT_AUDIT_STAGES_H_
#define AUDITDB_AUDIT_AUDIT_STAGES_H_

#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/granule.h"
#include "src/engine/lineage.h"

namespace auditdb {
namespace audit {

/// Stage helpers of the audit pipeline. Auditor::AuditPinned runs them
/// over shards (on the caller thread or a worker pool), and the baseline
/// auditors and benchmark drivers call them directly, so every caller
/// runs the *same* per-query logic.

/// A query that survived the static phase within one log shard.
struct ScreenedCandidate {
  /// Position in the QueryLog (global, not shard-relative), so shard
  /// results merge back into log order.
  size_t log_index = 0;
  /// Parsed statement; shared because structurally-identical log entries
  /// (same shape) are parsed once and reference one immutable AST.
  std::shared_ptr<const sql::SelectStatement> stmt;
};

/// Phases 1+2 over one contiguous log range.
struct StaticScreenResult {
  /// One verdict per log entry in [begin, end), in log order.
  std::vector<QueryVerdict> verdicts;
  /// Candidates of the range, in log order.
  std::vector<ScreenedCandidate> candidates;
  size_t num_admitted = 0;
};

/// Decision-cache context for the static phase (audit_index.h). With
/// `cache` null every candidacy check runs directly; otherwise checks are
/// memoized under (query shape, `expr_hash`, `state_key`). Results are
/// byte-identical either way (errors are cached too).
struct CandidateCacheContext {
  DecisionCache* cache = nullptr;
  /// Structural hash of the qualified expression being audited.
  uint64_t expr_hash = 0;
  /// State key the static decisions are valid for (the catalog epoch of
  /// the pinned view; the global mutation count in ablation mode).
  uint64_t state_key = 0;
};

/// Runs limiting-parameter admission, SQL parsing, and static candidacy
/// over log entries [begin, end). Parsing and screening run once per
/// structural query shape (sound: shape-equal entries lex to identical
/// token streams, so they parse and screen identically); admission stays
/// per entry because it reads the entry's user/role/purpose/time
/// annotations. `expr` must be qualified. Pure apart
/// from the (internally synchronized) cache: reads shared state only, so
/// ranges can run concurrently.
StaticScreenResult StaticScreenRange(const AuditExpression& expr,
                                     const QueryLog& log,
                                     const Catalog& catalog,
                                     const CandidateOptions& options,
                                     size_t begin, size_t end,
                                     const CandidateCacheContext& cache_ctx =
                                         CandidateCacheContext{});

/// Data-independent batch verdict (Section 2.2): fills
/// report->batch_suspicious, num_schemes and evidence from the
/// candidates' static column sets. The covered-column union is
/// order-insensitive, so any shard-merge order yields identical output.
void StaticOnlyBatchVerdict(const AuditExpression& expr,
                            const Catalog& catalog,
                            const std::vector<const sql::SelectStatement*>&
                                candidate_stmts,
                            AuditReport* report);

/// Phase-5 greedy batch minimization: drops each profile (in id order) if
/// the batch stays suspicious without it; returns the kept query ids.
/// The kept list is the one n successive CheckBatchSuspicion calls on the
/// shrinking batch would give, but the cost is one pass over all supports
/// (every valid fact's components and every query's lineage, once) plus
/// O(|supports of i|) per drop test, instead of n full batch checks.
/// Only `options.mode` is read.
/// In kJointPerQuery mode a profile whose lineage cannot be projected
/// onto a scheme's tables fails the call; it never shortens the list.
Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr, const std::vector<AccessProfile>& profiles,
    const std::vector<int64_t>& profile_ids, const SuspicionOptions& options);

/// Tables common to the query's and the audit expression's FROM clauses,
/// in the audit expression's order. Shared by the Agrawal and Motwani
/// baselines.
std::vector<std::string> CommonTables(const sql::SelectStatement& query,
                                      const AuditExpression& expr);

/// Whether the executed query (`query_result`) shares an indispensable
/// tuple with the audit expression's target data over the `common`
/// tables on `state`: both lineages are projected onto `common` and
/// intersected. The core dynamic test of both baseline auditors. A
/// single common table is tested with one word-wide bitmap Intersects.
Result<bool> SharesIndispensableTuple(const QueryResult& query_result,
                                      const AuditExpression& expr,
                                      const std::vector<std::string>& common,
                                      const DatabaseView& state);

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_AUDIT_STAGES_H_
