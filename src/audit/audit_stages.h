#ifndef AUDITDB_AUDIT_AUDIT_STAGES_H_
#define AUDITDB_AUDIT_AUDIT_STAGES_H_

#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/granule.h"
#include "src/engine/lineage.h"
#include "src/sql/query_shape.h"

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
  /// Structural shape of the entry's text: equal shapes parse to equal
  /// statements, so they re-execute identically on one state.
  sql::QueryShape shape;
  /// The statement's static facts against the screened catalog.
  std::shared_ptr<const StaticFacts> facts;
};

/// Phases 1+2 over one contiguous log range.
struct StaticScreenResult {
  /// One verdict per log entry in [begin, end), in log order.
  std::vector<QueryVerdict> verdicts;
  /// Candidates of the range, in log order.
  std::vector<ScreenedCandidate> candidates;
  size_t num_admitted = 0;
};

/// Names the catalog a static screen runs against, so the screen can
/// read each shape's static facts memoized for it (ParsedShape::Facts).
/// With `database_id` 0 the facts are computed afresh per shape and
/// range. Results are byte-identical either way (errors are memoized
/// too).
struct CandidateCacheContext {
  /// Unused by the screen (the memoized facts do not depend on the
  /// expression); the benchmark driver still sets it.
  uint64_t expr_hash = 0;
  /// The catalog epoch of the pinned view.
  uint64_t state_key = 0;
  /// The pinned view's DatabaseView::database_id().
  uint64_t database_id = 0;
};

/// Runs limiting-parameter admission, SQL parsing, and static candidacy
/// over log entries [begin, end). Parsing and screening run once per
/// structural query shape (sound: shape-equal entries lex to identical
/// token streams, so they parse and screen identically): the parse is
/// the log's ParsedShape, shared by every audit, and so are its static
/// facts when `cache_ctx` names the catalog. Admission stays per entry
/// because it reads the entry's user/role/purpose/time annotations.
/// `expr` must be qualified. Reads shared state only (the memos are
/// internally synchronized), so ranges can run concurrently.
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
                            const std::vector<ScreenedCandidate>& candidates,
                            AuditReport* report);

/// Phase-5 greedy batch minimization: drops each profile (in id order) if
/// the batch stays suspicious without it; returns the kept query ids.
/// The kept list is the one n successive CheckBatchSuspicion calls on the
/// shrinking batch would give, but the cost is one pass over all supports
/// (every valid fact's components and every query's lineage, once) plus
/// O(|supports of i|) per drop test, instead of n full batch checks.
/// Only `options.mode` is read. Value containment (INDISPENSABLE false)
/// needs profiles computed with ExecOutput::kLineageAndValues.
/// Profiles may repeat (queries that share one execution share it by
/// pointer); each entry still counts as its own query.
Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr,
    const std::vector<const AccessProfile*>& profiles,
    const std::vector<int64_t>& profile_ids, const SuspicionOptions& options);

/// MinimizeBatch over profiles held by value.
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
