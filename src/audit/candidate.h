#ifndef AUDITDB_AUDIT_CANDIDATE_H_
#define AUDITDB_AUDIT_CANDIDATE_H_

#include <memory>
#include <set>

#include "src/audit/audit_expression.h"
#include "src/catalog/catalog.h"
#include "src/sql/parser.h"

namespace auditdb {
namespace audit {

struct CandidateOptions {
  /// Prune queries whose WHERE clause provably conflicts with the audit
  /// WHERE clause (data-independent satisfiability check). Disabling this
  /// keeps the attribute-only filter (the ablation mode).
  bool use_satisfiability = true;
};

/// Everything the static candidacy checks read of one query against one
/// catalog, each part with the Status it failed with. They depend on the
/// query's text and the catalog only, so the query log memoizes them per
/// (shape, catalog) on the shape's ParsedShape.
struct StaticFacts {
  /// Projection (star-expanded) plus WHERE columns, fully qualified.
  Result<std::set<ColumnRef>> accessed;
  /// The projection alone: the C_OQ set used when INDISPENSABLE = false.
  Result<std::set<ColumnRef>> outputs;
  /// The WHERE clause with its columns qualified; null without one.
  Result<ExprPtr> where;
};

/// Computes the static facts of `query` against `catalog`.
StaticFacts ComputeStaticFacts(const sql::SelectStatement& query,
                               const Catalog& catalog);

/// The columns a query accesses, determined statically: projection list
/// (star-expanded) plus WHERE columns, fully qualified. With
/// `outputs_only`, just the projection (the C_OQ set used when
/// INDISPENSABLE = false).
Result<std::set<ColumnRef>> StaticAccessedColumns(
    const sql::SelectStatement& query, const Catalog& catalog,
    bool outputs_only);

/// Data-independent candidacy for *batch* auditing (Definition 1): the
/// query cannot be ruled out syntactically — it references at least one
/// attribute of some granule scheme and its predicate does not provably
/// conflict with the audit predicate. `expr` must be qualified and
/// `audited` must be its expr.attrs.AllAttributes(), which a caller
/// screening many queries computes once.
Result<bool> IsBatchCandidate(const StaticFacts& facts,
                              const AuditExpression& expr,
                              const std::set<ColumnRef>& audited,
                              const CandidateOptions& options =
                                  CandidateOptions{});

/// IsBatchCandidate over freshly computed facts.
Result<bool> IsBatchCandidate(const sql::SelectStatement& query,
                              const AuditExpression& expr,
                              const Catalog& catalog,
                              const CandidateOptions& options =
                                  CandidateOptions{});

/// Data-independent candidacy for *single-query* auditing: the query by
/// itself covers every attribute of at least one granule scheme (so it
/// could be suspicious alone), and is predicate-consistent.
Result<bool> IsSingleCandidate(const StaticFacts& facts,
                               const AuditExpression& expr,
                               const CandidateOptions& options =
                                   CandidateOptions{});

/// IsSingleCandidate over freshly computed facts.
Result<bool> IsSingleCandidate(const sql::SelectStatement& query,
                               const AuditExpression& expr,
                               const Catalog& catalog,
                               const CandidateOptions& options =
                                   CandidateOptions{});

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_CANDIDATE_H_
