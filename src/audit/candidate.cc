#include "src/audit/candidate.h"

#include "src/expr/analysis.h"
#include "src/expr/satisfiability.h"

namespace auditdb {
namespace audit {

namespace {

Result<std::set<ColumnRef>> OutputColumns(const sql::SelectStatement& query,
                                          const Catalog& catalog) {
  std::set<ColumnRef> out;
  if (query.select_star) {
    for (const auto& table_name : query.from) {
      auto table = catalog.GetTable(table_name);
      if (!table.ok()) return table.status();
      for (const auto& col : (*table)->columns()) {
        out.insert(ColumnRef{table_name, col.name});
      }
    }
  } else {
    for (const auto& ref : query.select_list) {
      auto resolved = catalog.Resolve(ref, query.from);
      if (!resolved.ok()) return resolved.status();
      out.insert(*resolved);
    }
  }
  return out;
}

Result<ExprPtr> QualifiedWhere(const sql::SelectStatement& query,
                               const Catalog& catalog) {
  if (!query.where) return ExprPtr();
  ExprPtr where = query.where->Clone();
  AUDITDB_RETURN_IF_ERROR(QualifyColumns(where.get(), catalog, query.from));
  return where;
}

/// The accessed-columns set the expression's mode reads.
const Result<std::set<ColumnRef>>& Accessed(const StaticFacts& facts,
                                            const AuditExpression& expr) {
  return expr.indispensable ? facts.accessed : facts.outputs;
}

/// Shared consistency check: the conjunction of the query's and the audit
/// expression's WHERE clauses must not be provably empty.
Result<bool> PredicatesConsistent(const StaticFacts& facts,
                                  const AuditExpression& expr,
                                  const CandidateOptions& options) {
  if (!options.use_satisfiability || !expr.where) return true;
  if (!facts.where.ok()) return facts.where.status();
  if (*facts.where == nullptr) return true;
  return MaybeSatisfiable(facts.where->get(), expr.where.get());
}

}  // namespace

StaticFacts ComputeStaticFacts(const sql::SelectStatement& query,
                               const Catalog& catalog) {
  Result<std::set<ColumnRef>> outputs = OutputColumns(query, catalog);
  Result<ExprPtr> where = QualifiedWhere(query, catalog);
  Result<std::set<ColumnRef>> accessed = outputs;
  if (accessed.ok()) {
    if (!where.ok()) {
      accessed = where.status();
    } else if (*where != nullptr) {
      for (const auto& col : CollectColumns(where->get())) {
        accessed->insert(col);
      }
    }
  }
  return StaticFacts{std::move(accessed), std::move(outputs),
                     std::move(where)};
}

Result<std::set<ColumnRef>> StaticAccessedColumns(
    const sql::SelectStatement& query, const Catalog& catalog,
    bool outputs_only) {
  StaticFacts facts = ComputeStaticFacts(query, catalog);
  return outputs_only ? std::move(facts.outputs) : std::move(facts.accessed);
}

Result<bool> IsBatchCandidate(const StaticFacts& facts,
                              const AuditExpression& expr,
                              const std::set<ColumnRef>& audited,
                              const CandidateOptions& options) {
  const auto& accessed = Accessed(facts, expr);
  if (!accessed.ok()) return accessed.status();

  bool touches = false;
  for (const auto& attr : audited) {
    if (accessed->count(attr) > 0) {
      touches = true;
      break;
    }
  }
  if (!touches) return false;
  return PredicatesConsistent(facts, expr, options);
}

Result<bool> IsBatchCandidate(const sql::SelectStatement& query,
                              const AuditExpression& expr,
                              const Catalog& catalog,
                              const CandidateOptions& options) {
  return IsBatchCandidate(ComputeStaticFacts(query, catalog), expr,
                          expr.attrs.AllAttributes(), options);
}

Result<bool> IsSingleCandidate(const StaticFacts& facts,
                               const AuditExpression& expr,
                               const CandidateOptions& options) {
  const auto& accessed = Accessed(facts, expr);
  if (!accessed.ok()) return accessed.status();

  bool covers_scheme = false;
  for (const auto& scheme : expr.attrs.EnumerateSchemes()) {
    bool covered = true;
    for (const auto& attr : scheme) {
      if (accessed->count(attr) == 0) {
        covered = false;
        break;
      }
    }
    if (covered) {
      covers_scheme = true;
      break;
    }
  }
  if (!covers_scheme) return false;
  return PredicatesConsistent(facts, expr, options);
}

Result<bool> IsSingleCandidate(const sql::SelectStatement& query,
                               const AuditExpression& expr,
                               const Catalog& catalog,
                               const CandidateOptions& options) {
  return IsSingleCandidate(ComputeStaticFacts(query, catalog), expr,
                           options);
}

}  // namespace audit
}  // namespace auditdb
