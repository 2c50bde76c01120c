#ifndef AUDITDB_AUDIT_BASELINE_AGRAWAL_H_
#define AUDITDB_AUDIT_BASELINE_AGRAWAL_H_

#include <string>
#include <vector>

#include "src/audit/audit_expression.h"
#include "src/backlog/backlog.h"
#include "src/engine/lineage.h"
#include "src/querylog/query_log.h"

namespace auditdb {
namespace audit {

/// Direct reimplementation of the single-query semantic audit of Agrawal
/// et al. (VLDB'04), used as a correctness and performance baseline for
/// the unified model (which expresses the same notion as all-mandatory
/// attributes, THRESHOLD 1, INDISPENSABLE true).
///
/// A logged query Q is suspicious w.r.t. audit expression A iff
///   (1) Q is a candidate: C_Q ⊇ C_A and the predicates are consistent;
///   (2) Q and A share an indispensable tuple: some tuple of the cross
///       product of their common tables appears jointly in the lineage of
///       both Q's result and A's target view, evaluated on the database
///       state Q originally ran against.
class AgrawalAuditor {
 public:
  AgrawalAuditor(const Database* db, const Backlog* backlog,
                 const QueryLog* log)
      : db_(db), backlog_(backlog), log_(log) {}

  struct Result_ {
    std::vector<int64_t> suspicious_ids;
    size_t num_candidates = 0;
  };

  /// Audits every admitted logged query individually. The expression's
  /// attribute structure is flattened to its attribute set (the audit
  /// list); groups are ignored, as the original syntax has none.
  Result<Result_> Audit(const AuditExpression& expr) const;

  /// Single query check against a given database state (exposed for
  /// differential tests).
  static Result<bool> IsSuspicious(const sql::SelectStatement& query,
                                   const AuditExpression& expr,
                                   const DatabaseView& state);

 private:
  const Database* db_;
  const Backlog* backlog_;
  const QueryLog* log_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_BASELINE_AGRAWAL_H_
