#ifndef AUDITDB_AUDIT_BASELINE_MOTWANI_H_
#define AUDITDB_AUDIT_BASELINE_MOTWANI_H_

#include <vector>

#include "src/audit/audit_expression.h"
#include "src/backlog/backlog.h"
#include "src/engine/executor.h"
#include "src/querylog/query_log.h"

namespace auditdb {
namespace audit {

/// Direct reimplementation of the batch-auditing notions of Motwani,
/// Nabar & Thomas (ICDE'07 workshop), as baselines for the unified model.
///
/// Batch semantic suspicion (Definition 4): some subset Q' of the batch
/// exists where every query shares an indispensable tuple with A (checked
/// on the state each query ran against) and Q' together accesses every
/// column of the audit list. Since sharing a tuple is per-query, the
/// batch is suspicious iff the queries that individually share a tuple
/// jointly cover the audit columns.
///
/// Weak syntactic suspicion (Definition 7): data-independent — some
/// subset exists whose queries could share an indispensable tuple in
/// *some* database instance (predicate consistency) and that accesses at
/// least one audit-list column.
class MotwaniAuditor {
 public:
  MotwaniAuditor(const Database* db, const Backlog* backlog,
                 const QueryLog* log)
      : db_(db), backlog_(backlog), log_(log) {}

  struct BatchResult {
    bool semantically_suspicious = false;
    /// Queries that share an indispensable tuple with A (the witnesses of
    /// semantic suspicion).
    std::vector<int64_t> sharing_ids;
    bool weakly_syntactically_suspicious = false;
    /// Queries witnessing weak syntactic suspicion.
    std::vector<int64_t> weak_ids;
  };

  Result<BatchResult> Audit(const AuditExpression& expr) const;

 private:
  const Database* db_;
  const Backlog* backlog_;
  const QueryLog* log_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_BASELINE_MOTWANI_H_
