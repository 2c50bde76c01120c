#ifndef AUDITDB_SERVICE_AUDIT_SERVICE_H_
#define AUDITDB_SERVICE_AUDIT_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/audit/expression_library.h"
#include "src/service/thread_pool.h"

namespace auditdb {
namespace service {

struct AuditServiceOptions {
  ThreadPoolOptions pool;
};

/// The deployable front door of concurrent auditing: pins the bound
/// (database, backlog, query log) triple and runs Auditor::AuditPinned on
/// a service-owned worker pool, metering every run. Intended lifecycle:
/// construct once, serve many audit runs, read metrics, destroy (joins
/// workers).
///
/// Metrics: the pool's "pool.*" instruments, the "audit.runs" counter
/// (every audit run, library screenings included) and the
/// "audit.{static,view,exec,check}_stage_micros" histograms, observed
/// from each successful report's phase timings.
class AuditService {
 public:
  /// All three stores must outlive the service.
  AuditService(const Database* db, const Backlog* backlog,
               const QueryLog* log,
               AuditServiceOptions options = AuditServiceOptions{});

  /// Parses (anchored at `now`) and audits on the pool. Identical output
  /// (AuditReport::CanonicalString) to the serial Auditor.
  Result<audit::AuditReport> Audit(const std::string& audit_text,
                                   Timestamp now,
                                   const audit::AuditOptions& options =
                                       audit::AuditOptions{});

  /// Audits a parsed expression on the pool.
  Result<audit::AuditReport> Audit(const audit::AuditExpression& expr,
                                   const audit::AuditOptions& options =
                                       audit::AuditOptions{});

  /// Outcome of screening one library member.
  struct ExpressionScreening {
    int expression_id = 0;
    Status status;
    /// Valid iff status.ok().
    audit::AuditReport report;
  };

  /// Screens every member of a standing-expression library against one
  /// pin of the bound log, one pool task per expression, results in
  /// ascending id order. A failed expression records its status; it
  /// never fails the sweep.
  std::vector<ExpressionScreening> ScreenLibrary(
      const audit::ExpressionLibrary& library,
      const audit::AuditOptions& options = audit::AuditOptions{});

  /// Captures a consistent pin of the bound stores (Auditor::Pin). Cheap
  /// (no copies); the caller decides what lock, if any, makes the capture
  /// atomic against external state transitions.
  audit::AuditPin Pin() const { return auditor_.Pin(); }

  /// Audits against a caller-captured pin; the run never reads live
  /// state, so it can proceed with no external lock held while writers
  /// commit concurrently.
  Result<audit::AuditReport> AuditPinned(const std::string& audit_text,
                                         Timestamp now,
                                         const audit::AuditPin& pin,
                                         const audit::AuditOptions& options =
                                             audit::AuditOptions{});

  /// ScreenLibrary against a caller-captured pin (see AuditPinned).
  std::vector<ExpressionScreening> ScreenLibraryPinned(
      const audit::ExpressionLibrary& library, const audit::AuditPin& pin,
      const audit::AuditOptions& options = audit::AuditOptions{});

  size_t num_threads() const { return pool_.num_threads(); }
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Counters, gauges and latency histograms of the pool and the audit
  /// runs as one JSON object.
  std::string MetricsJson() const { return metrics_.ToJson(); }

  ThreadPool* pool() { return &pool_; }

  /// The service-owned decision cache (never null). Shared_ptr so a
  /// database change listener can keep invalidating it safely even if the
  /// service is destroyed first.
  const std::shared_ptr<audit::DecisionCache>& decision_cache() const {
    return cache_;
  }

 private:
  /// Audits `expr` against `pin` with the service cache injected (unless
  /// the caller bound its own), fanning out over `pool` (null: the
  /// calling thread), and meters the run.
  Result<audit::AuditReport> Run(const audit::AuditExpression& expr,
                                 const audit::AuditPin& pin,
                                 const audit::AuditOptions& options,
                                 ThreadPool* pool);

  audit::Auditor auditor_;
  MetricsRegistry metrics_;
  ThreadPool pool_;
  std::shared_ptr<audit::DecisionCache> cache_;

  Counter* runs_;
  Histogram* static_stage_micros_;
  Histogram* view_stage_micros_;
  Histogram* exec_stage_micros_;
  Histogram* check_stage_micros_;
};

}  // namespace service
}  // namespace auditdb

#endif  // AUDITDB_SERVICE_AUDIT_SERVICE_H_
