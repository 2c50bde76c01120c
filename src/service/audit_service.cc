#include "src/service/audit_service.h"

#include <functional>

namespace auditdb {
namespace service {

namespace {

uint64_t Micros(double seconds) {
  return static_cast<uint64_t>(seconds * 1e6);
}

}  // namespace

AuditService::AuditService(const Database* db, const Backlog* backlog,
                           const QueryLog* log, AuditServiceOptions options)
    : auditor_(db, backlog, log),
      pool_(options.pool, &metrics_),
      cache_(std::make_shared<audit::DecisionCache>()),
      runs_(metrics_.counter("audit.runs")),
      static_stage_micros_(metrics_.histogram("audit.static_stage_micros")),
      view_stage_micros_(metrics_.histogram("audit.view_stage_micros")),
      exec_stage_micros_(metrics_.histogram("audit.exec_stage_micros")),
      check_stage_micros_(metrics_.histogram("audit.check_stage_micros")) {}

Result<audit::AuditReport> AuditService::Run(
    const audit::AuditExpression& expr, const audit::AuditPin& pin,
    const audit::AuditOptions& options, ThreadPool* pool) {
  runs_->Increment();
  audit::AuditOptions effective = options;
  if (effective.cache == nullptr) effective.cache = cache_.get();
  auto report = auditor_.AuditPinned(expr, effective, pin, pool);
  if (report.ok()) {
    static_stage_micros_->Observe(Micros(report->static_seconds));
    view_stage_micros_->Observe(Micros(report->view_seconds));
    exec_stage_micros_->Observe(Micros(report->exec_seconds));
    check_stage_micros_->Observe(Micros(report->check_seconds));
  }
  return report;
}

Result<audit::AuditReport> AuditService::Audit(
    const std::string& audit_text, Timestamp now,
    const audit::AuditOptions& options) {
  return AuditPinned(audit_text, now, Pin(), options);
}

Result<audit::AuditReport> AuditService::Audit(
    const audit::AuditExpression& expr, const audit::AuditOptions& options) {
  return Run(expr, Pin(), options, &pool_);
}

Result<audit::AuditReport> AuditService::AuditPinned(
    const std::string& audit_text, Timestamp now, const audit::AuditPin& pin,
    const audit::AuditOptions& options) {
  auto expr = audit::ParseAudit(audit_text, now);
  if (!expr.ok()) return expr.status();
  return Run(*expr, pin, options, &pool_);
}

std::vector<AuditService::ExpressionScreening> AuditService::ScreenLibrary(
    const audit::ExpressionLibrary& library,
    const audit::AuditOptions& options) {
  // One pin for the whole screen: every library expression audits the
  // same consistent cut.
  return ScreenLibraryPinned(library, Pin(), options);
}

std::vector<AuditService::ExpressionScreening>
AuditService::ScreenLibraryPinned(const audit::ExpressionLibrary& library,
                                  const audit::AuditPin& pin,
                                  const audit::AuditOptions& options) {
  auto ids = library.ids();
  std::vector<ExpressionScreening> out(ids.size());
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i].expression_id = ids[i];
    tasks.push_back([&, i] {
      const audit::AuditExpression* expr = library.Get(ids[i]);
      if (expr == nullptr) {
        out[i].status = Status::NotFound("expression evicted mid-screen");
        return Status::Ok();
      }
      // Already on a pool worker: audit on this thread (a null pool), as
      // fanning out to the own pool could deadlock (see RunBatch).
      auto report = Run(*expr, pin, options, nullptr);
      if (report.ok()) {
        out[i].report = std::move(*report);
      } else {
        out[i].status = report.status();
      }
      return Status::Ok();
    });
  }
  RunBatch(&pool_, std::move(tasks));
  return out;
}

}  // namespace service
}  // namespace auditdb
