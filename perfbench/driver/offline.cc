/// Offline audit phase: the serial Auditor end to end, and the traced
/// stage-by-stage driver that reproduces Auditor::AuditPinned through
/// the layers' public functions with a span around each call.

#include <sched.h>

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "driver/bench.h"
#include "driver/calibration.h"
#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/auditor.h"
#include "src/audit/target_view.h"

namespace perfbench {

namespace {

/// One audit through the public stage functions, in the order and with
/// the options Auditor::AuditPinned uses (default AuditOptions). Returns
/// the report it assembles, phase timings included.
Result<audit::AuditReport> StagedAudit(const World& world, Tracer* tracer,
                                       int64_t op) {
  const audit::AuditOptions options;
  ScopedSpan whole(tracer, "audit.total", op);
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  audit::AuditPin pin = auditor.Pin();
  auto parsed = audit::ParseAudit(CanonicalAudit(), AuditNow());
  if (!parsed.ok()) return parsed.status();
  audit::AuditExpression expr = parsed->Clone();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(pin.db.catalog()));

  audit::AuditReport report;
  report.expression = expr.ToString();
  report.num_logged = pin.log_size;

  audit::CandidateCacheContext cache_ctx;
  cache_ctx.expr_hash = std::hash<std::string>{}(report.expression);
  cache_ctx.state_key = pin.db.catalog_epoch();
  audit::StaticScreenResult screened = Traced(tracer, "audit.static", op, [&] {
    return audit::StaticScreenRange(expr, world.log, pin.db.catalog(),
                                    options.candidate, 0, pin.log_size,
                                    cache_ctx);
  });
  report.verdicts = std::move(screened.verdicts);
  report.num_admitted = screened.num_admitted;
  report.num_candidates = screened.candidates.size();
  if (tracer != nullptr) {
    tracer->Count("audit.static.admitted", op, screened.num_admitted);
    tracer->Count("audit.static.candidates", op, report.num_candidates);
  }

  auto view = Traced(tracer, "audit.view", op, [&] {
    return audit::ComputeTargetViewOverVersions(
        expr, world.backlog, options.exec, pin.backlog_events);
  });
  if (!view.ok()) return view.status();
  report.target_view_size = view->size();
  auto schemes = audit::BuildSchemes(expr);
  report.num_schemes = schemes.size();
  if (tracer != nullptr) {
    tracer->Count("audit.view.versions", op,
                  world.backlog
                      .VersionTimestamps(expr.data_interval,
                                         pin.backlog_events)
                      .size());
    tracer->Count("audit.view.rows", op, view->size());
  }

  std::unordered_map<size_t, std::unique_ptr<Snapshot>> snapshots;
  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
  for (const auto& candidate : screened.candidates) {
    const LoggedQuery& logged = world.log.Entry(candidate.log_index);
    size_t key =
        world.backlog.EventCountAt(logged.timestamp, pin.backlog_events);
    auto it = snapshots.find(key);
    if (it == snapshots.end()) {
      auto snapshot = Traced(tracer, "backlog.snapshot", op, [&] {
        return world.backlog.SnapshotAt(logged.timestamp,
                                        pin.backlog_events);
      });
      if (!snapshot.ok()) return snapshot.status();
      if (tracer != nullptr) {
        tracer->Count("backlog.snapshot.count", op, 1);
        tracer->Count("backlog.snapshot.events_scanned", op, key);
      }
      it = snapshots
               .emplace(key, std::make_unique<Snapshot>(std::move(*snapshot)))
               .first;
    }
    auto profile = Traced(tracer, "engine.profile", op, [&] {
      return ComputeAccessProfile(*candidate.stmt, it->second->View(),
                                  options.exec);
    });
    if (tracer != nullptr) tracer->Count("engine.profile.calls", op, 1);
    // Mirrors the Auditor: a candidate that fails to execute is skipped.
    if (!profile.ok()) continue;
    if (tracer != nullptr) {
      tracer->Count("engine.profile.lineage_rows", op,
                    profile->result.lineage.size());
    }
    profiles.push_back(std::move(*profile));
    profile_ids.push_back(logged.id);
    ++report.num_executed;
  }

  std::vector<const AccessProfile*> batch;
  for (const auto& p : profiles) batch.push_back(&p);
  auto batch_result = Traced(tracer, "audit.check.batch", op, [&] {
    return audit::CheckBatchSuspicion(*view, schemes, expr.threshold,
                                      expr.indispensable, batch,
                                      options.suspicion);
  });
  if (!batch_result.ok()) return batch_result.status();
  report.batch_suspicious = batch_result->suspicious;
  report.evidence = batch_result->Describe(*view, schemes);

  std::unordered_map<int64_t, size_t> profile_by_id;
  for (size_t i = 0; i < profile_ids.size(); ++i) {
    profile_by_id[profile_ids[i]] = i;
  }
  for (auto& verdict : report.verdicts) {
    auto found = profile_by_id.find(verdict.query_id);
    if (found == profile_by_id.end()) continue;
    std::vector<const AccessProfile*> single{&profiles[found->second]};
    auto single_result = Traced(tracer, "audit.check.single", op, [&] {
      return audit::CheckBatchSuspicion(*view, schemes, expr.threshold,
                                        expr.indispensable, single,
                                        options.suspicion);
    });
    if (tracer != nullptr) tracer->Count("audit.check.single_calls", op, 1);
    if (!single_result.ok()) return single_result.status();
    verdict.suspicious_alone = single_result->suspicious;
  }

  if (report.batch_suspicious) {
    auto minimal = Traced(tracer, "audit.check.minimize", op, [&] {
      return audit::MinimizeBatch(*view, schemes, expr, profiles,
                                  profile_ids, options.suspicion);
    });
    if (!minimal.ok()) return minimal.status();
    report.minimal_batch = std::move(*minimal);
  }
  if (tracer != nullptr) {
    tracer->Count("audit.check.minimal_size", op,
                  report.minimal_batch.size());
  }
  return report;
}

/// Moves the calling thread to the next CPU it may run on, one audit at a
/// time (`*next` counts on across rounds), and restores its CPU mask when
/// destroyed. On a shared host each
/// vCPU is slowed by its own neighbours; a serial caller left on one vCPU
/// measures that vCPU, while rotating gives every audit sample the same
/// mix of all of them.
class CpuRotation {
 public:
  explicit CpuRotation(size_t* next) : next_(next) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(*next_)++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  size_t* next_;
};

Result<audit::AuditReport> AuditOnce(const World& world) {
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  return auditor.Audit(CanonicalAudit(), AuditNow());
}

}  // namespace

std::string ReferenceAudit(const World& world) {
  auto report = AuditOnce(world);
  if (!report.ok()) {
    std::fprintf(stderr, "reference audit: %s\n",
                 report.status().ToString().c_str());
    return "";
  }
  return report->CanonicalString();
}

OfflineAudits::OfflineAudits(const World* world, std::string reference,
                             Tracer* tracer)
    : world_(world), reference_(std::move(reference)), tracer_(tracer) {}

void OfflineAudits::Round(double seconds, Report* report) {
  Clock::time_point deadline = Clock::now() + ToDuration(seconds);
  // Pinned per audit only within the round: threads the served phases
  // start from this thread inherit its mask.
  CpuRotation rotation(&next_cpu_);
  for (int done = 0; Clock::now() < deadline || done == 0; ++done) {
    rotation.Next();
    if (tracer_ != nullptr) {
      Clock::time_point t0 = Clock::now();
      auto staged = StagedAudit(*world_, tracer_, next_op_++);
      traced_ms_.Add(MicrosBetween(t0, Clock::now()) / 1000.0);
      report->Attempted(1);
      if (!staged.ok()) {
        report->Failed(1);
        report->Mismatch("stage driver failed: " +
                         staged.status().ToString());
      } else if (staged->CanonicalString() != reference_) {
        report->Mismatch("stage driver differs from the untraced Auditor");
      }
    }
    Clock::time_point t0 = Clock::now();
    auto audited = AuditOnce(*world_);
    untraced_ms_.Add(MicrosBetween(t0, Clock::now()) / 1000.0);
    calibration_ms_.Add(CalibrationMillis());
    report->Attempted(1);
    if (!audited.ok()) {
      report->Failed(1);
      report->Mismatch("offline audit failed: " +
                       audited.status().ToString());
      continue;
    }
    if (audited->CanonicalString() != reference_) {
      report->Mismatch("offline audit differs from the reference");
    }
    report_static_.Add(audited->static_seconds * 1e3);
    report_view_.Add(audited->view_seconds * 1e3);
    report_exec_.Add(audited->exec_seconds * 1e3);
    report_check_.Add(audited->check_seconds * 1e3);
  }
}

double OfflineAudits::HostFactor() const {
  return calibration_ms_.empty()
             ? 1.0
             : kReferenceCalibrationMs / calibration_ms_.Median();
}

void OfflineAudits::Finish(Report* report) const {
  report->AddPercentile("bench.calibration_ms", calibration_ms_, 0.5, "ms");
  if (tracer_ == nullptr) {
    report->AddPercentile("audit_p50_ms", untraced_ms_, 0.5, "ms");
    report->AddPercentile("audit_p90_ms", untraced_ms_, 0.9, "ms");
    report->Add("audit_mean_ms", untraced_ms_.Mean(), "ms",
                untraced_ms_.count(), "mean, equal share of audits per CPU");
    return;
  }
  auto span_ms = [&](const char* metric, const char* span) {
    Samples per_op = tracer_->PerOpMillis(span);
    // A span that never ran in an audit (e.g. no minimization when the
    // batch is clean) contributes zero time, not a missing sample.
    report->Add(metric, per_op.empty() ? 0.0 : per_op.Median(), "ms",
                per_op.count(), "median per audit");
  };
  auto count = [&](const char* metric) {
    Samples per_op = tracer_->PerOpCount(metric);
    report->Add(metric, per_op.empty() ? 0.0 : per_op.Median(), "count",
                per_op.count(), "median per audit");
  };
  span_ms("audit.static.ms", "audit.static");
  count("audit.static.admitted");
  count("audit.static.candidates");
  span_ms("audit.view.ms", "audit.view");
  count("audit.view.versions");
  count("audit.view.rows");
  span_ms("backlog.snapshot.ms", "backlog.snapshot");
  count("backlog.snapshot.count");
  count("backlog.snapshot.events_scanned");
  span_ms("engine.profile.ms", "engine.profile");
  count("engine.profile.calls");
  count("engine.profile.lineage_rows");
  span_ms("audit.check.batch_ms", "audit.check.batch");
  span_ms("audit.check.single_ms", "audit.check.single");
  count("audit.check.single_calls");
  span_ms("audit.check.minimize_ms", "audit.check.minimize");
  count("audit.check.minimal_size");
  Samples minimal = tracer_->PerOpCount("audit.check.minimal_size");
  Samples candidates = tracer_->PerOpCount("audit.static.candidates");
  report->Add("audit.check.minimizer_yield",
              candidates.empty() || candidates.Median() == 0
                  ? 0.0
                  : minimal.Median() / candidates.Median(),
              "ratio", 0, "minimal_size / static.candidates");
  report->Add("audit.report.static_ms", report_static_.Median(), "ms",
              report_static_.count(), "AuditReport::static_seconds");
  report->Add("audit.report.view_ms", report_view_.Median(), "ms",
              report_view_.count(), "AuditReport::view_seconds");
  report->Add("audit.report.exec_ms", report_exec_.Median(), "ms",
              report_exec_.count(), "AuditReport::exec_seconds");
  report->Add("audit.report.check_ms", report_check_.Median(), "ms",
              report_check_.count(), "AuditReport::check_seconds");
  report->AddPercentile("audit.traced_p50_ms", traced_ms_, 0.5, "ms");
  report->AddPercentile("audit.untraced_p50_ms", untraced_ms_, 0.5, "ms");
  report->Add("trace.overhead_ms", traced_ms_.Median() - untraced_ms_.Median(),
              "ms", traced_ms_.count(), "traced minus untraced audit p50");
}

}  // namespace perfbench
