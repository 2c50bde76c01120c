#include "src/audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "src/audit/audit_stages.h"

namespace auditdb {
namespace audit {

std::vector<int64_t> AuditReport::SuspiciousQueryIds() const {
  std::vector<int64_t> out;
  for (const auto& v : verdicts) {
    if (v.suspicious_alone) out.push_back(v.query_id);
  }
  return out;
}

std::string AuditReport::Summary() const {
  std::string out;
  out += "logged=" + std::to_string(num_logged);
  out += " admitted=" + std::to_string(num_admitted);
  out += " candidates=" + std::to_string(num_candidates);
  out += " executed=" + std::to_string(num_executed);
  out += " |U|=" + std::to_string(target_view_size);
  out += " schemes=" + std::to_string(num_schemes);
  out += std::string(" batch_suspicious=") +
         (batch_suspicious ? "true" : "false");
  auto ids = SuspiciousQueryIds();
  out += " suspicious_queries=[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  out += "]";
  return out;
}

std::string AuditReport::DetailedReport(const QueryLog& log) const {
  std::string out;
  out += "=== AUDIT REPORT ===\n";
  out += expression;
  out += "\npipeline: " + std::to_string(num_logged) + " logged -> " +
         std::to_string(num_admitted) + " admitted -> " +
         std::to_string(num_candidates) + " candidates -> " +
         std::to_string(num_executed) + " executed; |U| = " +
         std::to_string(target_view_size) + ", " +
         std::to_string(num_schemes) + " scheme(s)\n";
  {
    char timing[160];
    std::snprintf(timing, sizeof(timing),
                  "phases: static %.1f ms, view %.1f ms, exec %.1f ms, "
                  "check %.1f ms\n",
                  static_seconds * 1e3, view_seconds * 1e3,
                  exec_seconds * 1e3, check_seconds * 1e3);
    out += timing;
  }
  out += std::string("batch verdict: ") +
         (batch_suspicious ? "SUSPICIOUS" : "not suspicious") + "\n";
  if (!minimal_batch.empty()) {
    out += "minimal suspicious batch:";
    for (int64_t id : minimal_batch) out += " #" + std::to_string(id);
    out += "\n";
  }
  out += "\nper-query verdicts:\n";
  for (const auto& verdict : verdicts) {
    std::string flag;
    if (!verdict.admitted) {
      flag = "filtered ";
    } else if (verdict.parse_failed) {
      flag = "unparsed ";
    } else if (verdict.error) {
      flag = "ERROR    ";  // a check failed: nothing proven
    } else if (!verdict.candidate) {
      flag = "cleared  ";  // statically
    } else if (verdict.suspicious_alone) {
      flag = "SUSPECT  ";
    } else {
      flag = "candidate";
    }
    auto entry = log.Get(verdict.query_id);
    // Render, not ToString: the displayed line honors any installed
    // policy redactor while the verdict itself was computed from the
    // unredacted text.
    out += "  [" + flag + "] " +
           (entry.ok() ? log.Render(**entry)
                       : "#" + std::to_string(verdict.query_id)) +
           "\n";
  }
  if (!evidence.empty()) {
    out += "\nevidence:\n" + evidence;
  }
  return out;
}

std::string AuditReport::CanonicalString() const {
  std::string out;
  out += expression;
  out += "\ncounts: logged=" + std::to_string(num_logged) +
         " admitted=" + std::to_string(num_admitted) +
         " candidates=" + std::to_string(num_candidates) +
         " executed=" + std::to_string(num_executed) +
         " |U|=" + std::to_string(target_view_size) +
         " schemes=" + std::to_string(num_schemes) + "\n";
  for (const auto& v : verdicts) {
    out += "verdict " + std::to_string(v.query_id) + ":";
    if (v.admitted) out += " admitted";
    if (v.candidate) out += " candidate";
    if (v.suspicious_alone) out += " suspicious_alone";
    if (v.parse_failed) out += " parse_failed";
    if (v.error) out += " error";
    out += "\n";
  }
  out += std::string("batch_suspicious=") +
         (batch_suspicious ? "true" : "false") + "\n";
  out += "minimal_batch=[";
  for (size_t i = 0; i < minimal_batch.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(minimal_batch[i]);
  }
  out += "]\n";
  out += "evidence:\n" + evidence;
  return out;
}

Result<AuditReport> Auditor::Audit(const std::string& audit_text,
                                   Timestamp now,
                                   const AuditOptions& options) const {
  auto expr = ParseAudit(audit_text, now);
  if (!expr.ok()) return expr.status();
  return Audit(*expr, options);
}

AuditPin Auditor::Pin() const {
  AuditPin pin;
  // Order matters for consistency under concurrent writers: capture the
  // log and backlog prefixes *before* the database view, so every query/
  // event inside the pin has its effects inside the pinned versions too
  // (the view can only be newer, never older, than the prefixes).
  pin.log_size = log_->size();
  pin.backlog_events = backlog_->event_count();
  pin.db = db_->Snapshot();
  return pin;
}

Result<AuditReport> Auditor::Audit(const AuditExpression& parsed,
                                   const AuditOptions& options) const {
  return AuditPinned(parsed, options, Pin());
}

Result<AuditReport> Auditor::AuditPinned(const AuditExpression& parsed,
                                         const AuditOptions& options,
                                         const AuditPin& pin) const {
  AuditExpression expr = parsed.Clone();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(pin.db.catalog()));

  AuditReport report;
  report.expression = expr.ToString();
  report.num_logged = pin.log_size;

  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto phase_start = Clock::now();

  // Phase 1+2: limiting parameters, then static candidacy (the same
  // range helper the concurrent scheduler shards over). Static decisions
  // read only schemas, so their cache key is the catalog epoch — row
  // writes never evict them (the ablation flag restores the old
  // evict-on-any-write keying).
  CandidateCacheContext cache_ctx;
  cache_ctx.cache = options.cache;
  cache_ctx.expr_hash = std::hash<std::string>{}(report.expression);
  cache_ctx.state_key = options.cache_global_state_keys
                            ? db_->mutation_count()
                            : pin.db.catalog_epoch();
  StaticScreenResult screened =
      StaticScreenRange(expr, *log_, pin.db.catalog(), options.candidate, 0,
                        pin.log_size, cache_ctx);
  report.verdicts = std::move(screened.verdicts);
  report.num_admitted = screened.num_admitted;
  report.num_candidates = screened.candidates.size();
  std::vector<ScreenedCandidate>& candidates = screened.candidates;

  report.static_seconds = seconds_since(phase_start);

  // Data-independent mode: decide from the static phase alone.
  if (options.static_only) {
    std::vector<const sql::SelectStatement*> stmts;
    stmts.reserve(candidates.size());
    for (const auto& candidate : candidates) {
      stmts.push_back(candidate.stmt.get());
    }
    StaticOnlyBatchVerdict(expr, pin.db.catalog(), stmts, &report);
    if (options.per_query_verdicts) {
      for (const auto& candidate : candidates) {
        auto single = IsSingleCandidate(*candidate.stmt, expr,
                                        pin.db.catalog(), options.candidate);
        QueryVerdict& verdict = report.verdicts[candidate.log_index];
        // A failed check proves nothing — flag the error instead of
        // silently reporting the query as not suspicious.
        if (!single.ok()) {
          verdict.error = true;
        } else {
          verdict.suspicious_alone = *single;
        }
      }
    }
    return report;
  }

  // Phase 3: target data view across DATA-INTERVAL versions (reading
  // only the pinned backlog prefix).
  phase_start = Clock::now();
  auto view = ComputeTargetViewOverVersions(expr, *backlog_, options.exec,
                                            pin.backlog_events);
  if (!view.ok()) return view.status();
  report.target_view_size = view->size();

  auto schemes = BuildSchemes(expr);
  report.num_schemes = schemes.size();
  report.view_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Phase 4: execute candidates against their own historical states.
  // Queries between the same two changes share a state; cache snapshots
  // by event count.
  std::unordered_map<size_t, std::unique_ptr<Snapshot>> snapshot_cache;
  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
  for (const auto& candidate : candidates) {
    const LoggedQuery& logged = log_->Entry(candidate.log_index);
    size_t key = backlog_->EventCountAt(logged.timestamp, pin.backlog_events);
    auto it = snapshot_cache.find(key);
    if (it == snapshot_cache.end()) {
      auto snapshot =
          backlog_->SnapshotAt(logged.timestamp, pin.backlog_events);
      if (!snapshot.ok()) return snapshot.status();
      it = snapshot_cache
               .emplace(key,
                        std::make_unique<Snapshot>(std::move(*snapshot)))
               .first;
    }
    auto profile = ComputeAccessProfile(*candidate.stmt, it->second->View(),
                                        options.exec);
    if (!profile.ok()) {
      // Execution-time failure (e.g. type error): keep auditing the rest,
      // but flag the query — it was never checked, so it must not read
      // as clean.
      report.verdicts[candidate.log_index].error = true;
      continue;
    }
    profiles.push_back(std::move(*profile));
    profile_ids.push_back(logged.id);
    ++report.num_executed;
  }

  report.exec_seconds = seconds_since(phase_start);
  phase_start = Clock::now();

  // Phase 5: granule-access suspicion.
  std::vector<const AccessProfile*> batch;
  batch.reserve(profiles.size());
  for (const auto& p : profiles) batch.push_back(&p);

  auto batch_result = CheckBatchSuspicion(*view, schemes, expr.threshold,
                                          expr.indispensable, batch,
                                          options.suspicion);
  if (!batch_result.ok()) return batch_result.status();
  report.batch_suspicious = batch_result->suspicious;
  report.evidence = batch_result->Describe(*view, schemes);

  if (options.per_query_verdicts) {
    std::unordered_map<int64_t, size_t> profile_by_id;
    for (size_t i = 0; i < profile_ids.size(); ++i) {
      profile_by_id[profile_ids[i]] = i;
    }
    for (auto& verdict : report.verdicts) {
      auto it = profile_by_id.find(verdict.query_id);
      if (it == profile_by_id.end()) continue;
      std::vector<const AccessProfile*> single{&profiles[it->second]};
      auto single_result = CheckBatchSuspicion(*view, schemes,
                                               expr.threshold,
                                               expr.indispensable, single,
                                               options.suspicion);
      if (!single_result.ok()) return single_result.status();
      verdict.suspicious_alone = single_result->suspicious;
    }
  }

  if (options.minimize_batch && report.batch_suspicious) {
    auto minimal = MinimizeBatch(*view, schemes, expr, profiles,
                                 profile_ids, options.suspicion);
    if (!minimal.ok()) return minimal.status();
    report.minimal_batch = std::move(*minimal);
  }
  report.check_seconds = seconds_since(phase_start);

  return report;
}

}  // namespace audit
}  // namespace auditdb
