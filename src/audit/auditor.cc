#include "src/audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "src/audit/audit_stages.h"
#include "src/backlog/backlog.h"
#include "src/service/thread_pool.h"

namespace auditdb {
namespace audit {

std::vector<int64_t> AuditReport::SuspiciousQueryIds() const {
  std::vector<int64_t> out;
  for (const auto& v : verdicts) {
    if (v.suspicious_alone) out.push_back(v.query_id);
  }
  return out;
}

size_t AuditReport::NumErrored() const {
  return static_cast<size_t>(
      std::count_if(verdicts.begin(), verdicts.end(),
                    [](const QueryVerdict& v) { return v.error; }));
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
  if (size_t errored = NumErrored(); errored > 0) {
    out += " batch_incomplete=" + std::to_string(errored);
  }
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
         (batch_suspicious ? "SUSPICIOUS" : "not suspicious");
  if (size_t errored = NumErrored(); errored > 0) {
    out += " (INCOMPLETE: " + std::to_string(errored) +
           " errored quer" + (errored == 1 ? "y" : "ies") + " unchecked)";
  }
  out += "\n";
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
  if (size_t errored = NumErrored(); errored > 0) {
    out += "batch_incomplete=" + std::to_string(errored) + "\n";
  }
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


namespace {

using Clock = std::chrono::steady_clock;
using Task = std::function<Status()>;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Upper bounds on log entries per static-screening shard and on
/// executions (static-only: candidates) per later shard; Shards() shrinks
/// them to the pool.
constexpr size_t kStaticShardSize = 256;
constexpr size_t kExecShardSize = 32;

/// Splits [0, n) into contiguous [begin, end) ranges: one range on the
/// caller thread (null `pool`), else ~4 per worker of at most `cap`
/// entries each. Boundaries never affect output, only load balance.
std::vector<std::pair<size_t, size_t>> Shards(
    size_t n, size_t cap, const service::ThreadPool* pool) {
  size_t size = n;
  if (pool != nullptr) {
    size_t slots = 4 * std::max<size_t>(pool->num_threads(), 1);
    size = std::min(cap, (n + slots - 1) / slots);
  }
  size = std::max<size_t>(size, 1);
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t begin = 0; begin < n; begin += size) {
    out.emplace_back(begin, std::min(begin + size, n));
  }
  return out;
}

/// Runs one stage's tasks and returns the first failure in task order,
/// so the error an audit reports never depends on the pool.
Status RunStage(service::ThreadPool* pool, std::vector<Task> tasks) {
  for (const Status& status : service::RunBatch(pool, std::move(tasks))) {
    AUDITDB_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

}  // namespace

Result<AuditReport> Auditor::AuditPinned(const AuditExpression& parsed,
                                         const AuditOptions& options,
                                         const AuditPin& pin,
                                         service::ThreadPool* pool) const {
  AuditExpression expr = parsed.Clone();
  AUDITDB_RETURN_IF_ERROR(expr.Qualify(pin.db.catalog()));

  AuditReport report;
  report.expression = expr.ToString();
  report.num_logged = pin.log_size;

  // --- Phases 1+2: limiting parameters, then static candidacy, one task
  // per log range. Phase 3's target view does not depend on the
  // candidates, so its task rides in the same batch and overlaps the
  // screening on a pool. Static facts read only the query text and the
  // schemas, so the log memoizes them per shape under the pinned
  // catalog's (database id, epoch): row writes never evict them, and
  // shards share them.
  CandidateCacheContext cache_ctx;
  cache_ctx.state_key = pin.db.catalog_epoch();
  cache_ctx.database_id = pin.db.database_id();
  auto ranges = Shards(pin.log_size, kStaticShardSize, pool);
  std::vector<StaticScreenResult> screened(ranges.size());
  // Each shard's finish time: static_seconds ends at the latest one, so
  // it never counts the view task, whichever thread runs that.
  std::vector<Clock::time_point> screened_at(ranges.size());
  TargetView view;
  std::vector<Task> tasks;
  tasks.reserve(ranges.size() + 1);
  for (size_t i = 0; i < ranges.size(); ++i) {
    tasks.push_back([&, i] {
      screened[i] = StaticScreenRange(expr, *log_, pin.db.catalog(),
                                      options.candidate, ranges[i].first,
                                      ranges[i].second, cache_ctx);
      screened_at[i] = Clock::now();
      return Status::Ok();
    });
  }
  if (!options.static_only) {
    tasks.push_back([&] {
      auto start = Clock::now();
      auto computed = ComputeTargetViewOverVersions(
          expr, *backlog_, /*ignored=*/{}, pin.backlog_events);
      if (!computed.ok()) return computed.status();
      view = std::move(*computed);
      report.view_seconds = SecondsBetween(start, Clock::now());
      return Status::Ok();
    });
  }
  auto stage_start = Clock::now();
  Status first_stage = RunStage(pool, std::move(tasks));
  auto screened_end = stage_start;
  for (auto at : screened_at) screened_end = std::max(screened_end, at);
  report.static_seconds = SecondsBetween(stage_start, screened_end);
  AUDITDB_RETURN_IF_ERROR(first_stage);

  // Merge the shards in log order.
  std::vector<ScreenedCandidate> candidates;
  for (StaticScreenResult& shard : screened) {
    report.num_admitted += shard.num_admitted;
    std::move(shard.verdicts.begin(), shard.verdicts.end(),
              std::back_inserter(report.verdicts));
    std::move(shard.candidates.begin(), shard.candidates.end(),
              std::back_inserter(candidates));
  }
  report.num_candidates = candidates.size();

  // Data-independent mode: decide from the static phase alone. Tasks
  // write disjoint verdicts (one per candidate), so they need no merge.
  if (options.static_only) {
    StaticOnlyBatchVerdict(expr, candidates, &report);
    if (!options.per_query_verdicts) return report;
    tasks.clear();
    for (auto [begin, end] : Shards(candidates.size(), kExecShardSize, pool)) {
      tasks.push_back([&, begin, end] {
        for (size_t c = begin; c < end; ++c) {
          auto single = IsSingleCandidate(*candidates[c].facts, expr,
                                          options.candidate);
          QueryVerdict& verdict = report.verdicts[candidates[c].log_index];
          // A failed check proves nothing — flag the error instead of
          // silently reporting the query as not suspicious.
          if (!single.ok()) {
            verdict.error = true;
          } else {
            verdict.suspicious_alone = *single;
          }
        }
        return Status::Ok();
      });
    }
    AUDITDB_RETURN_IF_ERROR(RunStage(pool, std::move(tasks)));
    return report;
  }

  report.target_view_size = view.size();
  auto schemes = BuildSchemes(expr);
  report.num_schemes = schemes.size();

  // --- Phase 4: re-execute each candidate against its own historical
  // state (reading only the pinned backlog prefix). Candidates between
  // the same two changes share a state, keyed by event count: each
  // distinct state gets one slot and one view over it. The count of
  // events <= t is one binary search in the sorted pinned timestamps,
  // exact whatever order the events were appended in.
  stage_start = Clock::now();
  const std::vector<Timestamp> event_times =
      backlog_->SortedEventTimestamps(pin.backlog_events);
  std::map<size_t, size_t> slot_of_key;
  std::vector<size_t> slot_of(candidates.size());
  std::vector<Timestamp> slot_time;
  for (size_t c = 0; c < candidates.size(); ++c) {
    Timestamp at = log_->Entry(candidates[c].log_index).timestamp;
    auto key = static_cast<size_t>(
        std::upper_bound(event_times.begin(), event_times.end(), at) -
        event_times.begin());
    auto [it, fresh] = slot_of_key.emplace(key, slot_time.size());
    if (fresh) slot_time.push_back(at);
    slot_of[c] = it->second;
  }
  // The count of events <= t never decreases in t, so key order is time
  // order: one cursor pins every slot's view in a single forward sweep.
  // The views outlive the cursor (their TableVersions are shared).
  std::vector<DatabaseView> views(slot_time.size());
  {
    BacklogCursor cursor(*backlog_, pin.backlog_events);
    for (const auto& [key, s] : slot_of_key) {
      auto view = cursor.ViewAt(slot_time[s]);
      if (!view.ok()) return view.status();
      views[s] = std::move(*view);
    }
  }

  // One execution per distinct (query shape, state slot): equal shapes
  // parse to equal statements, so every candidate of a pair would get
  // the same profile. Keyed by shape and slot because the slot is the
  // identity of a state (its event count). The views' EpochFingerprint
  // is not: cursor tables count only the events applied to them, and on
  // a non-monotone backlog each view is a fresh replay whose epochs
  // start at 0, so two different states can share a fingerprint.
  std::map<std::pair<sql::QueryShape, size_t>, size_t> exec_of_key;
  std::vector<size_t> exec_of(candidates.size());
  std::vector<size_t> exec_owner;  // first candidate of each execution
  for (size_t c = 0; c < candidates.size(); ++c) {
    auto [it, fresh] = exec_of_key.emplace(
        std::make_pair(candidates[c].shape, slot_of[c]), exec_owner.size());
    if (fresh) exec_owner.push_back(c);
    exec_of[c] = it->second;
  }
  // The indispensability test reads only lineage: values are copied out
  // only for value containment.
  const ExecOutput output = expr.indispensable
                                ? ExecOutput::kLineage
                                : ExecOutput::kLineageAndValues;
  // The per-table check reads a profile's tids only at U's tids, so a
  // lineage row that touches no tuple of U decides nothing: each
  // execution enumerates, per audited table, only the rows of U's tids
  // there (ComputeRestrictedAccessProfile). Joint mode and value
  // containment read whole lineage rows or values, so they keep the full
  // execution. The row lists are built here, once per table version
  // (states share unchanged versions), so the tasks only read them.
  const bool restrict =
      expr.indispensable &&
      options.suspicion.mode == IndispensabilityMode::kPerTable &&
      view.table_tids.size() == view.tables.size();
  std::map<const TableVersion*, std::vector<uint32_t>> rows_of;
  std::vector<std::vector<RowRestriction>> restrictions(views.size());
  if (restrict) {
    std::set<std::string> audited;
    for (const GranuleScheme& scheme : schemes) {
      audited.insert(scheme.tid_tables.begin(), scheme.tid_tables.end());
    }
    for (size_t t = 0; t < view.tables.size(); ++t) {
      if (audited.count(view.tables[t]) == 0) continue;
      for (size_t s = 0; s < views.size(); ++s) {
        auto table = views[s].GetTable(view.tables[t]);
        if (!table.ok()) continue;  // the execution reports it
        auto [it, fresh] = rows_of.try_emplace(*table);
        if (fresh) it->second = RowPositions(**table, view.table_tids[t]);
        restrictions[s].push_back(RowRestriction{view.tables[t], it->second});
      }
    }
  }
  std::vector<std::optional<AccessProfile>> executed(exec_owner.size());
  tasks.clear();
  for (auto [begin, end] : Shards(exec_owner.size(), kExecShardSize, pool)) {
    tasks.push_back([&, begin, end] {
      for (size_t e = begin; e < end; ++e) {
        const size_t c = exec_owner[e];
        const size_t s = slot_of[c];
        auto profile = restrict ? ComputeRestrictedAccessProfile(
                                      *candidates[c].stmt, views[s],
                                      restrictions[s])
                                : ComputeAccessProfile(*candidates[c].stmt,
                                                       views[s], output);
        if (profile.ok()) executed[e] = std::move(*profile);
      }
      return Status::Ok();
    });
  }
  AUDITDB_RETURN_IF_ERROR(RunStage(pool, std::move(tasks)));

  // Share the profiles by pointer, in candidate (= log) order.
  std::vector<const AccessProfile*> profiles;
  std::vector<int64_t> profile_ids;
  std::vector<size_t> profile_log_index;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const std::optional<AccessProfile>& profile = executed[exec_of[c]];
    if (!profile.has_value()) {
      // Execution-time failure (e.g. type error): keep auditing the
      // rest, but flag the query — it was never checked, so it must
      // not read as clean.
      report.verdicts[candidates[c].log_index].error = true;
      continue;
    }
    profiles.push_back(&*profile);
    profile_ids.push_back(log_->Entry(candidates[c].log_index).id);
    profile_log_index.push_back(candidates[c].log_index);
  }
  report.num_executed = profiles.size();
  report.exec_seconds = SecondsBetween(stage_start, Clock::now());

  // --- Phase 5: granule-access suspicion. One support index over the
  // batch yields the batch verdict, every query's verdict alone (once
  // per distinct execution) and the greedy minimal batch, whose drop
  // order is part of the output contract.
  stage_start = Clock::now();
  auto resolved = ResolveSchemes(view, schemes, expr.threshold);
  if (!resolved.ok()) return resolved.status();
  BatchSupports supports(view, *resolved, expr.indispensable, profiles,
                         options.suspicion.mode);
  const SuspicionResult batch_result = supports.Verdict();
  report.batch_suspicious = batch_result.suspicious;
  report.evidence = batch_result.Describe(view, schemes);
  if (options.per_query_verdicts) {
    const std::vector<char> alone = supports.SuspiciousAlone();
    for (size_t i = 0; i < profiles.size(); ++i) {
      report.verdicts[profile_log_index[i]].suspicious_alone = alone[i];
    }
  }
  if (options.minimize_batch && report.batch_suspicious) {
    report.minimal_batch = supports.Minimize(profile_ids);
  }
  report.check_seconds = SecondsBetween(stage_start, Clock::now());

  return report;
}

}  // namespace audit
}  // namespace auditdb
