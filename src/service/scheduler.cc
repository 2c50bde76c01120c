#include "src/service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "src/audit/audit_stages.h"
#include "src/audit/candidate.h"
#include "src/backlog/snapshot.h"

namespace auditdb {
namespace service {

using audit::AuditExpression;
using audit::AuditOptions;
using audit::AuditReport;
using audit::QueryVerdict;
using audit::ScreenedCandidate;
using audit::StaticScreenResult;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Splits [0, n) into contiguous [begin, end) ranges of at most `chunk`.
std::vector<std::pair<size_t, size_t>> Chunks(size_t n, size_t chunk) {
  if (chunk == 0) chunk = 1;
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t begin = 0; begin < n; begin += chunk) {
    out.emplace_back(begin, std::min(begin + chunk, n));
  }
  return out;
}

/// Shrinks a configured shard size so a stage yields ~4 shards per
/// worker; boundaries never affect output, only load balance.
size_t EffectiveShard(size_t n, size_t configured, size_t threads) {
  if (n == 0) return 1;
  size_t target = (n + 4 * threads - 1) / (4 * threads);
  return std::max<size_t>(std::min(configured, std::max<size_t>(target, 1)),
                          1);
}

}  // namespace

AuditScheduler::AuditScheduler(ThreadPool* pool, SchedulerOptions options)
    : pool_(pool), options_(std::move(options)) {
  MetricsRegistry* metrics = pool_->mutable_metrics();
  runs_ = metrics->counter("scheduler.runs");
  shards_dispatched_ = metrics->counter("scheduler.shards_dispatched");
  shards_failed_ = metrics->counter("scheduler.shards_failed");
  static_stage_micros_ = metrics->histogram("scheduler.static_stage_micros");
  exec_stage_micros_ = metrics->histogram("scheduler.exec_stage_micros");
  check_stage_micros_ = metrics->histogram("scheduler.check_stage_micros");
}

Result<AuditReport> AuditScheduler::Run(const Database& db,
                                        const Backlog& backlog,
                                        const QueryLog& log,
                                        const std::string& audit_text,
                                        Timestamp now,
                                        const AuditOptions& options,
                                        std::vector<ShardFailure>* failures)
    const {
  auto expr = audit::ParseAudit(audit_text, now);
  if (!expr.ok()) return expr.status();
  return Run(db, backlog, log, *expr, options, failures);
}

Result<AuditReport> AuditScheduler::Run(const Database& db,
                                        const Backlog& backlog,
                                        const QueryLog& log,
                                        const AuditExpression& parsed,
                                        const AuditOptions& options,
                                        std::vector<ShardFailure>* failures)
    const {
  // One consistent pin for the whole parallel run: every shard reads the
  // pinned table versions and log/backlog prefixes, so concurrent
  // writers never skew shard boundaries or results. Capture order
  // matters (prefixes before the view) — see AuditPin.
  audit::AuditPin pin;
  pin.log_size = log.size();
  pin.backlog_events = backlog.event_count();
  pin.db = db.Snapshot();
  return RunPinned(db, backlog, log, parsed, pin, options, failures);
}

Result<AuditReport> AuditScheduler::RunPinned(
    const Database& db, const Backlog& backlog, const QueryLog& log,
    const AuditExpression& parsed, const audit::AuditPin& pin,
    const AuditOptions& options, std::vector<ShardFailure>* failures) const {
  runs_->Increment();
  if (failures != nullptr) failures->clear();
  auto record_failure = [this, failures](const char* stage, size_t shard,
                                         Status status) {
    shards_failed_->Increment();
    if (failures != nullptr) {
      failures->push_back(ShardFailure{stage, shard, std::move(status)});
    }
  };

  AuditExpression expr = parsed.Clone();

  AUDITDB_RETURN_IF_ERROR(expr.Qualify(pin.db.catalog()));

  AuditReport report;
  report.expression = expr.ToString();
  report.num_logged = pin.log_size;

  JobContext ctx = JobContext::WithDeadlineAfter(options_.job_deadline);
  ctx.cancel = options_.cancel;

  const size_t threads = std::max<size_t>(pool_->num_threads(), 1);

  // --- Static stage: admission + parse + candidacy, one job per log
  // range; the target-view job (independent of the candidates) rides in
  // the same batch so it overlaps the screening.
  auto stage_start = Clock::now();
  auto static_ranges = Chunks(
      pin.log_size,
      EffectiveShard(pin.log_size, options_.static_shard_size, threads));
  std::vector<StaticScreenResult> static_results(static_ranges.size());
  std::unique_ptr<Result<audit::TargetView>> view_result;
  double view_seconds = 0;

  // Same decision-cache context as the serial auditor; the cache is
  // internally synchronized, so shards share it safely.
  audit::CandidateCacheContext cache_ctx;
  cache_ctx.cache = options.cache;
  cache_ctx.expr_hash = std::hash<std::string>{}(report.expression);
  cache_ctx.state_key = options.cache_global_state_keys
                            ? db.mutation_count()
                            : pin.db.catalog_epoch();

  std::vector<std::function<Status()>> tasks;
  tasks.reserve(static_ranges.size() + 1);
  for (size_t i = 0; i < static_ranges.size(); ++i) {
    auto [begin, end] = static_ranges[i];
    tasks.push_back([&, i, begin, end] {
      static_results[i] =
          StaticScreenRange(expr, log, pin.db.catalog(), options.candidate,
                            begin, end, cache_ctx);
      return Status::Ok();
    });
  }
  const size_t view_task = tasks.size();
  if (!options.static_only) {
    tasks.push_back([&] {
      auto start = Clock::now();
      auto view = audit::ComputeTargetViewOverVersions(
          expr, backlog, options.exec, pin.backlog_events);
      view_seconds = SecondsSince(start);
      Status status = view.ok() ? Status::Ok() : view.status();
      view_result =
          std::make_unique<Result<audit::TargetView>>(std::move(view));
      return status;
    });
  }
  shards_dispatched_->Increment(tasks.size());
  auto statuses = RunBatch(pool_, std::move(tasks), ctx);

  // Merge static shards in log order.
  std::vector<ScreenedCandidate> candidates;
  for (size_t i = 0; i < static_ranges.size(); ++i) {
    if (!statuses[i].ok()) {
      if (options_.fail_fast) return statuses[i];
      record_failure("static", i, statuses[i]);
      // Degrade: this range's queries are reported unscreened.
      for (size_t j = static_ranges[i].first; j < static_ranges[i].second;
           ++j) {
        QueryVerdict verdict;
        verdict.query_id = log.Entry(j).id;
        report.verdicts.push_back(verdict);
      }
      continue;
    }
    StaticScreenResult& shard = static_results[i];
    report.num_admitted += shard.num_admitted;
    std::move(shard.verdicts.begin(), shard.verdicts.end(),
              std::back_inserter(report.verdicts));
    std::move(shard.candidates.begin(), shard.candidates.end(),
              std::back_inserter(candidates));
  }
  report.num_candidates = candidates.size();
  report.static_seconds = SecondsSince(stage_start);
  static_stage_micros_->Observe(MicrosSince(stage_start));

  // Data-independent mode: decide from the static phase alone.
  if (options.static_only) {
    std::vector<const sql::SelectStatement*> stmts;
    stmts.reserve(candidates.size());
    for (const auto& c : candidates) stmts.push_back(c.stmt.get());
    audit::StaticOnlyBatchVerdict(expr, pin.db.catalog(), stmts, &report);
    if (options.per_query_verdicts) {
      auto chunks = Chunks(
          candidates.size(),
          EffectiveShard(candidates.size(), options_.exec_shard_size,
                         threads));
      std::vector<char> alone(candidates.size(), 0);
      std::vector<char> errored(candidates.size(), 0);
      std::vector<std::function<Status()>> check_tasks;
      check_tasks.reserve(chunks.size());
      for (auto [begin, end] : chunks) {
        check_tasks.push_back([&, begin, end] {
          for (size_t c = begin; c < end; ++c) {
            AUDITDB_RETURN_IF_ERROR(ctx.Check());
            auto single = audit::IsSingleCandidate(
                *candidates[c].stmt, expr, pin.db.catalog(),
                options.candidate);
            // A failed check proves nothing — flag the error instead of
            // silently reporting the query as not suspicious (identical
            // to the serial auditor's static-only path).
            if (!single.ok()) {
              errored[c] = 1;
            } else {
              alone[c] = *single;
            }
          }
          return Status::Ok();
        });
      }
      shards_dispatched_->Increment(check_tasks.size());
      auto check_statuses = RunBatch(pool_, std::move(check_tasks), ctx);
      for (size_t i = 0; i < chunks.size(); ++i) {
        if (!check_statuses[i].ok()) {
          if (options_.fail_fast) return check_statuses[i];
          record_failure("static-check", i, check_statuses[i]);
          continue;
        }
        for (size_t c = chunks[i].first; c < chunks[i].second; ++c) {
          QueryVerdict& verdict = report.verdicts[candidates[c].log_index];
          if (errored[c] != 0) {
            verdict.error = true;
          } else {
            verdict.suspicious_alone = alone[c] != 0;
          }
        }
      }
    }
    return report;
  }

  // Target view (computed concurrently above).
  if (!statuses[view_task].ok()) {
    if (options_.fail_fast) return statuses[view_task];
    record_failure("view", 0, statuses[view_task]);
    return report;  // no data-dependent verdict possible
  }
  const audit::TargetView& view = view_result->value();
  report.target_view_size = view.size();
  report.view_seconds = view_seconds;
  auto schemes = audit::BuildSchemes(expr);
  report.num_schemes = schemes.size();

  // --- Exec stage: shard along the database-version axis. Snapshot keys
  // (event counts) group candidates that saw the same state; each
  // distinct version is reconstructed once, in parallel, then candidate
  // ranges re-execute against the shared read-only snapshots.
  stage_start = Clock::now();
  const size_t exec_shard =
      EffectiveShard(candidates.size(), options_.exec_shard_size, threads);
  std::vector<size_t> keys(candidates.size(), 0);
  std::vector<char> dropped(candidates.size(), 0);
  {
    auto chunks = Chunks(candidates.size(), exec_shard);
    std::vector<std::function<Status()>> key_tasks;
    key_tasks.reserve(chunks.size());
    for (auto [begin, end] : chunks) {
      key_tasks.push_back([&, begin, end] {
        for (size_t c = begin; c < end; ++c) {
          AUDITDB_RETURN_IF_ERROR(ctx.Check());
          keys[c] = backlog.EventCountAt(
              log.Entry(candidates[c].log_index).timestamp,
              pin.backlog_events);
        }
        return Status::Ok();
      });
    }
    shards_dispatched_->Increment(key_tasks.size());
    auto key_statuses = RunBatch(pool_, std::move(key_tasks), ctx);
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (key_statuses[i].ok()) continue;
      if (options_.fail_fast) return key_statuses[i];
      record_failure("version-key", i, key_statuses[i]);
      for (size_t c = chunks[i].first; c < chunks[i].second; ++c) {
        dropped[c] = 1;
      }
    }
  }

  // One snapshot job per distinct database version.
  std::map<size_t, size_t> slot_of_key;
  std::vector<Timestamp> slot_time;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (dropped[c] != 0) continue;
    if (slot_of_key.emplace(keys[c], slot_time.size()).second) {
      slot_time.push_back(log.Entry(candidates[c].log_index).timestamp);
    }
  }
  std::vector<std::unique_ptr<Snapshot>> snapshots(slot_time.size());
  {
    std::vector<std::function<Status()>> snapshot_tasks;
    snapshot_tasks.reserve(slot_time.size());
    for (size_t s = 0; s < slot_time.size(); ++s) {
      snapshot_tasks.push_back([&, s] {
        auto snapshot = backlog.SnapshotAt(slot_time[s], pin.backlog_events);
        if (!snapshot.ok()) return snapshot.status();
        snapshots[s] = std::make_unique<Snapshot>(std::move(*snapshot));
        return Status::Ok();
      });
    }
    shards_dispatched_->Increment(snapshot_tasks.size());
    auto snapshot_statuses = RunBatch(pool_, std::move(snapshot_tasks), ctx);
    for (size_t s = 0; s < snapshot_statuses.size(); ++s) {
      if (snapshot_statuses[s].ok()) continue;
      if (options_.fail_fast) return snapshot_statuses[s];
      record_failure("snapshot", s, snapshot_statuses[s]);
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (dropped[c] == 0 && slot_of_key[keys[c]] == s) dropped[c] = 1;
      }
    }
  }

  // Candidate re-execution against the shared snapshots.
  std::vector<std::optional<AccessProfile>> profile_slots(candidates.size());
  std::vector<char> exec_failed(candidates.size(), 0);
  {
    auto chunks = Chunks(candidates.size(), exec_shard);
    std::vector<std::function<Status()>> exec_tasks;
    exec_tasks.reserve(chunks.size());
    for (auto [begin, end] : chunks) {
      exec_tasks.push_back([&, begin, end] {
        for (size_t c = begin; c < end; ++c) {
          AUDITDB_RETURN_IF_ERROR(ctx.Check());
          if (dropped[c] != 0) continue;
          const Snapshot& snapshot = *snapshots[slot_of_key[keys[c]]];
          auto profile = ComputeAccessProfile(*candidates[c].stmt,
                                              snapshot.View(), options.exec);
          // Execution-time failure (e.g. type error): keep auditing the
          // rest, but flag the query as an error below — same as the
          // serial auditor.
          if (profile.ok()) {
            profile_slots[c] = std::move(*profile);
          } else {
            exec_failed[c] = 1;
          }
        }
        return Status::Ok();
      });
    }
    shards_dispatched_->Increment(exec_tasks.size());
    auto exec_statuses = RunBatch(pool_, std::move(exec_tasks), ctx);
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (exec_statuses[i].ok()) continue;
      if (options_.fail_fast) return exec_statuses[i];
      record_failure("exec", i, exec_statuses[i]);
      for (size_t c = chunks[i].first; c < chunks[i].second; ++c) {
        profile_slots[c].reset();
      }
    }
  }

  // Merge profiles in candidate (= log) order.
  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (exec_failed[c] != 0) {
      report.verdicts[candidates[c].log_index].error = true;
    }
    if (!profile_slots[c].has_value()) continue;
    profiles.push_back(std::move(*profile_slots[c]));
    profile_ids.push_back(log.Entry(candidates[c].log_index).id);
    ++report.num_executed;
  }
  report.exec_seconds = SecondsSince(stage_start);
  exec_stage_micros_->Observe(MicrosSince(stage_start));

  // --- Check stage: the batch verdict is one (cheap) serial call; the
  // per-query singleton checks fan out per candidate range; greedy
  // minimization stays serial because its drop order is part of the
  // output contract.
  stage_start = Clock::now();
  std::vector<const AccessProfile*> batch;
  batch.reserve(profiles.size());
  for (const auto& p : profiles) batch.push_back(&p);
  auto batch_result = audit::CheckBatchSuspicion(view, schemes,
                                                 expr.threshold,
                                                 expr.indispensable, batch,
                                                 options.suspicion);
  if (!batch_result.ok()) return batch_result.status();
  report.batch_suspicious = batch_result->suspicious;
  report.evidence = batch_result->Describe(view, schemes);

  if (options.per_query_verdicts && !profiles.empty()) {
    std::map<int64_t, size_t> verdict_of_id;
    for (size_t v = 0; v < report.verdicts.size(); ++v) {
      verdict_of_id[report.verdicts[v].query_id] = v;
    }
    std::vector<char> alone(profiles.size(), 0);
    auto chunks = Chunks(
        profiles.size(),
        EffectiveShard(profiles.size(), options_.exec_shard_size, threads));
    std::vector<std::function<Status()>> check_tasks;
    check_tasks.reserve(chunks.size());
    for (auto [begin, end] : chunks) {
      check_tasks.push_back([&, begin, end] {
        for (size_t p = begin; p < end; ++p) {
          AUDITDB_RETURN_IF_ERROR(ctx.Check());
          std::vector<const AccessProfile*> single{&profiles[p]};
          auto single_result = audit::CheckBatchSuspicion(
              view, schemes, expr.threshold, expr.indispensable, single,
              options.suspicion);
          if (!single_result.ok()) return single_result.status();
          alone[p] = single_result->suspicious;
        }
        return Status::Ok();
      });
    }
    shards_dispatched_->Increment(check_tasks.size());
    auto check_statuses = RunBatch(pool_, std::move(check_tasks), ctx);
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (!check_statuses[i].ok()) {
        if (options_.fail_fast) return check_statuses[i];
        record_failure("check", i, check_statuses[i]);
        continue;
      }
      for (size_t p = chunks[i].first; p < chunks[i].second; ++p) {
        auto it = verdict_of_id.find(profile_ids[p]);
        if (it != verdict_of_id.end()) {
          report.verdicts[it->second].suspicious_alone = alone[p] != 0;
        }
      }
    }
  }

  if (options.minimize_batch && report.batch_suspicious) {
    auto minimal = audit::MinimizeBatch(
        view, schemes, expr, profiles, profile_ids, options.suspicion);
    if (!minimal.ok()) return minimal.status();
    report.minimal_batch = std::move(*minimal);
  }
  report.check_seconds = SecondsSince(stage_start);
  check_stage_micros_->Observe(MicrosSince(stage_start));

  return report;
}

std::vector<AuditScheduler::ExpressionScreening> AuditScheduler::ScreenLibrary(
    const Database& db, const Backlog& backlog, const QueryLog& log,
    const audit::ExpressionLibrary& library,
    const AuditOptions& options) const {
  // One pin for the whole screen: every library expression audits the
  // same consistent cut, and no shard blocks writers while it runs.
  audit::Auditor pinner(&db, &backlog, &log);
  return ScreenLibraryPinned(db, backlog, log, library, pinner.Pin(),
                             options);
}

std::vector<AuditScheduler::ExpressionScreening>
AuditScheduler::ScreenLibraryPinned(const Database& db,
                                    const Backlog& backlog,
                                    const QueryLog& log,
                                    const audit::ExpressionLibrary& library,
                                    const audit::AuditPin& pin,
                                    const AuditOptions& options) const {
  JobContext ctx = JobContext::WithDeadlineAfter(options_.job_deadline);
  ctx.cancel = options_.cancel;

  auto ids = library.ids();
  std::vector<ExpressionScreening> out(ids.size());

  audit::Auditor auditor(&db, &backlog, &log);

  std::vector<std::function<Status()>> tasks;
  tasks.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i].expression_id = ids[i];
    tasks.push_back([&, i] {
      const AuditExpression* expr = library.Get(ids[i]);
      if (expr == nullptr) {
        out[i].status = Status::NotFound("expression evicted mid-screen");
        return out[i].status;
      }
      auto report = auditor.AuditPinned(*expr, options, pin);
      if (!report.ok()) {
        out[i].status = report.status();
        return out[i].status;
      }
      out[i].report = std::move(*report);
      return Status::Ok();
    });
  }
  shards_dispatched_->Increment(tasks.size());
  auto statuses = RunBatch(pool_, std::move(tasks), ctx);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      shards_failed_->Increment();
      out[i].status = statuses[i];
    }
  }
  return out;
}

}  // namespace service

namespace audit {

Result<AuditReport> Auditor::AuditParallel(const AuditExpression& expr,
                                           service::AuditScheduler* scheduler,
                                           const AuditOptions& options)
    const {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("null scheduler");
  }
  return scheduler->Run(*db_, *backlog_, *log_, expr, options);
}

}  // namespace audit
}  // namespace auditdb
