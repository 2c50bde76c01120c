#include "src/audit/online.h"

#include <algorithm>
#include <functional>

#include "src/audit/candidate.h"
#include "src/service/thread_pool.h"
#include "src/sql/parser.h"

namespace auditdb {
namespace audit {

Result<std::vector<OnlineSchemeState>> BuildOnlineSchemeStates(
    const AuditExpression& expr, const TargetView& view,
    const std::vector<OnlineSchemeState>& previous) {
  auto resolved = ResolveSchemes(view, BuildSchemes(expr), expr.threshold);
  if (!resolved.ok()) return resolved.status();
  std::vector<OnlineSchemeState> states;
  states.reserve(resolved->size());
  for (ResolvedScheme& scheme : *resolved) {
    OnlineSchemeState state;
    // Preserve accumulated attribute coverage across rebuilds.
    for (const auto& old : previous) {
      if (old.resolved.scheme.attrs == scheme.scheme.attrs) {
        state.covered_attrs = old.covered_attrs;
        break;
      }
    }
    state.resolved = std::move(scheme);
    states.push_back(std::move(state));
  }
  return states;
}

OnlineAuditor::OnlineAuditor(Database* db, OnlineAuditorOptions options)
    : db_(db),
      cache_(options.cache != nullptr ? std::move(options.cache)
                                      : std::make_shared<DecisionCache>()) {
  // No change listener: staleness is detected per expression by
  // comparing the epoch fingerprint of its FROM tables, and cached
  // decisions carry their state keys (catalog epoch / fingerprints), so
  // a write can never produce a stale hit.
}

Result<int> OnlineAuditor::AddExpression(const AuditExpression& expr) {
  DatabaseView view = db_->Snapshot();
  auto entry = std::make_unique<Entry>();
  entry->id = next_id_++;
  entry->expr = expr.Clone();
  AUDITDB_RETURN_IF_ERROR(entry->expr.Qualify(view.catalog()));
  if (!entry->expr.indispensable) {
    return Status::Unimplemented(
        "online auditing supports INDISPENSABLE = true expressions only "
        "(value-containment screening requires per-value state)");
  }
  entry->expr_hash = std::hash<std::string>{}(entry->expr.ToString());
  AUDITDB_RETURN_IF_ERROR(RebuildEntryView(entry.get(), view));
  index_.Add(entry->id, entry->expr);
  entries_.push_back(std::move(entry));
  return entries_.back()->id;
}

Status OnlineAuditor::RemoveExpression(int id) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if ((*it)->id == id) {
      index_.Remove(id);
      entries_.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("no standing expression with id " +
                          std::to_string(id));
}

Status OnlineAuditor::RebuildEntryView(Entry* entry,
                                       const DatabaseView& db_view) {
  // The standing expression watches the *current* data: the target view
  // is rebuilt from the pinned state whenever one of its FROM tables has
  // changed since the last build.
  auto view = ComputeTargetView(entry->expr, db_view, Timestamp::Now());
  if (!view.ok()) return view.status();
  entry->view = std::move(*view);
  entry->built_fingerprint = db_view.EpochFingerprint(entry->expr.from);

  auto states =
      BuildOnlineSchemeStates(entry->expr, entry->view, entry->schemes);
  if (!states.ok()) return states.status();
  entry->schemes = std::move(*states);
  RecomputeAccessCounts(entry);
  return Status::Ok();
}

void OnlineAuditor::RecomputeAccessCounts(Entry* entry) {
  for (auto& state : entry->schemes) {
    const ResolvedScheme& scheme = state.resolved;
    state.accessed_facts = 0;
    for (size_t f : scheme.valid_facts) {
      const TargetView::Fact& fact = entry->view.facts[f];
      bool accessed = true;
      for (size_t i = 0; i < scheme.tid_positions.size(); ++i) {
        auto it = entry->batch_tids.find(scheme.scheme.tid_tables[i]);
        if (it == entry->batch_tids.end() ||
            !it->second.Contains(fact.tids[scheme.tid_positions[i]])) {
          accessed = false;
          break;
        }
      }
      if (accessed) ++state.accessed_facts;
    }
  }
  // Fired state: any scheme fully covered with enough accessed facts.
  for (const auto& state : entry->schemes) {
    const ResolvedScheme& scheme = state.resolved;
    if (scheme.k == 0) continue;
    if (state.covered_attrs.size() == scheme.scheme.attrs.size() &&
        state.accessed_facts >= scheme.k) {
      entry->fired = true;
    }
  }
}

OnlineAuditor::Screening OnlineAuditor::ScreeningOf(const Entry& entry) {
  Screening screening;
  screening.expression_id = entry.id;
  screening.fired = entry.fired;
  for (size_t s = 0; s < entry.schemes.size(); ++s) {
    const OnlineSchemeState& state = entry.schemes[s];
    const ResolvedScheme& scheme = state.resolved;
    if (scheme.k == 0 || scheme.scheme.attrs.empty()) continue;
    double covered = static_cast<double>(state.covered_attrs.size());
    double fact_credit =
        static_cast<double>(std::min(state.accessed_facts, scheme.k));
    double rank = (covered + fact_credit) /
                  (static_cast<double>(scheme.scheme.attrs.size()) +
                   static_cast<double>(scheme.k));
    if (rank > screening.rank) {
      screening.rank = rank;
      screening.best_scheme = s;
    }
  }
  if (entry.fired) screening.rank = 1.0;
  return screening;
}

Status OnlineAuditor::ObserveEntry(Entry* entry, const LoggedQuery& query,
                                   const ObserveContext& ctx) {
  // Mirror the offline pipeline: only *candidate* queries contribute
  // (a query that touches no audited attribute, or whose predicate
  // provably conflicts with the audit predicate, is statically
  // non-suspicious and must not help complete a granule — Definition 1).
  bool contributes = false;
  if (ctx.stmt != nullptr && entry->expr.filter.Admits(query)) {
    auto candidate = cache_->BatchCandidate(
        ctx.shape, entry->expr_hash, ctx.catalog_epoch, *ctx.stmt,
        entry->expr, ctx.view.catalog(), CandidateOptions{});
    // A failed candidacy check (unknown table or column) or a failed
    // execution of a candidate is an error, not a cleared query:
    // propagate it like the offline per-query error verdicts instead of
    // treating the query as non-suspicious.
    if (!candidate.ok()) return candidate.status();
    if (*candidate) AUDITDB_RETURN_IF_ERROR(ctx.profile_status);
    contributes = *candidate;
  }
  if (!contributes) return Status::Ok();
  if (entry->built_fingerprint !=
      ctx.view.EpochFingerprint(entry->expr.from)) {
    AUDITDB_RETURN_IF_ERROR(RebuildEntryView(entry, ctx.view));
  }
  // Accumulate attribute coverage and indispensable tids.
  for (auto& state : entry->schemes) {
    for (const auto& attr : state.resolved.scheme.attrs) {
      if (ctx.profile->Accesses(attr)) state.covered_attrs.insert(attr);
    }
  }
  for (const auto& table : entry->expr.from) {
    entry->batch_tids[table].Or(ctx.profile->IndispensableTids(table));
  }
  RecomputeAccessCounts(entry);
  return Status::Ok();
}

std::vector<OnlineAuditor::Entry*> OnlineAuditor::EntriesToVisit(
    const ObserveContext& ctx) {
  std::vector<Entry*> all;
  all.reserve(entries_.size());
  for (auto& entry : entries_) all.push_back(entry.get());

  AuditIndexStats* stats = cache_->stats();
  if (ctx.stmt == nullptr || all.empty()) {
    stats->index_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return all;
  }
  stats->index_lookups.fetch_add(1, std::memory_order_relaxed);

  // The query's statically accessed columns, outputs_only = false:
  // online expressions are all INDISPENSABLE, so this matches exactly
  // what IsBatchCandidate would compute per entry.
  auto columns = cache_->AccessedColumns(ctx.shape, /*outputs_only=*/false,
                                         ctx.catalog_epoch, *ctx.stmt,
                                         ctx.view.catalog());
  if (!columns.ok() || !columns->status.ok()) {
    // Resolution failed: every per-entry candidacy check fails the same
    // way, so visit everything and let each entry surface the error.
    stats->index_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return all;
  }

  // An entry the index rules out would return candidate = false at the
  // attribute-touch test (its accessed-columns step succeeds — we just
  // computed it at query level) and leave its state untouched, so
  // skipping it is byte-identical to visiting it.
  std::vector<int> ids = index_.Candidates(*columns->columns);
  std::vector<Entry*> visit;
  visit.reserve(ids.size());
  size_t next = 0;
  for (Entry* entry : all) {
    while (next < ids.size() && ids[next] < entry->id) ++next;
    if (next < ids.size() && ids[next] == entry->id) visit.push_back(entry);
  }
  stats->index_visited.fetch_add(visit.size(), std::memory_order_relaxed);
  stats->index_skipped.fetch_add(all.size() - visit.size(),
                                 std::memory_order_relaxed);
  return visit;
}

Result<std::vector<OnlineAuditor::Screening>> OnlineAuditor::Observe(
    const LoggedQuery& query, service::ThreadPool* pool) {
  // Pin one snapshot, then parse and execute once against it; reuse the
  // profile for every standing expression. Executed profiles are keyed
  // on the epoch fingerprint of the query's FROM tables, so they stay
  // hot across writes to unrelated tables.
  ObserveContext ctx;
  ctx.view = db_->Snapshot();
  ctx.shape =
      query.shape.zero() ? sql::ComputeQueryShape(query.sql) : query.shape;
  ctx.catalog_epoch = ctx.view.catalog_epoch();

  auto stmt = sql::ParseSelect(query.sql);
  std::shared_ptr<const AccessProfile> profile;
  if (stmt.ok()) {
    ctx.stmt = &*stmt;
    const uint64_t fingerprint = ctx.view.EpochFingerprint(stmt->from);
    profile = cache_->LookupProfile(ctx.shape, fingerprint);
    if (profile == nullptr) {
      auto computed = ComputeAccessProfile(*stmt, ctx.view);
      if (computed.ok()) {
        profile = std::make_shared<const AccessProfile>(std::move(*computed));
        cache_->StoreProfile(ctx.shape, fingerprint, profile);
      } else {
        ctx.profile_status = computed.status();
      }
    }
    ctx.profile = profile.get();
  }

  // Every visited entry observes the query, even after another entry
  // failed, and the first error in entry order is returned: serial and
  // pooled monitors are left in the same state.
  std::vector<Entry*> visit = EntriesToVisit(ctx);
  std::vector<Status> statuses;
  if (pool != nullptr && visit.size() > 1) {
    // Each standing expression owns disjoint state, so the coverage
    // updates fan out one job per visited entry.
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(visit.size());
    for (Entry* raw : visit) {
      tasks.push_back([this, raw, &query, &ctx] {
        return ObserveEntry(raw, query, ctx);
      });
    }
    statuses = service::RunBatch(pool, std::move(tasks));
  } else {
    statuses.reserve(visit.size());
    for (Entry* raw : visit) statuses.push_back(ObserveEntry(raw, query, ctx));
  }
  for (const Status& status : statuses) AUDITDB_RETURN_IF_ERROR(status);

  std::vector<Screening> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(ScreeningOf(*entry));
  if (listener_) listener_(query, out);
  return out;
}

std::vector<OnlineAuditor::Screening> OnlineAuditor::Current() const {
  std::vector<Screening> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(ScreeningOf(*entry));
  return out;
}

void OnlineAuditor::ResetBatches() {
  for (auto& entry : entries_) {
    entry->batch_tids.clear();
    entry->fired = false;
    for (auto& state : entry->schemes) state.covered_attrs.clear();
    RecomputeAccessCounts(entry.get());
  }
}

}  // namespace audit
}  // namespace auditdb
