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
  std::vector<OnlineSchemeState> states;
  for (auto& scheme : BuildSchemes(expr)) {
    OnlineSchemeState state;
    // Preserve accumulated attribute coverage across rebuilds.
    for (const auto& old : previous) {
      if (old.scheme.attrs == scheme.attrs) {
        state.covered_attrs = old.covered_attrs;
        break;
      }
    }
    // Resolve every scheme attribute and tid table, index-aligned with
    // the scheme. A resolution miss fails the rebuild: dropping the
    // entry instead would pair tid_positions[i] with the wrong
    // tid_tables[i] downstream and silently undercount access.
    for (const auto& attr : scheme.attrs) {
      auto idx = view.ColumnIndex(attr);
      if (!idx.ok()) {
        return Status::Internal("scheme attribute " + attr.ToString() +
                                " unresolvable in target view: " +
                                idx.status().message());
      }
      state.attr_columns.push_back(*idx);
    }
    for (const auto& table : scheme.tid_tables) {
      auto idx = view.TableIndex(table);
      if (!idx.ok()) {
        return Status::Internal("scheme tid table " + table +
                                " unresolvable in target view: " +
                                idx.status().message());
      }
      state.tid_positions.push_back(*idx);
    }
    state.valid_facts = 0;
    for (const auto& fact : view.facts) {
      bool valid = true;
      for (size_t c : state.attr_columns) {
        if (fact.values[c].is_null()) {
          valid = false;
          break;
        }
      }
      if (valid) ++state.valid_facts;
    }
    state.effective_k = expr.threshold.all
                            ? state.valid_facts
                            : static_cast<size_t>(expr.threshold.n);
    state.scheme = std::move(scheme);
    states.push_back(std::move(state));
  }
  return states;
}

OnlineAuditor::OnlineAuditor(Database* db, OnlineAuditorOptions options)
    : db_(db),
      options_(std::move(options)),
      cache_(options_.cache != nullptr ? options_.cache
                                       : std::make_shared<DecisionCache>()) {
  // No change listener: staleness is detected per expression by
  // comparing the epoch fingerprint of its FROM tables, and cached
  // decisions carry their state keys (catalog epoch / fingerprints), so
  // stale hits are impossible without wholesale eviction.
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
    state.accessed_facts = 0;
    for (const auto& fact : entry->view.facts) {
      bool valid = true;
      for (size_t c : state.attr_columns) {
        if (fact.values[c].is_null()) {
          valid = false;
          break;
        }
      }
      if (!valid) continue;
      bool accessed = true;
      for (size_t i = 0; i < state.tid_positions.size(); ++i) {
        auto it = entry->batch_tids.find(state.scheme.tid_tables[i]);
        if (it == entry->batch_tids.end() ||
            !it->second.Contains(fact.tids[state.tid_positions[i]])) {
          accessed = false;
          break;
        }
      }
      if (accessed) ++state.accessed_facts;
    }
  }
  // Fired state: any scheme fully covered with enough accessed facts.
  for (const auto& state : entry->schemes) {
    if (state.effective_k == 0) continue;
    if (state.covered_attrs.size() == state.scheme.attrs.size() &&
        state.accessed_facts >= state.effective_k) {
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
    if (state.effective_k == 0 || state.scheme.attrs.empty()) continue;
    double covered = static_cast<double>(state.covered_attrs.size());
    double fact_credit = static_cast<double>(
        std::min(state.accessed_facts, state.effective_k));
    double rank =
        (covered + fact_credit) /
        (static_cast<double>(state.scheme.attrs.size()) +
         static_cast<double>(state.effective_k));
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
    auto candidate = CachedBatchCandidate(
        decision_cache(), ctx.shape, entry->expr_hash, ctx.catalog_epoch,
        *ctx.stmt, entry->expr, ctx.view.catalog(), CandidateOptions{});
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
    for (const auto& attr : state.scheme.attrs) {
      if (ctx.profile->Accesses(attr)) state.covered_attrs.insert(attr);
    }
  }
  for (const auto& table : entry->expr.from) {
    entry->batch_tids[table].Or(
        ctx.profile->result.IndispensableTidBitmap(table));
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
  if (!options_.index_enabled || ctx.stmt == nullptr || all.empty()) {
    stats->index_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return all;
  }
  stats->index_lookups.fetch_add(1, std::memory_order_relaxed);

  // The query's statically accessed columns, outputs_only = false:
  // online expressions are all INDISPENSABLE, so this matches exactly
  // what IsBatchCandidate would compute per entry.
  const std::set<ColumnRef>* accessed = nullptr;
  std::set<ColumnRef> local;
  std::shared_ptr<const std::set<ColumnRef>> shared;
  if (DecisionCache* cache = decision_cache()) {
    auto columns = cache->AccessedColumns(ctx.shape, /*outputs_only=*/false,
                                          ctx.catalog_epoch, *ctx.stmt,
                                          ctx.view.catalog());
    if (columns.ok() && columns->status.ok()) {
      shared = columns->columns;
      accessed = shared.get();
    }
  } else {
    auto computed = StaticAccessedColumns(*ctx.stmt, ctx.view.catalog(),
                                          /*outputs_only=*/false);
    if (computed.ok()) {
      local = std::move(*computed);
      accessed = &local;
    }
  }
  if (accessed == nullptr) {
    // Resolution failed: every per-entry candidacy check would fail the
    // same way, and those errors must surface identically with the
    // index on and off — so visit everything.
    stats->index_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return all;
  }

  // An entry the index rules out would return candidate = false at the
  // attribute-touch test (its accessed-columns step succeeds — we just
  // computed it at query level) and leave its state untouched, so
  // skipping it is byte-identical to visiting it.
  std::vector<int> ids = index_.Candidates(*accessed);
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

Result<std::vector<OnlineAuditor::Screening>> OnlineAuditor::ObserveImpl(
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
    DecisionCache* cache = decision_cache();
    uint64_t fingerprint = 0;
    if (cache != nullptr) {
      fingerprint = ctx.view.EpochFingerprint(stmt->from);
      profile = cache->LookupProfile(ctx.shape, fingerprint);
    }
    if (profile == nullptr) {
      auto computed = ComputeAccessProfile(*stmt, ctx.view);
      if (computed.ok()) {
        profile = std::make_shared<const AccessProfile>(std::move(*computed));
        if (cache != nullptr) {
          cache->StoreProfile(ctx.shape, fingerprint, profile);
        }
      } else {
        ctx.profile_status = computed.status();
      }
    }
    ctx.profile = profile.get();
  }

  std::vector<Entry*> visit = EntriesToVisit(ctx);
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
    auto statuses = service::RunBatch(pool, std::move(tasks));
    for (const auto& status : statuses) {
      AUDITDB_RETURN_IF_ERROR(Status(status));
    }
  } else {
    for (Entry* raw : visit) {
      AUDITDB_RETURN_IF_ERROR(ObserveEntry(raw, query, ctx));
    }
  }

  std::vector<Screening> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(ScreeningOf(*entry));
  if (listener_) listener_(query, out);
  return out;
}

Result<std::vector<OnlineAuditor::Screening>> OnlineAuditor::Observe(
    const LoggedQuery& query) {
  return ObserveImpl(query, nullptr);
}

Result<std::vector<OnlineAuditor::Screening>> OnlineAuditor::Observe(
    const LoggedQuery& query, service::ThreadPool* pool) {
  if (pool == nullptr || entries_.size() <= 1) return ObserveImpl(query, nullptr);
  return ObserveImpl(query, pool);
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
