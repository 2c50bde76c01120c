#include "src/audit/audit_stages.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/audit/candidate.h"

namespace auditdb {
namespace audit {

namespace {

/// Shape-level outcome of parse + static candidacy, shared by every log
/// entry with that shape inside one screened range.
struct ShapeScreen {
  bool parse_failed = false;
  bool error = false;
  bool candidate = false;
  std::shared_ptr<const sql::SelectStatement> stmt;
  std::shared_ptr<const StaticFacts> facts;
};

ShapeScreen ScreenShape(const LoggedQuery& logged,
                        const AuditExpression& expr,
                        const std::set<ColumnRef>& audited,
                        const Catalog& catalog,
                        const CandidateOptions& options,
                        const CandidateCacheContext& cache_ctx) {
  ShapeScreen screen;
  std::shared_ptr<const sql::SelectStatement> stmt =
      logged.parsed->Statement(logged.sql);
  if (stmt == nullptr) {
    screen.parse_failed = true;
    return screen;
  }
  auto facts = logged.parsed->Facts(
      cache_ctx.database_id, cache_ctx.state_key, [&] {
        return std::make_shared<const StaticFacts>(
            ComputeStaticFacts(*stmt, catalog));
      });
  auto candidate = IsBatchCandidate(*facts, expr, audited, options);
  if (!candidate.ok()) {
    // Unresolvable columns / unknown tables: the check proved nothing
    // about this query. Record an error verdict, distinct from
    // "statically cleared".
    screen.error = true;
  } else if (*candidate) {
    screen.candidate = true;
    screen.stmt = std::move(stmt);
    screen.facts = std::move(facts);
  }
  return screen;
}

}  // namespace

StaticScreenResult StaticScreenRange(const AuditExpression& expr,
                                     const QueryLog& log,
                                     const Catalog& catalog,
                                     const CandidateOptions& options,
                                     size_t begin, size_t end,
                                     const CandidateCacheContext& cache_ctx) {
  StaticScreenResult out;
  end = std::min(end, log.size());
  const std::set<ColumnRef> audited = expr.attrs.AllAttributes();
  std::unordered_map<const ParsedShape*, ShapeScreen> memo;
  for (size_t i = begin; i < end; ++i) {
    const LoggedQuery& logged = log.Entry(i);
    QueryVerdict verdict;
    verdict.query_id = logged.id;
    verdict.admitted = expr.filter.Admits(logged);
    if (verdict.admitted) {
      ++out.num_admitted;
      auto [it, fresh] = memo.try_emplace(logged.parsed);
      ShapeScreen& screen = it->second;
      if (fresh) {
        screen = ScreenShape(logged, expr, audited, catalog, options,
                             cache_ctx);
      }
      verdict.parse_failed = screen.parse_failed;
      verdict.error = screen.error;
      if (screen.candidate) {
        verdict.candidate = true;
        out.candidates.push_back(
            ScreenedCandidate{i, screen.stmt, logged.shape, screen.facts});
      }
    }
    out.verdicts.push_back(verdict);
  }
  return out;
}

void StaticOnlyBatchVerdict(const AuditExpression& expr,
                            const std::vector<ScreenedCandidate>& candidates,
                            AuditReport* report) {
  std::unordered_set<ColumnRef, ColumnRefHash> covered;
  for (const ScreenedCandidate& candidate : candidates) {
    const auto& cols = expr.indispensable ? candidate.facts->accessed
                                          : candidate.facts->outputs;
    if (!cols.ok()) continue;
    covered.insert(cols->begin(), cols->end());
  }
  auto schemes = expr.attrs.EnumerateSchemes();
  report->num_schemes = schemes.size();
  for (const auto& scheme : schemes) {
    bool all = true;
    for (const auto& attr : scheme) {
      if (covered.count(attr) == 0) {
        all = false;
        break;
      }
    }
    if (all && !scheme.empty()) {
      report->batch_suspicious = true;
      report->evidence +=
          "static: candidates cover scheme {" + [&scheme] {
            std::string s;
            for (const auto& a : scheme) {
              if (!s.empty()) s += ",";
              s += a.ToString();
            }
            return s;
          }() + "}\n";
    }
  }
}

Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr,
    const std::vector<const AccessProfile*>& profiles,
    const std::vector<int64_t>& profile_ids, const SuspicionOptions& options) {
  auto resolved = ResolveSchemes(view, schemes, expr.threshold);
  if (!resolved.ok()) return resolved.status();
  return BatchSupports(view, *resolved, expr.indispensable, profiles,
                       options.mode)
      .Minimize(profile_ids);
}

Result<std::vector<int64_t>> MinimizeBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    const AuditExpression& expr, const std::vector<AccessProfile>& profiles,
    const std::vector<int64_t>& profile_ids, const SuspicionOptions& options) {
  std::vector<const AccessProfile*> pointers;
  pointers.reserve(profiles.size());
  for (const AccessProfile& profile : profiles) pointers.push_back(&profile);
  return MinimizeBatch(view, schemes, expr, pointers, profile_ids, options);
}

std::vector<std::string> CommonTables(const sql::SelectStatement& query,
                                      const AuditExpression& expr) {
  std::vector<std::string> out;
  for (const auto& table : expr.from) {
    if (std::find(query.from.begin(), query.from.end(), table) !=
        query.from.end()) {
      out.push_back(table);
    }
  }
  return out;
}

Result<bool> SharesIndispensableTuple(const QueryResult& query_result,
                                      const AuditExpression& expr,
                                      const std::vector<std::string>& common,
                                      const DatabaseView& state) {
  auto run_audit_query = [&]() -> Result<QueryResult> {
    sql::SelectStatement audit_query;
    audit_query.select_star = true;
    audit_query.from = expr.from;
    audit_query.where = expr.where ? expr.where->Clone() : nullptr;
    return Execute(audit_query, state);
  };

  if (common.size() == 1) {
    // Single common table: both projections are plain tid sets, so the
    // intersection test is one word-wide bitmap Intersects.
    TidBitmap query_tids = query_result.IndispensableTidBitmap(common[0]);
    if (query_tids.Empty()) return false;
    auto audit_result = run_audit_query();
    if (!audit_result.ok()) return audit_result.status();
    return query_tids.Intersects(
        audit_result->IndispensableTidBitmap(common[0]));
  }

  // A tid tuple over several tables has no bitmap form: intersect the
  // projected tuple sets.
  auto query_tuples = query_result.ProjectLineage(common);
  if (!query_tuples.ok()) return query_tuples.status();
  if (query_tuples->empty()) return false;
  auto audit_result = run_audit_query();
  if (!audit_result.ok()) return audit_result.status();
  auto audit_tuples = audit_result->ProjectLineage(common);
  if (!audit_tuples.ok()) return audit_tuples.status();
  for (const auto& tuple : *query_tuples) {
    if (audit_tuples->count(tuple) > 0) return true;
  }
  return false;
}

}  // namespace audit
}  // namespace auditdb
