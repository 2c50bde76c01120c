#ifndef AUDITDB_TESTS_AUDIT_ONLINE_REFERENCE_H_
#define AUDITDB_TESTS_AUDIT_ONLINE_REFERENCE_H_

/// A reference model of OnlineAuditor for differential tests. Each
/// Observe recomputes every screening of the observed prefix from
/// scratch: no expression index, no decision cache and no state carried
/// from one observation to the next. It keeps only its inputs — the
/// registered expressions and, per observed query, the database snapshot
/// the query was observed against.
///
/// Per expression, one pass over the prefix (queries observed after its
/// registration) applies the definitions directly:
///   - a query contributes iff it parses, `filter.Admits` it and a direct
///     `IsBatchCandidate` says so; a candidacy error, or a contributing
///     query's execution error, is the observation's error;
///   - a contributing query covers the scheme attributes its
///     `ComputeAccessProfile` accesses and adds its
///     `IndispensableTidBitmap` tids of every FROM table;
///   - the target view is `ComputeTargetView` at the snapshot of the
///     latest contributing query (at registration when none), and a fact
///     is accessed iff each of its scheme tids was added;
///   - the expression fires once, after some contributing query, a scheme
///     is fully covered with at least k accessed facts, and stays fired;
///   - the rank is the formula documented in online.h.
///
/// An observation that fails leaves the prefix as it was, so a
/// differential test compares the monitor's state after a failure too.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/audit/audit_expression.h"
#include "src/audit/candidate.h"
#include "src/audit/granule.h"
#include "src/audit/online.h"
#include "src/audit/target_view.h"
#include "src/engine/lineage.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"

namespace auditdb {
namespace audit {

class OnlineReference {
 public:
  using Screening = OnlineAuditor::Screening;

  explicit OnlineReference(const Database* db) : db_(db) {}

  /// Mirrors OnlineAuditor::AddExpression: qualifies `expr` against the
  /// current catalog and screens it from the next observation on. Ids
  /// count from 1 in registration order, like the monitor's.
  Status AddExpression(const AuditExpression& expr) {
    Registered registered;
    registered.id = static_cast<int>(exprs_.size()) + 1;
    registered.expr = expr.Clone();
    registered.registered_at = db_->Snapshot();
    AUDITDB_RETURN_IF_ERROR(
        registered.expr.Qualify(registered.registered_at.catalog()));
    registered.first_query = observed_.size();
    exprs_.push_back(std::move(registered));
    return Status::Ok();
  }

  /// Screens the observed prefix plus `query` (against the current
  /// database state). On error the query is not added to the prefix.
  Result<std::vector<Screening>> Observe(const LoggedQuery& query) {
    observed_.push_back(Observed{query, db_->Snapshot()});
    auto screenings = ScreenPrefix();
    if (!screenings.ok()) observed_.pop_back();
    return screenings;
  }

 private:
  struct Registered {
    int id = 0;
    AuditExpression expr;
    DatabaseView registered_at;
    /// Index of the first observation the expression screens.
    size_t first_query = 0;
  };
  struct Observed {
    LoggedQuery query;
    DatabaseView at;
  };

  Result<std::vector<Screening>> ScreenPrefix() const {
    // Parse and execute each query at most once per pass; every
    // expression of the pass reads the same outcomes.
    std::vector<std::optional<sql::SelectStatement>> stmts(observed_.size());
    std::vector<std::optional<Result<AccessProfile>>> profiles(
        observed_.size());
    for (size_t i = 0; i < observed_.size(); ++i) {
      auto stmt = sql::ParseSelect(observed_[i].query.sql);
      if (stmt.ok()) stmts[i] = std::move(*stmt);
    }
    auto profile_of = [&](size_t i) -> const Result<AccessProfile>& {
      if (!profiles[i].has_value()) {
        profiles[i] = ComputeAccessProfile(*stmts[i], observed_[i].at);
      }
      return *profiles[i];
    };

    std::vector<Screening> out;
    for (const Registered& registered : exprs_) {
      const AuditExpression& expr = registered.expr;
      const std::vector<GranuleScheme> schemes = BuildSchemes(expr);
      std::vector<std::set<ColumnRef>> covered(schemes.size());
      std::map<std::string, std::set<Tid>> tids;
      const DatabaseView* view_at = &registered.registered_at;
      bool fired = false;
      for (size_t i = registered.first_query; i < observed_.size(); ++i) {
        const Observed& observed = observed_[i];
        if (!stmts[i].has_value() || !expr.filter.Admits(observed.query)) {
          continue;
        }
        auto candidate = IsBatchCandidate(
            *stmts[i], expr, observed.at.catalog(), CandidateOptions{});
        if (!candidate.ok()) return candidate.status();
        if (!*candidate) continue;
        const Result<AccessProfile>& profile = profile_of(i);
        if (!profile.ok()) return profile.status();
        for (size_t s = 0; s < schemes.size(); ++s) {
          for (const ColumnRef& attr : schemes[s].attrs) {
            if (profile->Accesses(attr)) covered[s].insert(attr);
          }
        }
        for (const std::string& table : expr.from) {
          TidBitmap bitmap = profile->result.IndispensableTidBitmap(table);
          for (int64_t tid : bitmap.ToVector()) tids[table].insert(tid);
        }
        view_at = &observed.at;
        if (!fired) {
          auto ranks = Rank(expr, schemes, covered, tids, *view_at);
          if (!ranks.ok()) return ranks.status();
          fired = ranks->fired;
        }
      }
      auto ranks = Rank(expr, schemes, covered, tids, *view_at);
      if (!ranks.ok()) return ranks.status();
      Screening screening = ranks->screening;
      screening.expression_id = registered.id;
      screening.fired = fired;
      if (fired) screening.rank = 1.0;
      out.push_back(screening);
    }
    return out;
  }

  struct Ranked {
    Screening screening;
    /// Some scheme is fully covered with at least k accessed facts.
    bool fired = false;
  };

  /// The online.h rank of the accumulated coverage against the target
  /// view at `at`: rank(S) = (|covered(S)| + min(accessed facts, k)) /
  /// (|S| + k), maximized over schemes (the first scheme wins ties).
  static Result<Ranked> Rank(const AuditExpression& expr,
                             const std::vector<GranuleScheme>& schemes,
                             const std::vector<std::set<ColumnRef>>& covered,
                             const std::map<std::string, std::set<Tid>>& tids,
                             const DatabaseView& at) {
    auto view = ComputeTargetView(expr, at, Timestamp());
    if (!view.ok()) return view.status();
    Ranked ranked;
    for (size_t s = 0; s < schemes.size(); ++s) {
      const GranuleScheme& scheme = schemes[s];
      std::vector<size_t> columns;
      for (const ColumnRef& attr : scheme.attrs) {
        auto column = view->ColumnIndex(attr);
        if (!column.ok()) return column.status();
        columns.push_back(*column);
      }
      std::vector<size_t> positions;
      for (const std::string& table : scheme.tid_tables) {
        auto position = view->TableIndex(table);
        if (!position.ok()) return position.status();
        positions.push_back(*position);
      }
      size_t valid = 0;
      size_t accessed = 0;
      for (const TargetView::Fact& fact : view->facts) {
        if (std::any_of(columns.begin(), columns.end(), [&](size_t c) {
              return fact.values[c].is_null();
            })) {
          continue;
        }
        ++valid;
        bool is_accessed = true;
        for (size_t t = 0; t < positions.size(); ++t) {
          auto it = tids.find(scheme.tid_tables[t]);
          if (it == tids.end() ||
              it->second.count(fact.tids[positions[t]]) == 0) {
            is_accessed = false;
          }
        }
        if (is_accessed) ++accessed;
      }
      const size_t k =
          expr.threshold.all ? valid : static_cast<size_t>(expr.threshold.n);
      if (k == 0 || scheme.attrs.empty()) continue;
      if (covered[s].size() == scheme.attrs.size() && accessed >= k) {
        ranked.fired = true;
      }
      const double rank =
          (static_cast<double>(covered[s].size()) +
           static_cast<double>(std::min(accessed, k))) /
          (static_cast<double>(scheme.attrs.size()) + static_cast<double>(k));
      if (rank > ranked.screening.rank) {
        ranked.screening.rank = rank;
        ranked.screening.best_scheme = s;
      }
    }
    return ranked;
  }

  const Database* db_;
  std::vector<Registered> exprs_;
  std::vector<Observed> observed_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_TESTS_AUDIT_ONLINE_REFERENCE_H_
