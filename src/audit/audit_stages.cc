#include "src/audit/audit_stages.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/audit/candidate.h"
#include "src/common/hashing.h"

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

/// The support counts MinimizeBatch reads its drops off, built once.
///
/// A valid fact of a scheme needs *components* from the batch to count as
/// accessed: its tid in each scheme table (kPerTable), its whole tid
/// tuple over the scheme tables (kJointPerQuery), or its value in each
/// scheme attribute (INDISPENSABLE false). A fact is accessed while every
/// one of its components has a kept supplier; a scheme attribute is
/// covered while some kept query accesses (outputs, for value
/// containment) it. Dropping query q thus loses exactly the accessed
/// facts with a component only q supplies, and the attributes only q
/// covers — the same verdict CheckBatchSuspicion gives on the batch
/// without q.
class SupportCounts {
 public:
  /// Resolves the schemes, collects every component of every valid fact
  /// and every query's supports: in per-table mode the profiles' per-table
  /// tid bitmaps, in joint mode each covering query's lineage projected
  /// onto the scheme tables. Fails when a scheme does not resolve.
  Status Build(const TargetView& view,
               const std::vector<GranuleScheme>& schemes,
               const AuditExpression& expr,
               const std::vector<const AccessProfile*>& profiles,
               IndispensabilityMode mode);

  /// Whether the kept batch without query `q` still fires some scheme.
  /// O(|supports of q|) plus one pass over the live schemes.
  bool SuspiciousWithout(size_t q);

  /// Removes query `q` from the kept batch.
  void Drop(size_t q);

 private:
  /// A scheme that can fire at all: k > 0 and at least k valid facts.
  struct LiveScheme {
    size_t k = 0;
    std::vector<uint32_t> attrs;
    /// Valid facts the kept batch accesses.
    size_t accessed = 0;
    /// Scratch for SuspiciousWithout.
    size_t lost = 0;
  };

  /// Id of `key` in `*ids`, appending it when new.
  template <typename Key, typename Map>
  static uint32_t Intern(Map* ids, std::vector<Key>* keys, const Key& key) {
    auto [it, fresh] = ids->emplace(key, static_cast<uint32_t>(keys->size()));
    if (fresh) keys->push_back(key);
    return it->second;
  }

  /// Records that `slot` needs component `key` of `*components`.
  template <typename Key, typename Map>
  void Need(Map* components, Key key, uint32_t slot) {
    auto [it, fresh] = components->emplace(
        std::move(key), static_cast<uint32_t>(suppliers_.size()));
    if (fresh) {
      suppliers_.push_back(0);
      component_slots_.emplace_back();
    }
    component_slots_[it->second].push_back(slot);
  }

  std::vector<LiveScheme> schemes_;
  /// One slot per (live scheme, valid fact).
  std::vector<uint32_t> slot_scheme_;
  std::vector<char> slot_accessed_;
  std::vector<size_t> slot_stamp_;
  /// Per component: kept suppliers, and the slots that need it.
  std::vector<uint32_t> suppliers_;
  std::vector<std::vector<uint32_t>> component_slots_;
  /// Per scheme attribute: kept queries covering it.
  std::vector<uint32_t> coverers_;
  std::vector<char> attr_lost_;
  /// Per query: the distinct components it supplies and attributes it
  /// covers.
  std::vector<std::vector<uint32_t>> supplies_;
  std::vector<std::vector<uint32_t>> covers_;
};

Status SupportCounts::Build(const TargetView& view,
                            const std::vector<GranuleScheme>& schemes,
                            const AuditExpression& expr,
                            const std::vector<const AccessProfile*>& profiles,
                            IndispensabilityMode mode) {
  auto resolved = ResolveSchemes(view, schemes, expr.threshold);
  if (!resolved.ok()) return resolved.status();
  const bool per_table =
      expr.indispensable && mode == IndispensabilityMode::kPerTable;
  const bool joint =
      expr.indispensable && mode == IndispensabilityMode::kJointPerQuery;

  // Component keys: (table, tid) per table; (scheme tables, tid tuple)
  // per table list in joint mode; (attribute, value) per attribute.
  std::map<ColumnRef, uint32_t> attr_ids;
  std::vector<ColumnRef> attrs;
  std::map<std::string, uint32_t> table_ids;
  std::vector<std::string> tables;
  std::map<std::vector<std::string>, uint32_t> group_ids;
  std::vector<std::vector<std::string>> groups;
  std::vector<std::unordered_map<Tid, uint32_t>> by_tid;
  std::vector<std::unordered_map<std::vector<Tid>, uint32_t, VectorHash<Tid>>>
      by_tuple;
  std::vector<std::unordered_map<Value, uint32_t>> by_value;

  for (const ResolvedScheme& scheme : *resolved) {
    if (scheme.k == 0 || scheme.valid_facts.size() < scheme.k) continue;

    LiveScheme live;
    live.k = scheme.k;
    for (size_t c : scheme.columns) {
      live.attrs.push_back(Intern(&attr_ids, &attrs, view.columns[c]));
    }
    by_value.resize(attrs.size());
    std::vector<uint32_t> table_keys;
    for (const auto& table : scheme.scheme.tid_tables) {
      table_keys.push_back(Intern(&table_ids, &tables, table));
    }
    by_tid.resize(tables.size());
    uint32_t group = Intern(&group_ids, &groups, scheme.scheme.tid_tables);
    by_tuple.resize(groups.size());
    const std::vector<size_t>& tid_positions = scheme.tid_positions;

    const auto s = static_cast<uint32_t>(schemes_.size());
    for (size_t f : scheme.valid_facts) {
      const TargetView::Fact& fact = view.facts[f];
      const auto slot = static_cast<uint32_t>(slot_scheme_.size());
      slot_scheme_.push_back(s);
      if (per_table) {
        for (size_t i = 0; i < tid_positions.size(); ++i) {
          Need(&by_tid[table_keys[i]], fact.tids[tid_positions[i]], slot);
        }
      } else if (joint) {
        std::vector<Tid> tuple;
        tuple.reserve(tid_positions.size());
        for (size_t p : tid_positions) tuple.push_back(fact.tids[p]);
        Need(&by_tuple[group], std::move(tuple), slot);
      } else {
        for (size_t i = 0; i < scheme.columns.size(); ++i) {
          Need(&by_value[live.attrs[i]], fact.values[scheme.columns[i]],
               slot);
        }
      }
    }
    schemes_.push_back(std::move(live));
  }

  // One pass over every query's supports.
  supplies_.resize(profiles.size());
  covers_.resize(profiles.size());
  coverers_.assign(attrs.size(), 0);
  std::vector<size_t> stamp(suppliers_.size(), 0);
  for (size_t q = 0; q < profiles.size(); ++q) {
    const AccessProfile& profile = *profiles[q];
    const QueryResult& result = profile.result;
    auto supply = [&](const auto& components, const auto& key) {
      auto it = components.find(key);
      if (it == components.end() || stamp[it->second] == q + 1) return;
      stamp[it->second] = q + 1;
      supplies_[q].push_back(it->second);
    };
    if (per_table) {
      for (size_t t = 0; t < tables.size(); ++t) {
        profile.IndispensableTids(tables[t]).ForEach(
            [&](Tid tid) { supply(by_tid[t], tid); });
      }
    } else if (joint) {
      for (size_t g = 0; g < groups.size(); ++g) {
        // A query whose FROM lacks a scheme table witnesses nothing over
        // it.
        bool covers = true;
        for (const auto& table : groups[g]) {
          if (std::find(result.from.begin(), result.from.end(), table) ==
              result.from.end()) {
            covers = false;
            break;
          }
        }
        if (!covers) continue;
        auto projected = result.ProjectLineage(groups[g]);
        for (const auto& tuple : *projected) supply(by_tuple[g], tuple);
      }
    } else {
      for (size_t a = 0; a < attrs.size(); ++a) {
        if (!profile.Outputs(attrs[a])) continue;
        for (const auto& value : result.ColumnValues(attrs[a])) {
          supply(by_value[a], value);
        }
      }
    }
    for (uint32_t c : supplies_[q]) ++suppliers_[c];
    for (size_t a = 0; a < attrs.size(); ++a) {
      bool covered = expr.indispensable ? profile.Accesses(attrs[a])
                                        : profile.Outputs(attrs[a]);
      if (!covered) continue;
      covers_[q].push_back(static_cast<uint32_t>(a));
      ++coverers_[a];
    }
  }

  slot_accessed_.assign(slot_scheme_.size(), 1);
  slot_stamp_.assign(slot_scheme_.size(), 0);
  attr_lost_.assign(attrs.size(), 0);
  for (size_t c = 0; c < suppliers_.size(); ++c) {
    if (suppliers_[c] > 0) continue;
    for (uint32_t slot : component_slots_[c]) slot_accessed_[slot] = 0;
  }
  for (size_t slot = 0; slot < slot_scheme_.size(); ++slot) {
    if (slot_accessed_[slot]) ++schemes_[slot_scheme_[slot]].accessed;
  }
  return Status::Ok();
}

bool SupportCounts::SuspiciousWithout(size_t q) {
  for (uint32_t a : covers_[q]) {
    if (coverers_[a] == 1) attr_lost_[a] = 1;
  }
  for (uint32_t c : supplies_[q]) {
    if (suppliers_[c] != 1) continue;
    for (uint32_t slot : component_slots_[c]) {
      if (!slot_accessed_[slot] || slot_stamp_[slot] == q + 1) continue;
      slot_stamp_[slot] = q + 1;
      ++schemes_[slot_scheme_[slot]].lost;
    }
  }
  bool suspicious = false;
  for (LiveScheme& scheme : schemes_) {
    bool covered = true;
    for (uint32_t a : scheme.attrs) {
      if (coverers_[a] == 0 || attr_lost_[a]) {
        covered = false;
        break;
      }
    }
    if (covered && scheme.accessed - scheme.lost >= scheme.k) {
      suspicious = true;
    }
    scheme.lost = 0;
  }
  for (uint32_t a : covers_[q]) attr_lost_[a] = 0;
  return suspicious;
}

void SupportCounts::Drop(size_t q) {
  for (uint32_t a : covers_[q]) --coverers_[a];
  for (uint32_t c : supplies_[q]) {
    if (--suppliers_[c] > 0) continue;
    for (uint32_t slot : component_slots_[c]) {
      if (!slot_accessed_[slot]) continue;
      slot_accessed_[slot] = 0;
      --schemes_[slot_scheme_[slot]].accessed;
    }
  }
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
  SupportCounts counts;
  AUDITDB_RETURN_IF_ERROR(
      counts.Build(view, schemes, expr, profiles, options.mode));
  std::vector<int64_t> out;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (counts.SuspiciousWithout(i)) {
      counts.Drop(i);
    } else {
      out.push_back(profile_ids[i]);
    }
  }
  return out;
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
