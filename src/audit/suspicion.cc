#include "src/audit/suspicion.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/hashing.h"
#include "src/expr/analysis.h"

namespace auditdb {
namespace audit {

std::string SuspicionResult::Describe(
    const TargetView& view, const std::vector<GranuleScheme>& schemes) const {
  std::string out;
  for (const auto& access : per_scheme) {
    if (!access.suspicious) continue;
    out += "scheme " + schemes[access.scheme_index].ToString() +
           " accessed facts:";
    for (size_t f : access.accessed_facts) {
      const auto& fact = view.facts[f];
      out += " (";
      bool first = true;
      for (size_t i = 0; i < fact.tids.size(); ++i) {
        if (!first) out += ",";
        out += TidToString(fact.tids[i]);
        first = false;
      }
      out += ")";
    }
    out += "\n";
  }
  return out;
}

bool BatchIndex::Accesses(const ColumnRef& col) const {
  for (const auto* profile : batch_) {
    if (profile->Accesses(col)) return true;
  }
  return false;
}

const TidBitmap& BatchIndex::IndispensableTidBitmap(
    const std::string& table) {
  if (batch_.size() == 1) return batch_[0]->IndispensableTids(table);
  auto it = tid_bitmap_union_.find(table);
  if (it != tid_bitmap_union_.end()) return it->second;
  TidBitmap tids;
  for (const auto* profile : batch_) tids.Or(profile->IndispensableTids(table));
  return tid_bitmap_union_.emplace(table, std::move(tids)).first->second;
}

bool BatchIndex::JointlyWitnessed(
    const std::vector<std::string>& tables, const std::vector<Tid>& tids) {
  for (size_t q = 0; q < batch_.size(); ++q) {
    const auto& from = batch_[q]->result.from;
    // A query whose FROM clause lacks one of the tables legitimately has
    // no joint witness over them; skip it without touching the lineage.
    bool covers = true;
    for (const auto& t : tables) {
      if (std::find(from.begin(), from.end(), t) == from.end()) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;

    if (tables.size() == 1) {
      if (batch_[q]->IndispensableTids(tables[0]).Contains(tids[0])) {
        return true;
      }
      continue;
    }

    auto key = std::make_pair(q, tables);
    auto it = joint_.find(key);
    if (it == joint_.end()) {
      // Every table is in FROM (checked above), so this cannot fail.
      auto projected = batch_[q]->result.ProjectLineage(tables);
      std::unordered_set<std::vector<Tid>, VectorHash<Tid>> tuples(
          projected->begin(), projected->end());
      it = joint_.emplace(std::move(key), std::move(tuples)).first;
    }
    if (it->second.count(tids) > 0) return true;
  }
  return false;
}

bool BatchIndex::OutputsValue(const ColumnRef& col, const Value& value) {
  for (size_t q = 0; q < batch_.size(); ++q) {
    if (!batch_[q]->Outputs(col)) continue;
    auto key = std::make_pair(q, col);
    auto it = values_.find(key);
    if (it == values_.end()) {
      auto column_values = batch_[q]->result.ColumnValues(col);
      std::unordered_set<Value> values(column_values.begin(),
                                       column_values.end());
      it = values_.emplace(std::move(key), std::move(values)).first;
    }
    if (it->second.count(value) > 0) return true;
  }
  return false;
}

bool BatchIndex::OutputsColumn(const ColumnRef& col) const {
  for (const auto* profile : batch_) {
    if (profile->Outputs(col)) return true;
  }
  return false;
}

Result<SuspicionResult> CheckBatchSuspicion(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold, bool indispensable,
    const std::vector<const AccessProfile*>& batch,
    const SuspicionOptions& options) {
  auto resolved = ResolveSchemes(view, schemes, threshold);
  if (!resolved.ok()) return resolved.status();
  return CheckBatchSuspicion(view, *resolved, indispensable, batch, options);
}

Result<SuspicionResult> CheckBatchSuspicion(
    const TargetView& view, const std::vector<ResolvedScheme>& resolved,
    bool indispensable, const std::vector<const AccessProfile*>& batch,
    const SuspicionOptions& options) {
  SuspicionResult result;
  BatchIndex index(batch);
  // Per-table mode: the batch's indispensable union per scheme table.
  const bool per_table =
      indispensable && options.mode == IndispensabilityMode::kPerTable;

  for (size_t s = 0; s < resolved.size(); ++s) {
    const ResolvedScheme& scheme = resolved[s];
    SchemeAccess access;
    access.scheme_index = s;

    // Attribute coverage by the batch.
    access.attrs_covered = true;
    for (const auto& attr : scheme.scheme.attrs) {
      bool covered = indispensable ? index.Accesses(attr)
                                   : index.OutputsColumn(attr);
      if (!covered) {
        access.attrs_covered = false;
        break;
      }
    }

    if (access.attrs_covered) {
      std::vector<const TidBitmap*> unions;
      if (per_table) {
        for (const auto& table : scheme.scheme.tid_tables) {
          unions.push_back(&index.IndispensableTidBitmap(table));
        }
      }

      // Word-wide prescreen (per-table mode): if the view's tids for some
      // scheme table never intersect the batch's indispensable union, the
      // per-fact probes below would reject every fact — skip them.
      bool can_access = true;
      if (per_table && view.table_tids.size() == view.tables.size()) {
        for (size_t i = 0; i < scheme.tid_positions.size(); ++i) {
          if (!view.table_tids[scheme.tid_positions[i]].Intersects(
                  *unions[i])) {
            can_access = false;
            break;
          }
        }
      }

      if (can_access) {
        for (size_t f : scheme.valid_facts) {
          const TargetView::Fact& fact = view.facts[f];
          bool accessed = true;
          if (indispensable) {
            const std::vector<size_t>& positions = scheme.tid_positions;
            if (per_table) {
              for (size_t i = 0; i < positions.size(); ++i) {
                if (!unions[i]->Contains(fact.tids[positions[i]])) {
                  accessed = false;
                  break;
                }
              }
            } else {
              std::vector<Tid> tuple;
              tuple.reserve(positions.size());
              for (size_t p : positions) tuple.push_back(fact.tids[p]);
              accessed =
                  index.JointlyWitnessed(scheme.scheme.tid_tables, tuple);
            }
          } else {
            for (size_t c : scheme.columns) {
              if (!index.OutputsValue(view.columns[c], fact.values[c])) {
                accessed = false;
                break;
              }
            }
          }
          if (accessed) access.accessed_facts.push_back(f);
        }
      }
    }

    access.suspicious = access.attrs_covered && scheme.k > 0 &&
                        access.accessed_facts.size() >= scheme.k;
    if (access.suspicious) result.suspicious = true;
    result.per_scheme.push_back(std::move(access));
  }
  return result;
}

namespace {

/// Strips suspicion clauses off `base`, keeping target data + filters.
AuditExpression CloneBase(const AuditExpression& base) {
  AuditExpression out = base.Clone();
  out.threshold = Threshold::N(1);
  out.indispensable = true;
  return out;
}

}  // namespace

AuditExpression MakePerfectPrivacy(const AuditExpression& base) {
  AuditExpression out = CloneBase(base);
  out.attrs = AttrStructure::Optional({ColumnRef{"", "*"}});
  return out;
}

AuditExpression MakeWeakSyntactic(const AuditExpression& base) {
  AuditExpression out = CloneBase(base);
  std::set<ColumnRef> attrs = base.attrs.AllAttributes();
  for (const auto& col : CollectColumns(base.where.get())) {
    attrs.insert(col);
  }
  out.attrs = AttrStructure::Optional(
      std::vector<ColumnRef>(attrs.begin(), attrs.end()));
  return out;
}

AuditExpression MakeSemantic(const AuditExpression& base) {
  AuditExpression out = CloneBase(base);
  std::set<ColumnRef> attrs = base.attrs.AllAttributes();
  out.attrs = AttrStructure::Mandatory(
      std::vector<ColumnRef>(attrs.begin(), attrs.end()));
  return out;
}

AuditExpression MakeThresholdNotion(const AuditExpression& base,
                                    Threshold threshold) {
  AuditExpression out = MakeSemantic(base);
  out.threshold = threshold;
  return out;
}

AuditExpression MakeMandatoryOptional(const AuditExpression& base,
                                      std::vector<ColumnRef> identifiers,
                                      std::vector<ColumnRef> sensitive) {
  AuditExpression out = CloneBase(base);
  out.attrs.groups.clear();
  if (!identifiers.empty()) {
    out.attrs.groups.push_back(AttrGroup{true, std::move(identifiers)});
  }
  if (!sensitive.empty()) {
    out.attrs.groups.push_back(AttrGroup{false, std::move(sensitive)});
  }
  return out;
}

}  // namespace audit
}  // namespace auditdb
