// Test-only reference model of the suspicion kernels: the granule-access
// definitions (suspicion.h) evaluated literally over std::set, one fact
// and one query at a time, with none of the production kernel's support
// counts or bitmaps. Differential tests compare CheckBatchSuspicion,
// MinimizeBatch and GranuleEnumerator against it.
#ifndef AUDITDB_TESTS_AUDIT_SUSPICION_REFERENCE_H_
#define AUDITDB_TESTS_AUDIT_SUSPICION_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/audit/granule.h"
#include "src/audit/suspicion.h"

namespace auditdb {
namespace audit {
namespace reference {

/// Facts of `view` whose every attribute of `scheme` is non-NULL, in fact
/// order; empty when the scheme does not resolve against the view.
inline std::vector<size_t> ValidFacts(const TargetView& view,
                                      const GranuleScheme& scheme) {
  std::vector<size_t> cols;
  for (const auto& attr : scheme.attrs) {
    auto idx = view.ColumnIndex(attr);
    if (!idx.ok()) return {};
    cols.push_back(*idx);
  }
  for (const auto& table : scheme.tid_tables) {
    if (!view.TableIndex(table).ok()) return {};
  }
  std::vector<size_t> out;
  for (size_t f = 0; f < view.facts.size(); ++f) {
    bool valid = true;
    for (size_t c : cols) valid = valid && !view.facts[f].values[c].is_null();
    if (valid) out.push_back(f);
  }
  return out;
}

/// Tids of `table` in the query's lineage (Definition 2).
inline std::set<Tid> LineageTids(const QueryResult& result,
                                 const std::string& table) {
  std::set<Tid> out;
  for (size_t j = 0; j < result.from.size(); ++j) {
    if (result.from[j] != table) continue;
    for (const auto& row : result.lineage) {
      if (j < row.size()) out.insert(row[j]);
    }
  }
  return out;
}

/// Whether the query's lineage, projected onto `tables`, contains `tuple`.
/// A query whose FROM lacks one of the tables witnesses nothing; a lineage
/// row shorter than FROM is an error.
inline Result<bool> Witnesses(const QueryResult& result,
                              const std::vector<std::string>& tables,
                              const std::vector<Tid>& tuple) {
  std::vector<size_t> positions;
  for (const auto& table : tables) {
    auto it = std::find(result.from.begin(), result.from.end(), table);
    if (it == result.from.end()) return false;
    positions.push_back(static_cast<size_t>(it - result.from.begin()));
  }
  std::set<std::vector<Tid>> projected;
  for (const auto& row : result.lineage) {
    if (row.size() != result.from.size()) {
      return Status::Internal("ragged lineage row");
    }
    std::vector<Tid> key;
    for (size_t p : positions) key.push_back(row[p]);
    projected.insert(key);
  }
  return projected.count(tuple) > 0;
}

/// Values the query outputs in column `col`.
inline std::set<Value> OutputValues(const QueryResult& result,
                                    const ColumnRef& col) {
  std::set<Value> out;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (!(result.columns[i] == col)) continue;
    for (const auto& row : result.rows) out.insert(row[i]);
  }
  return out;
}

/// CheckBatchSuspicion, evaluated literally.
inline Result<SuspicionResult> CheckBatch(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold, bool indispensable,
    const std::vector<const AccessProfile*>& batch,
    IndispensabilityMode mode) {
  SuspicionResult result;
  for (size_t s = 0; s < schemes.size(); ++s) {
    const GranuleScheme& scheme = schemes[s];
    SchemeAccess access;
    access.scheme_index = s;
    access.attrs_covered = true;
    for (const auto& attr : scheme.attrs) {
      bool covered = false;
      for (const auto* q : batch) {
        covered = covered || (indispensable ? q->Accesses(attr)
                                            : q->Outputs(attr));
      }
      access.attrs_covered = access.attrs_covered && covered;
    }
    std::vector<size_t> valid;
    if (access.attrs_covered) valid = ValidFacts(view, scheme);
    for (size_t f : valid) {
      const TargetView::Fact& fact = view.facts[f];
      bool accessed = true;
      if (indispensable && mode == IndispensabilityMode::kPerTable) {
        for (const auto& table : scheme.tid_tables) {
          Tid tid = fact.tids[*view.TableIndex(table)];
          bool witnessed = false;
          for (const auto* q : batch) {
            witnessed = witnessed || LineageTids(q->result, table).count(tid);
          }
          accessed = accessed && witnessed;
        }
      } else if (indispensable) {
        std::vector<Tid> tuple;
        for (const auto& table : scheme.tid_tables) {
          tuple.push_back(fact.tids[*view.TableIndex(table)]);
        }
        accessed = false;
        for (const auto* q : batch) {
          auto witnessed = Witnesses(q->result, scheme.tid_tables, tuple);
          if (!witnessed.ok()) return witnessed.status();
          if (*witnessed) {
            accessed = true;
            break;
          }
        }
      } else {
        for (const auto& attr : scheme.attrs) {
          const Value& value = fact.values[*view.ColumnIndex(attr)];
          bool output = false;
          for (const auto* q : batch) {
            output = output || (q->Outputs(attr) &&
                                OutputValues(q->result, attr).count(value));
          }
          accessed = accessed && output;
        }
      }
      if (accessed) access.accessed_facts.push_back(f);
    }
    size_t k = threshold.all ? valid.size() : static_cast<size_t>(threshold.n);
    access.suspicious = access.attrs_covered && k > 0 &&
                        access.accessed_facts.size() >= k;
    result.suspicious = result.suspicious || access.suspicious;
    result.per_scheme.push_back(std::move(access));
  }
  return result;
}

/// Expects the kernel's result to match the model's, scheme by scheme.
inline void ExpectSameResult(const SuspicionResult& got,
                             const SuspicionResult& want,
                             const std::string& where) {
  EXPECT_EQ(got.suspicious, want.suspicious) << where;
  ASSERT_EQ(got.per_scheme.size(), want.per_scheme.size()) << where;
  for (size_t s = 0; s < got.per_scheme.size(); ++s) {
    EXPECT_EQ(got.per_scheme[s].attrs_covered,
              want.per_scheme[s].attrs_covered)
        << where << " scheme " << s;
    EXPECT_EQ(got.per_scheme[s].accessed_facts,
              want.per_scheme[s].accessed_facts)
        << where << " scheme " << s;
    EXPECT_EQ(got.per_scheme[s].suspicious, want.per_scheme[s].suspicious)
        << where << " scheme " << s;
  }
}

}  // namespace reference
}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_TESTS_AUDIT_SUSPICION_REFERENCE_H_
