#include "src/audit/suspicion.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/common/tid_bitmap.h"
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

namespace {

/// Id of `key` in `*ids`, appending it to `*keys` when new.
template <typename Key, typename Map>
uint32_t Intern(Map* ids, std::vector<Key>* keys, const Key& key) {
  auto [it, fresh] = ids->emplace(key, static_cast<uint32_t>(keys->size()));
  if (fresh) keys->push_back(key);
  return it->second;
}

/// Whether every attribute id in `attrs` passes `covered`.
template <typename Covered>
bool AllCovered(const std::vector<uint32_t>& attrs, Covered covered) {
  return std::all_of(attrs.begin(), attrs.end(), covered);
}

/// One family of components: a table's tids, a table list's tid tuples,
/// or an attribute's values. Collects the (key, slot) needs of the facts;
/// once sealed, holds the distinct keys sorted, the i-th being component
/// `first` + i.
template <typename Key>
struct Family {
  std::vector<std::pair<Key, uint32_t>> needs;
  std::vector<Key> keys;
  uint32_t first = 0;

  /// Sorts the needs into one run per key and closes each run's slots,
  /// in slot order, as the next list of `*components`.
  template <typename Lists>
  void Seal(Lists* components) {
    std::sort(needs.begin(), needs.end());
    first = static_cast<uint32_t>(components->size());
    for (size_t i = 0; i < needs.size(); ++i) {
      components->ids.push_back(needs[i].second);
      if (i + 1 == needs.size() || !(needs[i + 1].first == needs[i].first)) {
        keys.push_back(needs[i].first);
        components->Close();
      }
    }
    needs = {};
  }

  /// The component of `key`, or -1 when no fact needs it.
  int64_t Find(const Key& key) const {
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || !(*it == key)) return -1;
    return first + (it - keys.begin());
  }
};

}  // namespace

BatchSupports::BatchSupports(const TargetView& view,
                             const std::vector<ResolvedScheme>& schemes,
                             bool indispensable,
                             const std::vector<const AccessProfile*>& batch,
                             IndispensabilityMode mode) {
  const bool per_table =
      indispensable && mode == IndispensabilityMode::kPerTable;
  const bool joint =
      indispensable && mode == IndispensabilityMode::kJointPerQuery;

  // The batch's distinct profiles, in order of first appearance.
  std::unordered_map<const AccessProfile*, uint32_t> profile_ids;
  std::vector<const AccessProfile*> profiles;
  for (const AccessProfile* profile : batch) {
    profile_of_.push_back(Intern(&profile_ids, &profiles, profile));
  }

  // The scheme attributes, and those each distinct profile covers.
  std::map<ColumnRef, uint32_t> attr_ids;
  std::vector<ColumnRef> attrs;
  for (const ResolvedScheme& resolved : schemes) {
    Scheme scheme;
    scheme.k = resolved.k;
    for (size_t c : resolved.columns) {
      scheme.attrs.push_back(Intern(&attr_ids, &attrs, view.columns[c]));
    }
    schemes_.push_back(std::move(scheme));
  }
  for (const AccessProfile* profile : profiles) {
    for (size_t a = 0; a < attrs.size(); ++a) {
      if (indispensable ? profile->Accesses(attrs[a])
                        : profile->Outputs(attrs[a])) {
        covers_.ids.push_back(static_cast<uint32_t>(a));
      }
    }
    covers_.Close();
  }
  coverers_.assign(attrs.size(), 0);
  attr_lost_.assign(attrs.size(), 0);
  for (uint32_t p : profile_of_) {
    for (uint32_t a : covers_[p]) ++coverers_[a];
  }

  // One slot per valid fact of each scheme the batch covers; no part of
  // the batch covers the others, so they never fire and list no facts.
  // Component families: per table in per-table mode, per table list in
  // joint mode, per attribute for value containment.
  std::map<std::string, uint32_t> table_ids;
  std::vector<std::string> tables;
  std::map<std::vector<std::string>, uint32_t> group_ids;
  std::vector<std::vector<std::string>> groups;
  std::vector<Family<Tid>> by_tid;
  std::vector<Family<std::vector<Tid>>> by_tuple;
  std::vector<Family<Value>> by_value(attrs.size());
  // Records that `slot` needs component `key` of `*family`.
  auto need = [&](auto* family, auto key, uint32_t slot) {
    family->needs.emplace_back(std::move(key), slot);
    ++slot_needs_[slot];
  };
  for (size_t s = 0; s < schemes.size(); ++s) {
    const ResolvedScheme& resolved = schemes[s];
    Scheme& scheme = schemes_[s];
    scheme.first_slot = static_cast<uint32_t>(slot_scheme_.size());
    if (!Covered(scheme)) continue;
    scheme.num_slots = static_cast<uint32_t>(resolved.valid_facts.size());
    std::vector<uint32_t> table_keys;
    for (const auto& table : resolved.scheme.tid_tables) {
      table_keys.push_back(Intern(&table_ids, &tables, table));
    }
    by_tid.resize(tables.size());
    uint32_t group = Intern(&group_ids, &groups, resolved.scheme.tid_tables);
    by_tuple.resize(groups.size());
    const std::vector<size_t>& tid_positions = resolved.tid_positions;
    for (size_t f : resolved.valid_facts) {
      const TargetView::Fact& fact = view.facts[f];
      const auto slot = static_cast<uint32_t>(slot_scheme_.size());
      slot_scheme_.push_back(static_cast<uint32_t>(s));
      slot_fact_.push_back(f);
      slot_needs_.push_back(0);
      if (per_table) {
        for (size_t i = 0; i < tid_positions.size(); ++i) {
          need(&by_tid[table_keys[i]], fact.tids[tid_positions[i]], slot);
        }
      } else if (joint) {
        std::vector<Tid> tuple;
        tuple.reserve(tid_positions.size());
        for (size_t p : tid_positions) tuple.push_back(fact.tids[p]);
        need(&by_tuple[group], std::move(tuple), slot);
      } else {
        for (size_t i = 0; i < resolved.columns.size(); ++i) {
          need(&by_value[scheme.attrs[i]], fact.values[resolved.columns[i]],
               slot);
        }
      }
    }
  }
  for (auto& family : by_tid) family.Seal(&component_slots_);
  for (auto& family : by_tuple) family.Seal(&component_slots_);
  for (auto& family : by_value) family.Seal(&component_slots_);

  // One pass over every distinct profile's supplies.
  std::vector<size_t> stamp(component_slots_.size(), 0);
  for (size_t p = 0; p < profiles.size(); ++p) {
    const AccessProfile& profile = *profiles[p];
    const QueryResult& result = profile.result;
    auto supply = [&](const auto& family, const auto& key) {
      const int64_t c = family.Find(key);
      if (c < 0 || stamp[c] == p + 1) return;
      stamp[c] = p + 1;
      supplies_.ids.push_back(static_cast<uint32_t>(c));
    };
    if (per_table) {
      // Walk the smaller side: the query's tids, or the needed ones.
      for (size_t t = 0; t < tables.size(); ++t) {
        const Family<Tid>& family = by_tid[t];
        const TidBitmap& tids = profile.IndispensableTids(tables[t]);
        if (tids.Cardinality() <= family.keys.size()) {
          tids.ForEach([&](Tid tid) { supply(family, tid); });
          continue;
        }
        for (size_t i = 0; i < family.keys.size(); ++i) {
          if (tids.Contains(family.keys[i])) {
            supplies_.ids.push_back(family.first + static_cast<uint32_t>(i));
          }
        }
      }
    } else if (joint) {
      for (size_t g = 0; g < groups.size(); ++g) {
        if (by_tuple[g].keys.empty()) continue;
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
        if (by_value[a].keys.empty() || !profile.Outputs(attrs[a])) continue;
        for (const auto& value : result.ColumnValues(attrs[a])) {
          supply(by_value[a], value);
        }
      }
    }
    supplies_.Close();
  }

  suppliers_.assign(component_slots_.size(), 0);
  for (uint32_t p : profile_of_) {
    for (uint32_t c : supplies_[p]) ++suppliers_[c];
  }
  slot_accessed_.assign(slot_scheme_.size(), 1);
  slot_stamp_.assign(slot_scheme_.size(), 0);
  for (size_t c = 0; c < suppliers_.size(); ++c) {
    if (suppliers_[c] > 0) continue;
    for (uint32_t slot : component_slots_[c]) slot_accessed_[slot] = 0;
  }
  for (size_t slot = 0; slot < slot_scheme_.size(); ++slot) {
    if (slot_accessed_[slot]) ++schemes_[slot_scheme_[slot]].accessed;
  }
}

bool BatchSupports::Covered(const Scheme& scheme) const {
  return AllCovered(scheme.attrs,
                    [&](uint32_t a) { return coverers_[a] > 0; });
}

SuspicionResult BatchSupports::Verdict() const {
  SuspicionResult result;
  for (size_t s = 0; s < schemes_.size(); ++s) {
    const Scheme& scheme = schemes_[s];
    SchemeAccess access;
    access.scheme_index = s;
    access.attrs_covered = Covered(scheme);
    const uint32_t end = scheme.first_slot + scheme.num_slots;
    for (uint32_t slot = scheme.first_slot; slot < end; ++slot) {
      if (access.attrs_covered && slot_accessed_[slot]) {
        access.accessed_facts.push_back(slot_fact_[slot]);
      }
    }
    access.suspicious =
        access.attrs_covered && scheme.k > 0 && scheme.accessed >= scheme.k;
    if (access.suspicious) result.suspicious = true;
    result.per_scheme.push_back(std::move(access));
  }
  return result;
}

std::vector<char> BatchSupports::SuspiciousAlone() const {
  // Per slot: how many of its components the profile supplies (valid
  // while the slot's stamp is the profile's); per scheme: the facts the
  // profile accesses alone. A slot that needs no component is accessed
  // by every query.
  std::vector<uint32_t> hits(slot_scheme_.size(), 0);
  std::vector<size_t> stamp(slot_scheme_.size(), 0);
  std::vector<size_t> free(schemes_.size(), 0);
  std::vector<uint32_t> free_schemes;
  for (size_t slot = 0; slot < slot_scheme_.size(); ++slot) {
    if (slot_needs_[slot] > 0) continue;
    if (free[slot_scheme_[slot]]++ == 0) {
      free_schemes.push_back(slot_scheme_[slot]);
    }
  }
  std::vector<size_t> accessed(schemes_.size(), 0);
  std::vector<uint32_t> touched;
  std::vector<char> covered(coverers_.size(), 0);
  std::vector<char> alone(supplies_.size(), 0);
  for (size_t p = 0; p < supplies_.size(); ++p) {
    for (uint32_t s : free_schemes) accessed[s] = free[s];
    touched = free_schemes;
    for (uint32_t c : supplies_[p]) {
      for (uint32_t slot : component_slots_[c]) {
        if (stamp[slot] != p + 1) {
          stamp[slot] = p + 1;
          hits[slot] = 0;
        }
        if (++hits[slot] != slot_needs_[slot]) continue;
        const uint32_t s = slot_scheme_[slot];
        if (accessed[s]++ == 0) touched.push_back(s);
      }
    }
    for (uint32_t a : covers_[p]) covered[a] = 1;
    for (uint32_t s : touched) {
      const Scheme& scheme = schemes_[s];
      if (scheme.k > 0 && accessed[s] >= scheme.k &&
          AllCovered(scheme.attrs, [&](uint32_t a) { return covered[a]; })) {
        alone[p] = 1;
      }
      accessed[s] = 0;
    }
    for (uint32_t a : covers_[p]) covered[a] = 0;
  }
  std::vector<char> out;
  out.reserve(profile_of_.size());
  for (uint32_t p : profile_of_) out.push_back(alone[p]);
  return out;
}

bool BatchSupports::SuspiciousWithout(size_t q) {
  const uint32_t p = profile_of_[q];
  for (uint32_t a : covers_[p]) {
    if (coverers_[a] == 1) attr_lost_[a] = 1;
  }
  for (uint32_t c : supplies_[p]) {
    if (suppliers_[c] != 1) continue;
    for (uint32_t slot : component_slots_[c]) {
      if (!slot_accessed_[slot] || slot_stamp_[slot] == q + 1) continue;
      slot_stamp_[slot] = q + 1;
      ++schemes_[slot_scheme_[slot]].lost;
    }
  }
  bool suspicious = false;
  for (Scheme& scheme : schemes_) {
    const bool covered =
        AllCovered(scheme.attrs, [&](uint32_t a) { return !attr_lost_[a]; }) &&
        Covered(scheme);
    if (covered && scheme.k > 0 && scheme.accessed - scheme.lost >= scheme.k) {
      suspicious = true;
    }
    scheme.lost = 0;
  }
  for (uint32_t a : covers_[p]) attr_lost_[a] = 0;
  return suspicious;
}

void BatchSupports::Drop(size_t q) {
  const uint32_t p = profile_of_[q];
  for (uint32_t a : covers_[p]) --coverers_[a];
  for (uint32_t c : supplies_[p]) {
    if (--suppliers_[c] > 0) continue;
    for (uint32_t slot : component_slots_[c]) {
      if (!slot_accessed_[slot]) continue;
      slot_accessed_[slot] = 0;
      --schemes_[slot_scheme_[slot]].accessed;
    }
  }
}

std::vector<int64_t> BatchSupports::Minimize(const std::vector<int64_t>& ids) {
  std::vector<int64_t> out;
  for (size_t q = 0; q < profile_of_.size(); ++q) {
    if (SuspiciousWithout(q)) {
      Drop(q);
    } else {
      out.push_back(ids[q]);
    }
  }
  return out;
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
  return BatchSupports(view, resolved, indispensable, batch, options.mode)
      .Verdict();
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
