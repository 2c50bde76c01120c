#include "src/audit/granule.h"

#include <algorithm>
#include <unordered_set>

#include "src/types/column_vector.h"

namespace auditdb {
namespace audit {

std::string GranuleScheme::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& table : tid_tables) {
    if (!first) out += ",";
    out += "tid_" + table;
    first = false;
  }
  for (const auto& attr : attrs) {
    if (!first) out += ",";
    out += attr.ToString();
    first = false;
  }
  out += "}";
  return out;
}

std::vector<GranuleScheme> BuildSchemes(const AuditExpression& expr) {
  std::vector<GranuleScheme> schemes;
  for (auto& attr_set : expr.attrs.EnumerateSchemes()) {
    GranuleScheme scheme;
    scheme.attrs = std::move(attr_set);
    if (expr.indispensable) {
      // The partial scheme (the AUDIT attributes) decides which tids are
      // included: one per table owning a scheme attribute, in FROM order.
      for (const auto& table : expr.from) {
        bool owns = false;
        for (const auto& attr : scheme.attrs) {
          if (attr.table == table) {
            owns = true;
            break;
          }
        }
        if (owns) scheme.tid_tables.push_back(table);
      }
    }
    schemes.push_back(std::move(scheme));
  }
  return schemes;
}

GranuleEnumerator::GranuleEnumerator(const TargetView& view,
                                     std::vector<GranuleScheme> schemes,
                                     Threshold threshold)
    : view_(view), schemes_(std::move(schemes)), threshold_(threshold) {
  valid_facts_.resize(schemes_.size());
  attr_columns_.resize(schemes_.size());
  tid_positions_.resize(schemes_.size());
  // One columnar projection of the view, shared by every scheme's
  // validity screen.
  Batch batch = view_.ToBatch();
  for (size_t s = 0; s < schemes_.size(); ++s) {
    // Schemes are built from the same expression as the view; a missing
    // column or table would be an internal inconsistency. Skip the whole
    // scheme then (no valid facts → no granules) rather than dropping
    // the one bad element and rendering misaligned tids/values.
    bool resolved = true;
    for (const auto& attr : schemes_[s].attrs) {
      auto idx = view_.ColumnIndex(attr);
      if (!idx.ok()) {
        resolved = false;
        break;
      }
      attr_columns_[s].push_back(*idx);
    }
    for (const auto& table : schemes_[s].tid_tables) {
      if (!resolved) break;
      auto idx = view_.TableIndex(table);
      if (!idx.ok()) {
        resolved = false;
        break;
      }
      tid_positions_[s].push_back(*idx);
    }
    if (!resolved) {
      attr_columns_[s].clear();
      tid_positions_[s].clear();
      valid_facts_[s].clear();
      continue;
    }
    // Render attributes in audit-clause order (the view's column order),
    // the way the paper lists granules, not in set order.
    std::sort(attr_columns_[s].begin(), attr_columns_[s].end());
    // A fact with a NULL scheme attribute discloses nothing under this
    // scheme; the batch screen returns the remaining facts in order.
    valid_facts_[s] = NonNullRows(batch, attr_columns_[s]);
  }
}

size_t GranuleEnumerator::EffectiveK(size_t scheme_index) const {
  if (threshold_.all) return valid_facts_[scheme_index].size();
  return static_cast<size_t>(threshold_.n);
}

namespace {

double Binomial(size_t n, size_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  double out = 1;
  for (size_t i = 0; i < k; ++i) {
    out = out * static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return out;
}

}  // namespace

double GranuleEnumerator::CountGranules() const {
  double total = 0;
  for (size_t s = 0; s < schemes_.size(); ++s) {
    size_t n = valid_facts_[s].size();
    size_t k = EffectiveK(s);
    if (k == 0) continue;  // THRESHOLD ALL over an empty view: no granule
    total += Binomial(n, k);
  }
  return total;
}

uint64_t GranuleEnumerator::ForEach(
    const std::function<bool(const Granule&)>& visit) const {
  uint64_t visited = 0;
  for (size_t s = 0; s < schemes_.size(); ++s) {
    const auto& facts = valid_facts_[s];
    size_t k = EffectiveK(s);
    if (k == 0 || k > facts.size()) continue;
    // Enumerate k-combinations of `facts` in lexicographic order.
    std::vector<size_t> choice(k);
    for (size_t i = 0; i < k; ++i) choice[i] = i;
    Granule granule;
    granule.scheme_index = s;
    while (true) {
      granule.fact_indices.clear();
      for (size_t i : choice) granule.fact_indices.push_back(facts[i]);
      ++visited;
      if (!visit(granule)) return visited;
      // Advance to the next k-combination: bump the rightmost index that
      // has room, then reset everything to its right.
      const size_t n = facts.size();
      ptrdiff_t i = static_cast<ptrdiff_t>(k) - 1;
      while (i >= 0 &&
             choice[static_cast<size_t>(i)] ==
                 static_cast<size_t>(i) + n - k) {
        --i;
      }
      if (i < 0) break;
      ++choice[static_cast<size_t>(i)];
      for (size_t j = static_cast<size_t>(i) + 1; j < k; ++j) {
        choice[j] = choice[j - 1] + 1;
      }
    }
  }
  return visited;
}

std::string GranuleEnumerator::Render(const Granule& granule) const {
  const size_t s = granule.scheme_index;
  std::string out;
  bool first_fact = true;
  for (size_t f : granule.fact_indices) {
    if (!first_fact) out += "; ";
    first_fact = false;
    const TargetView::Fact& fact = view_.facts[f];
    out += "(";
    bool first = true;
    for (size_t p : tid_positions_[s]) {
      if (!first) out += ",";
      out += TidToString(fact.tids[p]);
      first = false;
    }
    for (size_t c : attr_columns_[s]) {
      if (!first) out += ",";
      out += fact.values[c].ToDisplayString();
      first = false;
    }
    out += ")";
  }
  return out;
}

std::vector<std::string> GranuleEnumerator::RenderDistinct(
    size_t limit) const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  ForEach([&](const Granule& granule) {
    std::string text = Render(granule);
    if (seen.insert(text).second) out.push_back(std::move(text));
    return out.size() < limit;
  });
  return out;
}

}  // namespace audit
}  // namespace auditdb
