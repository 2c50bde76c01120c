#include "src/audit/granule.h"

#include <algorithm>
#include <unordered_set>

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

Result<std::vector<ResolvedScheme>> ResolveSchemes(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold) {
  std::vector<ResolvedScheme> out;
  out.reserve(schemes.size());
  for (const GranuleScheme& scheme : schemes) {
    ResolvedScheme resolved;
    resolved.scheme = scheme;
    for (const auto& attr : scheme.attrs) {
      auto idx = view.ColumnIndex(attr);
      if (!idx.ok()) {
        return Status::Internal("scheme attribute " + attr.ToString() +
                                " unresolvable in target view: " +
                                idx.status().message());
      }
      resolved.columns.push_back(*idx);
    }
    std::sort(resolved.columns.begin(), resolved.columns.end());
    for (const auto& table : scheme.tid_tables) {
      auto idx = view.TableIndex(table);
      if (!idx.ok()) {
        return Status::Internal("scheme tid table " + table +
                                " unresolvable in target view: " +
                                idx.status().message());
      }
      resolved.tid_positions.push_back(*idx);
    }
    for (size_t f = 0; f < view.facts.size(); ++f) {
      const std::vector<Value>& values = view.facts[f].values;
      if (std::none_of(resolved.columns.begin(), resolved.columns.end(),
                       [&](size_t c) { return values[c].is_null(); })) {
        resolved.valid_facts.push_back(f);
      }
    }
    resolved.k = threshold.all ? resolved.valid_facts.size()
                               : static_cast<size_t>(threshold.n);
    out.push_back(std::move(resolved));
  }
  return out;
}

Result<GranuleEnumerator> GranuleEnumerator::Make(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold) {
  auto resolved = ResolveSchemes(view, schemes, threshold);
  if (!resolved.ok()) return resolved.status();
  return GranuleEnumerator(view, std::move(*resolved));
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
  for (const ResolvedScheme& scheme : schemes_) {
    // THRESHOLD ALL over an empty view: no granule.
    if (scheme.k == 0) continue;
    total += Binomial(scheme.valid_facts.size(), scheme.k);
  }
  return total;
}

uint64_t GranuleEnumerator::ForEach(
    const std::function<bool(const Granule&)>& visit) const {
  uint64_t visited = 0;
  for (size_t s = 0; s < schemes_.size(); ++s) {
    const auto& facts = schemes_[s].valid_facts;
    const size_t k = schemes_[s].k;
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
  const ResolvedScheme& scheme = schemes_[granule.scheme_index];
  std::string out;
  bool first_fact = true;
  for (size_t f : granule.fact_indices) {
    if (!first_fact) out += "; ";
    first_fact = false;
    const TargetView::Fact& fact = view_.facts[f];
    out += "(";
    bool first = true;
    for (size_t p : scheme.tid_positions) {
      if (!first) out += ",";
      out += TidToString(fact.tids[p]);
      first = false;
    }
    for (size_t c : scheme.columns) {
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
