#ifndef AUDITDB_AUDIT_GRANULE_H_
#define AUDITDB_AUDIT_GRANULE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/audit/audit_expression.h"
#include "src/audit/target_view.h"

namespace auditdb {
namespace audit {

/// One granule scheme of the suspicion model: a minimal attribute set
/// whose access satisfies the AUDIT clause, plus — when INDISPENSABLE is
/// true — the tuple-id attributes of the tables owning those attributes
/// (the paper's "partial scheme" rule for deciding which tids join the
/// granule scheme).
struct GranuleScheme {
  std::set<ColumnRef> attrs;
  /// Tables contributing attrs, in FROM order; empty when INDISPENSABLE
  /// is false (value-containment granules carry no tids).
  std::vector<std::string> tid_tables;

  std::string ToString() const;
};

/// Derives the granule schemes of a qualified audit expression.
std::vector<GranuleScheme> BuildSchemes(const AuditExpression& expr);

/// One granule: `threshold` facts of U viewed through one scheme.
struct Granule {
  size_t scheme_index = 0;
  /// Indices into TargetView::facts; size = effective threshold k.
  std::vector<size_t> fact_indices;
};

/// Lazy enumeration of the granule set G = schemes × C(n, k) fact subsets.
/// Facts with a NULL value in a scheme attribute contribute no granule for
/// that scheme (a NULL cell discloses nothing; this also matches the
/// paper's Fig. 4 listing, which has no granule for the absent age value).
class GranuleEnumerator {
 public:
  GranuleEnumerator(const TargetView& view,
                    std::vector<GranuleScheme> schemes, Threshold threshold);

  const std::vector<GranuleScheme>& schemes() const { return schemes_; }

  /// Facts usable for scheme `s` (non-NULL in every scheme attribute).
  const std::vector<size_t>& ValidFacts(size_t scheme_index) const {
    return valid_facts_[scheme_index];
  }

  /// Effective k for scheme `s` (threshold, or |valid facts| for ALL).
  size_t EffectiveK(size_t scheme_index) const;

  /// Exact |G| as a double (binomial counts overflow 64 bits quickly —
  /// the paper notes 2^k·2^n growth; callers treat large counts
  /// qualitatively).
  double CountGranules() const;

  /// Visits granules until the visitor returns false or the set is
  /// exhausted; returns the number visited. Enumeration is lazy: no
  /// granule is materialized beyond the one being visited.
  uint64_t ForEach(const std::function<bool(const Granule&)>& visit) const;

  /// Paper-style rendering: "(t12,t22,Reku,diabetic,A2)" — the scheme's
  /// tids (in tid_tables order) then attribute values (in target-view
  /// column order), per fact; multi-fact granules list facts separated
  /// by "; ".
  std::string Render(const Granule& granule) const;

  /// Up to `limit` distinct rendered granules, in enumeration order.
  std::vector<std::string> RenderDistinct(size_t limit) const;

 private:
  const TargetView& view_;
  std::vector<GranuleScheme> schemes_;
  Threshold threshold_;
  std::vector<std::vector<size_t>> valid_facts_;  // per scheme
  std::vector<std::vector<size_t>> attr_columns_;  // per scheme: view col idx
  std::vector<std::vector<size_t>> tid_positions_;  // per scheme: view tbl idx
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_GRANULE_H_
