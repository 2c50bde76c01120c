#ifndef AUDITDB_AUDIT_GRANULE_H_
#define AUDITDB_AUDIT_GRANULE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
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

/// A granule scheme resolved against one target view: where its
/// attributes and tid tables sit in U, which facts it can see, and its
/// effective threshold. Every consumer of the suspicion model (granule
/// enumeration, batch checks, minimization, online screening) reads
/// schemes in this form, built by ResolveSchemes.
struct ResolvedScheme {
  GranuleScheme scheme;
  /// Indices into TargetView::columns of the scheme attributes, ascending:
  /// the view's column order, which is the order the paper renders
  /// granules in. The attribute of entry c is view.columns[c].
  std::vector<size_t> columns;
  /// Indices into TargetView::tables, aligned with scheme.tid_tables.
  std::vector<size_t> tid_positions;
  /// Facts non-NULL in every scheme attribute, ascending. A NULL cell
  /// discloses nothing, so a fact with one contributes no granule to
  /// this scheme (this also matches the paper's Fig. 4 listing, which
  /// has no granule for the absent age value).
  std::vector<size_t> valid_facts;
  /// Effective threshold: the THRESHOLD n, or |valid_facts| for ALL.
  size_t k = 0;
};

/// Resolves every scheme against `view`. A scheme attribute or tid table
/// absent from the view is an Internal error: the schemes and the view
/// must come from one expression, and a scheme that does not resolve was
/// never checked, so no caller may read it as "not accessed".
Result<std::vector<ResolvedScheme>> ResolveSchemes(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold);

/// One granule: `threshold` facts of U viewed through one scheme.
struct Granule {
  size_t scheme_index = 0;
  /// Indices into TargetView::facts; size = effective threshold k.
  std::vector<size_t> fact_indices;
};

/// Lazy enumeration of the granule set G = schemes × C(n, k) subsets of
/// each scheme's valid facts. Holds `view` by reference: the view must
/// outlive the enumerator.
class GranuleEnumerator {
 public:
  /// Resolves `schemes` against `view`; fails as ResolveSchemes does.
  static Result<GranuleEnumerator> Make(const TargetView& view,
                                        const std::vector<GranuleScheme>&
                                            schemes,
                                        Threshold threshold);

  const std::vector<ResolvedScheme>& schemes() const { return schemes_; }

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
  GranuleEnumerator(const TargetView& view,
                    std::vector<ResolvedScheme> schemes)
      : view_(view), schemes_(std::move(schemes)) {}

  const TargetView& view_;
  std::vector<ResolvedScheme> schemes_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_GRANULE_H_
