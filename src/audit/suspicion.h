#ifndef AUDITDB_AUDIT_SUSPICION_H_
#define AUDITDB_AUDIT_SUSPICION_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/audit/granule.h"
#include "src/common/hashing.h"
#include "src/common/tid_bitmap.h"
#include "src/engine/lineage.h"

namespace auditdb {
namespace audit {

/// How tuple-id indispensability is checked when INDISPENSABLE = true.
enum class IndispensabilityMode {
  /// The paper's granule-access wording: every tid of the granule must be
  /// indispensable to the *batch* — i.e. to at least one query in it,
  /// checked per table.
  kPerTable,
  /// Stricter: a single query must witness the granule's tid tuple
  /// jointly (the tuple appears in that query's lineage projected onto
  /// the granule's tables). Matches Agrawal-style shared-indispensable-
  /// tuple checks exactly; used for baseline cross-validation.
  kJointPerQuery,
};

struct SuspicionOptions {
  IndispensabilityMode mode = IndispensabilityMode::kPerTable;
};

/// Access outcome for one granule scheme.
struct SchemeAccess {
  size_t scheme_index = 0;
  /// Whether the batch covers every attribute of the scheme.
  bool attrs_covered = false;
  /// Facts of U accessed by the batch w.r.t. this scheme.
  std::vector<size_t> accessed_facts;
  /// Whether enough facts were accessed (>= k; for ALL, every valid fact).
  bool suspicious = false;
};

/// Result of checking one batch of queries against one audit expression's
/// granule model.
struct SuspicionResult {
  bool suspicious = false;
  std::vector<SchemeAccess> per_scheme;

  /// Human-readable evidence: for each suspicious scheme, the scheme and
  /// the accessed facts rendered paper-style.
  std::string Describe(const TargetView& view,
                       const std::vector<GranuleScheme>& schemes) const;
};

/// Precomputed batch-level access state: per-table indispensable-tid
/// unions (compressed bitmaps), joint lineage projections, and
/// output-value sets, each cached on first use. Holds the profile pointer
/// vector by value — the profiles themselves must outlive the index, but
/// the vector argument may be a temporary.
class BatchIndex {
 public:
  explicit BatchIndex(std::vector<const AccessProfile*> batch)
      : batch_(std::move(batch)) {}

  /// Whether any query in the batch references `col`.
  bool Accesses(const ColumnRef& col) const;

  /// Union of per-query indispensable tids for `table`: a single query's
  /// own bitmap, else a cached word-wide Or over the profiles' bitmaps.
  const TidBitmap& IndispensableTidBitmap(const std::string& table);

  /// Whether some single query's lineage contains the tid tuple `tids`
  /// over `tables` (joint witness). Single-table tuples probe the
  /// profile's per-table bitmap; wider tuples probe the query's projected
  /// lineage (cached), since a tid tuple has no bitmap form. A query whose
  /// FROM clause lacks one of the tables has no joint witness.
  bool JointlyWitnessed(const std::vector<std::string>& tables,
                        const std::vector<Tid>& tids);

  /// Whether some query outputs `col` with `value` among its results.
  bool OutputsValue(const ColumnRef& col, const Value& value);

  bool OutputsColumn(const ColumnRef& col) const;

 private:
  std::vector<const AccessProfile*> batch_;
  std::unordered_map<std::string, TidBitmap> tid_bitmap_union_;
  std::unordered_map<
      std::pair<size_t, std::vector<std::string>>,
      std::unordered_set<std::vector<Tid>, VectorHash<Tid>>,
      PairHash<size_t, std::vector<std::string>, std::hash<size_t>,
               VectorHash<std::string>>>
      joint_;
  std::unordered_map<std::pair<size_t, ColumnRef>, std::unordered_set<Value>,
                     PairHash<size_t, ColumnRef, std::hash<size_t>,
                              ColumnRefHash>>
      values_;
};

/// Decides whether the batch of queries (given by their access profiles,
/// each computed on the database state that query actually ran against)
/// accesses any granule of the audit expression's granule set.
///
/// A fact u of U is accessed w.r.t. scheme S when
///   - INDISPENSABLE = true: the batch covers every attribute of S
///     (some query references it), and every tid of u for S's tables is
///     indispensable to the batch (mode kPerTable) or some single query
///     witnesses the whole tid tuple (mode kJointPerQuery);
///   - INDISPENSABLE = false: for every attribute of S, some query
///     *outputs* that attribute with u's value among its results
///     (value containment — predicates alone do not count).
/// The scheme fires when at least `threshold` facts (ALL: every valid
/// fact, and at least one) are accessed; the batch is suspicious when any
/// scheme fires.
///
/// INDISPENSABLE = false reads the profiles' rows: they must have been
/// computed with ExecOutput::kLineageAndValues.
///
/// In IndispensabilityMode::kPerTable, the check reads each profile's
/// table_tids only at tids of U (a fact's tids are U's), so restricted
/// profiles (ComputeRestrictedAccessProfile) decide it exactly.
Result<SuspicionResult> CheckBatchSuspicion(
    const TargetView& view, const std::vector<ResolvedScheme>& schemes,
    bool indispensable, const std::vector<const AccessProfile*>& batch,
    const SuspicionOptions& options = SuspicionOptions{});

/// CheckBatchSuspicion after ResolveSchemes(view, schemes, threshold).
Result<SuspicionResult> CheckBatchSuspicion(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold, bool indispensable,
    const std::vector<const AccessProfile*>& batch,
    const SuspicionOptions& options = SuspicionOptions{});

/// --- Canonical suspicion notions expressed in the unified model ---
/// Each takes a base audit expression (target data + limiting clauses)
/// and returns a copy whose AUDIT/THRESHOLD/INDISPENSABLE clauses encode
/// the notion, demonstrating Section 3.2's unification claims.

/// Perfect privacy (Miklau–Suciu): any single cell of any table in scope
/// discloses. AUDIT [*], THRESHOLD 1, INDISPENSABLE true.
AuditExpression MakePerfectPrivacy(const AuditExpression& base);

/// Weak syntactic suspicion (Motwani et al.): access to any one column of
/// the audit scope. AUDIT [audit attrs ∪ WHERE attrs], THRESHOLD 1,
/// INDISPENSABLE true. `base` must be qualified (WHERE columns resolved).
AuditExpression MakeWeakSyntactic(const AuditExpression& base);

/// Indispensable-tuple / strong semantic suspicion (Agrawal et al.,
/// Motwani et al.): all audited columns plus a shared indispensable
/// tuple. AUDIT (all audit attrs), THRESHOLD 1, INDISPENSABLE true.
AuditExpression MakeSemantic(const AuditExpression& base);

/// "More than N individuals" notions: semantic scheme with THRESHOLD N.
AuditExpression MakeThresholdNotion(const AuditExpression& base,
                                    Threshold threshold);

/// The Section 3.2 identifier/sensitive pattern: every identifier
/// attribute is mandatory and at least one of the (mutually derivable)
/// sensitive attributes must be accessed — AUDIT (ids...),[sensitive...].
AuditExpression MakeMandatoryOptional(const AuditExpression& base,
                                      std::vector<ColumnRef> identifiers,
                                      std::vector<ColumnRef> sensitive);

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_SUSPICION_H_
