#ifndef AUDITDB_AUDIT_SUSPICION_H_
#define AUDITDB_AUDIT_SUSPICION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/audit/granule.h"
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

/// The granule-access kernel: the one offline implementation of "the
/// batch accesses fact u w.r.t. scheme S".
///
/// A fact u of U is accessed w.r.t. scheme S when
///   - INDISPENSABLE = true: the batch covers every attribute of S
///     (some query references it), and every tid of u for S's tables is
///     indispensable to the batch (mode kPerTable) or some single query
///     witnesses the whole tid tuple (mode kJointPerQuery);
///   - INDISPENSABLE = false: for every attribute of S, some query
///     *outputs* that attribute with u's value among its results
///     (value containment — predicates alone do not count).
/// The scheme fires when at least `k` facts (ALL: every valid fact, and
/// at least one) are accessed; the batch is suspicious when any scheme
/// fires.
///
/// Built once per batch as support counts. Each valid fact of each scheme
/// needs *components* from the batch: its tid in each scheme table
/// (kPerTable), its whole tid tuple over the scheme tables
/// (kJointPerQuery), or its value in each scheme attribute (INDISPENSABLE
/// false). A fact is accessed while every one of its components has a
/// kept supplier; a scheme attribute is covered while some kept query
/// accesses (outputs, for value containment) it. A scheme the whole batch
/// does not cover never fires, so its facts get no slots. The batch
/// verdict, each query's verdict alone, and the greedy minimal batch are
/// all read off these counts.
///
/// The kernel copies what it reads: neither the profiles nor the vector
/// naming them need outlive the constructor. INDISPENSABLE = false reads
/// the profiles' rows: they must have been computed with
/// ExecOutput::kLineageAndValues. In kPerTable mode the kernel reads each
/// profile's table_tids only at tids of U (a fact's tids are U's), so
/// restricted profiles (ComputeRestrictedAccessProfile) decide it
/// exactly. Profiles may repeat (queries that share one execution share
/// it by pointer): each entry still counts as its own query, but a
/// repeated profile's supports are collected once.
class BatchSupports {
 public:
  BatchSupports(const TargetView& view,
                const std::vector<ResolvedScheme>& schemes,
                bool indispensable,
                const std::vector<const AccessProfile*>& batch,
                IndispensabilityMode mode);

  /// The kept batch's verdict (the whole batch until Minimize), one
  /// SchemeAccess per scheme. Accessed facts are listed, in valid-fact
  /// order, only for schemes whose attributes the batch covers.
  SuspicionResult Verdict() const;

  /// Per batch entry: whether that query alone is suspicious. A fact is
  /// accessed alone when the query supplies every one of its components,
  /// so each distinct profile costs O(|its supplies|).
  std::vector<char> SuspiciousAlone() const;

  /// Greedy minimization: in batch order, drops each entry if the kept
  /// batch stays suspicious without it, and returns the `ids` of the
  /// entries kept. The kept list is the one successive batch checks on
  /// the shrinking batch would give, at O(|supports of q|) per drop test.
  std::vector<int64_t> Minimize(const std::vector<int64_t>& ids);

 private:
  struct Scheme {
    size_t k = 0;
    /// Attribute ids of the scheme's columns.
    std::vector<uint32_t> attrs;
    /// The scheme's slots: one per valid fact, in valid-fact order.
    uint32_t first_slot = 0;
    uint32_t num_slots = 0;
    /// Valid facts the kept batch accesses.
    size_t accessed = 0;
    /// Scratch for SuspiciousWithout.
    size_t lost = 0;
  };

  /// Lists of ids stored back to back: list i is ids[begin[i],
  /// begin[i + 1]). Append a list's ids, then Close it.
  struct IdLists {
    std::vector<uint32_t> begin{0};
    std::vector<uint32_t> ids;

    void Close() { begin.push_back(static_cast<uint32_t>(ids.size())); }
    size_t size() const { return begin.size() - 1; }
    std::span<const uint32_t> operator[](size_t i) const {
      return {ids.data() + begin[i], ids.data() + begin[i + 1]};
    }
  };

  /// Whether the kept batch covers every attribute of `scheme`.
  bool Covered(const Scheme& scheme) const;

  /// Whether the kept batch without entry `q` still fires some scheme.
  /// O(|supports of q|) plus one pass over the schemes.
  bool SuspiciousWithout(size_t q);

  /// Removes entry `q` from the kept batch.
  void Drop(size_t q);

  std::vector<Scheme> schemes_;
  /// Per slot: its scheme, its fact, how many components it needs, and
  /// whether the kept batch supplies them all.
  std::vector<uint32_t> slot_scheme_;
  std::vector<size_t> slot_fact_;
  std::vector<uint32_t> slot_needs_;
  std::vector<char> slot_accessed_;
  std::vector<size_t> slot_stamp_;
  /// Per component: kept suppliers, and the slots that need it.
  std::vector<uint32_t> suppliers_;
  IdLists component_slots_;
  /// Per scheme attribute: kept entries covering it.
  std::vector<uint32_t> coverers_;
  std::vector<char> attr_lost_;
  /// Per distinct profile: the distinct components it supplies and the
  /// attributes it covers.
  IdLists supplies_;
  IdLists covers_;
  /// Per batch entry: its distinct profile.
  std::vector<uint32_t> profile_of_;
};

/// Decides whether the batch of queries (given by their access profiles,
/// each computed on the database state that query actually ran against)
/// accesses any granule of the audit expression's granule set:
/// BatchSupports(...).Verdict().
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
