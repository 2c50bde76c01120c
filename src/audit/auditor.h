#ifndef AUDITDB_AUDIT_AUDITOR_H_
#define AUDITDB_AUDIT_AUDITOR_H_

#include <string>
#include <vector>

#include "src/audit/audit_index.h"
#include "src/audit/audit_parser.h"
#include "src/audit/candidate.h"
#include "src/audit/suspicion.h"
#include "src/backlog/backlog.h"
#include "src/querylog/query_log.h"

namespace auditdb {

namespace service {
class AuditScheduler;
}  // namespace service

namespace audit {

struct AuditOptions {
  ExecOptions exec;
  CandidateOptions candidate;
  SuspicionOptions suspicion;
  /// Also audit each admitted query as a singleton batch (per-query
  /// verdicts, the Agrawal-style report). Costs one suspicion check per
  /// candidate.
  bool per_query_verdicts = true;
  /// Greedily minimize the suspicious batch to a minimal subset.
  bool minimize_batch = true;
  /// Data-independent auditing (Section 2.2 of the paper): stop after the
  /// static phase, never touching the database. The batch verdict is then
  /// the weak-syntactic-style over-approximation — suspicious iff the
  /// candidates together cover some granule scheme — and per-query
  /// verdicts use the single-query static check. Sound (no flagged-by-
  /// dynamic query is missed) but not exact; orders of magnitude cheaper.
  bool static_only = false;
  /// Optional decision cache (audit_index.h) memoizing the static
  /// per-(query, expression) candidacy checks across audits; shared with
  /// the serving stack. Non-owning — must outlive the audit. Null runs
  /// every check directly; results are byte-identical either way.
  DecisionCache* cache = nullptr;
  /// Ablation: key cached decisions on the global mutation count (the
  /// pre-MVCC scheme, where any write evicts everything) instead of the
  /// catalog epoch / per-table version fingerprints. Never changes
  /// results, only hit rates; used by bench_mixed.
  bool cache_global_state_keys = false;
};

/// One consistent cut across the three audit stores, captured at a single
/// instant: the pinned database view plus the published prefixes of the
/// query log and the backlog. An audit that runs entirely against a pin
/// sees a frozen world — concurrent writes land in versions and log/
/// backlog suffixes the audit never reads — so it needs no lock for its
/// whole duration, only for the capture.
struct AuditPin {
  DatabaseView db;
  size_t log_size = 0;
  size_t backlog_events = 0;
};

/// Outcome for one logged query.
struct QueryVerdict {
  int64_t query_id = 0;
  /// Rejected by the limiting parameters (never considered).
  bool admitted = false;
  /// Survived the data-independent (static) phase.
  bool candidate = false;
  /// Suspicious as a singleton batch (only set when per_query_verdicts).
  bool suspicious_alone = false;
  /// Parse failure (logged text is not auditable SQL).
  bool parse_failed = false;
  /// A check of this query failed: the static candidacy check (e.g. the
  /// query references a table or column unknown to the audited catalog)
  /// or the candidate's re-execution against its historical state (e.g.
  /// a type error). Distinct from "cleared": nothing was proven about
  /// this query.
  bool error = false;
};

/// Full audit outcome.
struct AuditReport {
  /// The audited expression, canonical form.
  std::string expression;

  std::vector<QueryVerdict> verdicts;
  /// Whether the admitted candidate set, as a batch, is suspicious.
  bool batch_suspicious = false;
  /// A minimal suspicious subset of query ids (empty if not suspicious or
  /// minimization disabled).
  std::vector<int64_t> minimal_batch;
  /// Paper-style evidence (accessed granule facts per fired scheme).
  std::string evidence;

  /// Pipeline statistics.
  size_t num_logged = 0;
  size_t num_admitted = 0;
  size_t num_candidates = 0;
  size_t num_executed = 0;
  size_t target_view_size = 0;
  size_t num_schemes = 0;

  /// Wall-clock time per pipeline phase, in seconds (filter+static,
  /// target-view computation, candidate re-execution, suspicion checks).
  double static_seconds = 0;
  double view_seconds = 0;
  double exec_seconds = 0;
  double check_seconds = 0;

  /// Ids of queries suspicious on their own.
  std::vector<int64_t> SuspiciousQueryIds() const;

  /// One-line pipeline summary (counts + verdict).
  std::string Summary() const;

  /// Multi-line investigator-facing report: the audited expression, the
  /// phase funnel (logged → admitted → candidates → executed), per-query
  /// verdicts with the original log lines, the minimal suspicious batch,
  /// and the granule evidence. `log` must be the log that was audited.
  std::string DetailedReport(const QueryLog& log) const;

  /// Deterministic serialization of every audit outcome field — verdicts,
  /// counts, batch verdict, minimal batch, evidence — excluding only the
  /// wall-clock phase timings. The concurrent scheduler's report must
  /// match the serial auditor's byte for byte under this rendering.
  std::string CanonicalString() const;
};

/// The audit pipeline (Section 3 end to end):
///   1. limiting parameters (Pos/Neg clauses, DURING) filter the log;
///   2. the data-independent phase discards non-candidates statically;
///   3. the target data view U is computed over the DATA-INTERVAL versions;
///   4. each candidate is re-executed (with lineage) against the backlog
///      state at its own original execution time;
///   5. granule access decides batch and per-query suspicion.
class Auditor {
 public:
  /// All three stores must outlive the auditor.
  Auditor(const Database* db, const Backlog* backlog, const QueryLog* log)
      : db_(db), backlog_(backlog), log_(log) {}

  /// Captures a consistent pin of the three stores (cheap: shares
  /// storage, copies nothing). Safe to call concurrently with writers.
  AuditPin Pin() const;

  /// Parses (anchored at `now`) and audits.
  Result<AuditReport> Audit(const std::string& audit_text, Timestamp now,
                            const AuditOptions& options = AuditOptions{})
      const;

  /// Audits a parsed (not yet qualified) expression against a pin
  /// captured now.
  Result<AuditReport> Audit(const AuditExpression& expr,
                            const AuditOptions& options = AuditOptions{})
      const;

  /// Audits against an existing pin. The whole pipeline — qualification,
  /// static screen, target view, historical re-execution, suspicion —
  /// reads only the pinned state, so it runs correctly concurrent with
  /// writers and two audits over equal pins produce byte-identical
  /// reports.
  Result<AuditReport> AuditPinned(const AuditExpression& expr,
                                  const AuditOptions& options,
                                  const AuditPin& pin) const;

  /// Parallel entry point: shards the pipeline over `scheduler`'s worker
  /// pool and merges deterministically — the report's CanonicalString()
  /// is identical to the serial Audit()'s at any thread count.
  /// Implemented in src/service/scheduler.cc.
  Result<AuditReport> AuditParallel(const AuditExpression& expr,
                                    service::AuditScheduler* scheduler,
                                    const AuditOptions& options =
                                        AuditOptions{}) const;

 private:
  const Database* db_;
  const Backlog* backlog_;
  const QueryLog* log_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_AUDITOR_H_
