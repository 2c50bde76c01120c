#ifndef AUDITDB_AUDIT_AUDITOR_H_
#define AUDITDB_AUDIT_AUDITOR_H_

#include <string>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/candidate.h"
#include "src/audit/suspicion.h"
#include "src/backlog/backlog.h"
#include "src/querylog/query_log.h"

namespace auditdb {

namespace service {
class ThreadPool;
}  // namespace service

namespace audit {

struct AuditOptions {
  /// Ignored (see ExecOptions).
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
  /// wall-clock phase timings. A report computed on a worker pool matches
  /// the caller-thread report byte for byte under this rendering.
  std::string CanonicalString() const;

  /// Number of verdicts flagged `error`. When nonzero the batch verdict
  /// is incomplete: those queries were never checked, so nothing was
  /// proven about them.
  size_t NumErrored() const;
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
  ///
  /// Each stage is a batch of independent tasks over contiguous shards
  /// (log ranges, database versions, candidate ranges) whose results
  /// merge in log order, run by service::RunBatch: on the caller thread
  /// when `pool` is null, fanned out over `pool` otherwise. The report's
  /// CanonicalString() is the same either way and at any pool size. A
  /// task already running on `pool` must pass null, never `pool` itself
  /// (see RunBatch).
  Result<AuditReport> AuditPinned(const AuditExpression& expr,
                                  const AuditOptions& options,
                                  const AuditPin& pin,
                                  service::ThreadPool* pool = nullptr) const;

 private:
  const Database* db_;
  const Backlog* backlog_;
  const QueryLog* log_;
};

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_AUDITOR_H_
