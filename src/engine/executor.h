#ifndef AUDITDB_ENGINE_EXECUTOR_H_
#define AUDITDB_ENGINE_EXECUTOR_H_

#include <cassert>
#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tid_bitmap.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"

namespace auditdb {

/// Empty: the executor has one plan. Kept only because the frozen
/// perfbench/driver/offline.cc still reads `AuditOptions::exec` and passes
/// it to ComputeAccessProfile and ComputeTargetViewOverVersions, which
/// ignore it; the next benchmark change deletes it.
struct ExecOptions {};

/// Row-major tid lineage of a query result: row i holds, for each FROM
/// table j, the tid of the base row of table j behind output row i. The
/// rows live in one flat vector of width() entries each, appended a whole
/// row at a time, so a ragged row cannot be represented.
class Lineage {
 public:
  /// Iterates the rows, each a span of width() tids.
  class const_iterator {
   public:
    using value_type = std::span<const Tid>;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const Tid* at, size_t width) : at_(at), width_(width) {}
    std::span<const Tid> operator*() const { return {at_, width_}; }
    const_iterator& operator++() {
      at_ += width_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    const Tid* at_ = nullptr;
    size_t width_ = 0;
  };
  using iterator = const_iterator;
  using value_type = std::span<const Tid>;

  Lineage() = default;
  explicit Lineage(size_t width) : width_(width) {}

  /// A lineage of `width` tids per row holding `rows`. InvalidArgument,
  /// naming the first row whose entry count is not `width`.
  static Result<Lineage> FromRows(size_t width,
                                  const std::vector<std::vector<Tid>>& rows);

  /// Tids per row: the number of FROM tables.
  size_t width() const { return width_; }
  /// Number of rows (= output rows of the query).
  size_t size() const { return width_ == 0 ? 0 : tids_.size() / width_; }
  bool empty() const { return tids_.empty(); }

  /// Row `row`: tid of the base row of each FROM table, in FROM order.
  std::span<const Tid> operator[](size_t row) const {
    return {tids_.data() + row * width_, width_};
  }
  const_iterator begin() const { return {tids_.data(), width_}; }
  const_iterator end() const { return {tids_.data() + tids_.size(), width_}; }

  /// Appends one row; `row` must hold exactly width() tids.
  void Append(std::span<const Tid> row) {
    assert(row.size() == width_);
    tids_.insert(tids_.end(), row.begin(), row.end());
  }

  bool operator==(const Lineage& other) const = default;

 private:
  size_t width_ = 0;
  std::vector<Tid> tids_;
};

/// What an execution returns besides lineage. The indispensability test
/// (Definition 2) needs only lineage; projected values matter only for
/// value containment (INDISPENSABLE = false), the target view and
/// callers that show the rows.
enum class ExecOutput {
  kLineage,          // QueryResult::rows stays empty
  kLineageAndValues  // rows holds the projected values too
};

/// Result of executing an SPJ query, with lineage: every output row carries
/// the tids of the base rows (one per FROM table) that produced it. The
/// lineage is exactly the witness set for indispensability (Definition 2 in
/// the paper): a base tuple t is indispensable to the query iff it appears
/// in the lineage of at least one output row.
struct QueryResult {
  /// Projected columns, fully qualified, in output order.
  std::vector<ColumnRef> columns;
  /// FROM-clause tables, in the order lineage tuples are laid out.
  std::vector<std::string> from;
  /// Output rows (bag semantics; no duplicate elimination). Empty when
  /// the query ran with ExecOutput::kLineage.
  std::vector<std::vector<Value>> rows;
  /// lineage[i][j] = tid of the row of table from[j] behind output row i;
  /// lineage.size() is the number of output rows in either output mode.
  Lineage lineage;

  /// Tids of `table` that are indispensable to the query (empty if the
  /// table is not in FROM), as a compressed bitmap iterating in ascending
  /// tid order.
  TidBitmap IndispensableTidBitmap(const std::string& table) const;

  /// Distinct lineage tuples projected onto `tables` (each must be in
  /// FROM), in the order given. Used for joint-indispensability checks.
  /// Errors: NotFound if a table is not in FROM.
  Result<std::set<std::vector<Tid>>> ProjectLineage(
      const std::vector<std::string>& tables) const;

  /// Values appearing in output column `col` (for value-containment access
  /// checks when INDISPENSABLE = false). Needs ExecOutput::kLineageAndValues.
  std::set<Value> ColumnValues(const ColumnRef& col) const;

  /// Pretty-printed result table (for examples and debugging).
  std::string ToString() const;
};

/// Executes `stmt` against `db`. Column references are resolved against the
/// view's catalog; the WHERE clause is decomposed into conjuncts that are
/// evaluated as early as possible in the join order (the FROM-clause
/// order). A join position with an equi-join conjunct whose two key
/// columns hold one non-generic columnar layout probes its table
/// version's join-key index (built once per version and shared by every
/// query on it); any other position is a nested loop. Conjuncts
/// reading only one table run as compiled predicate programs over that
/// table's columnar batch. Before enumerating, a semijoin reduction drops
/// the rows of each hash-joined table that have no partner among the
/// allowed rows of the later table probing it, when that table has fewer
/// allowed rows; it runs only when no visit can fail (no local predicate
/// errors on any row, every cross conjunct compares two same-typed
/// columns), so rows, lineage, order and errors are unchanged. Output
/// rows come in nested-loop order: FROM positions outermost first, each
/// table's rows in storage order.
///
/// A combined row gets only the columns something later reads: a cross
/// conjunct, a hash probe, or the projection when `output` asks for
/// values. With ExecOutput::kLineage no output row is materialized, only
/// its lineage.
Result<QueryResult> Execute(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    ExecOutput output = ExecOutput::kLineageAndValues);

/// Rows of one FROM table that ExecuteRestricted keeps: ascending
/// positions in the version of `table` the query reads.
struct RowRestriction {
  std::string table;
  std::span<const uint32_t> rows;
};

/// Positions in `table`, ascending, of the rows whose tid is in `tids`.
/// A tid the version does not hold is skipped. One index lookup per tid:
/// the table is never scanned.
std::vector<uint32_t> RowPositions(const TableVersion& table,
                                   const TidBitmap& tids);

/// What ExecuteRestricted returns: the query's output columns and FROM
/// tables (lineage and rows stay empty), and per FROM table the
/// indispensable tids among its restricted rows.
struct RestrictedResult {
  QueryResult result;
  /// Aligned with result.from. A table without a restriction gets an
  /// empty bitmap.
  std::vector<TidBitmap> table_tids;
};

/// For each FROM table named in `restrictions`, the tids of its restricted
/// rows that appear in `stmt`'s lineage: IndispensableTidBitmap of that
/// table, intersected with the restriction. Shares setup, plans and local
/// filters across tables. When no visit can fail (the semijoin
/// reduction's guard), each restricted table gets its own enumeration
/// with only its restricted rows allowed: in SPJ bag lineage, that yields
/// exactly the output rows whose tid there is restricted. When the guard
/// holds on the column layouts alone (PredicateProgram::CannotFail for
/// every local filter), local filters run only over the rows a visit can
/// reach; otherwise over whole tables, and if some row errors there, one
/// unrestricted enumeration runs, so every error Status is that of
/// Execute.
Result<RestrictedResult> ExecuteRestricted(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    std::span<const RowRestriction> restrictions);

/// Parses and executes `sql_text` in one step.
Result<QueryResult> ExecuteSql(const std::string& sql_text,
                               const DatabaseView& db);

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_EXECUTOR_H_
