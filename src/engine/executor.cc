#include "src/engine/executor.h"

#include <algorithm>
#include <unordered_map>

#include "src/engine/table_scan.h"
#include "src/expr/analysis.h"
#include "src/expr/evaluator.h"

namespace auditdb {

namespace {

/// A conjunct scheduled for evaluation once all its tables are joined.
struct ScheduledConjunct {
  ExprPtr expr;       // bound
  size_t ready_at;    // index of the last FROM table it references
};

/// Per-join-position hash acceleration: probe an earlier column's value
/// against a hash of this table's rows keyed by one of its columns.
struct HashJoinPlan {
  bool enabled = false;
  int probe_slot = -1;   // slot (filled earlier) whose value we look up
  size_t build_column = 0;  // column index within this table's schema
  std::unordered_map<Value, std::vector<size_t>> build;
};

class ExecutionContext {
 public:
  ExecutionContext(const sql::SelectStatement& stmt, const DatabaseView& db)
      : db_(db), stmt_(stmt.Clone()) {}

  Result<QueryResult> Run() {
    AUDITDB_RETURN_IF_ERROR(Setup());
    if (!tables_.empty()) {
      combined_.assign(layout_.width(), Value());
      tids_.assign(tables_.size(), 0);
      AUDITDB_RETURN_IF_ERROR(Enumerate(0));
    }
    return std::move(result_);
  }

 private:
  Status Setup() {
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("query has no FROM clause");
    }
    // Reject duplicate FROM entries (no alias support).
    for (size_t i = 0; i < stmt_.from.size(); ++i) {
      for (size_t j = i + 1; j < stmt_.from.size(); ++j) {
        if (stmt_.from[i] == stmt_.from[j]) {
          return Status::InvalidArgument("duplicate table in FROM: " +
                                         stmt_.from[i]);
        }
      }
    }
    for (const auto& name : stmt_.from) {
      auto table = db_.GetTable(name);
      if (!table.ok()) return table.status();
      tables_.push_back(*table);
      layout_.AddTable(name, (*table)->schema());
    }

    // Resolve the projection.
    if (stmt_.select_star) {
      result_.columns = layout_.slot_columns();
      projection_slots_.resize(layout_.width());
      for (size_t i = 0; i < layout_.width(); ++i) {
        projection_slots_[i] = static_cast<int>(i);
      }
    } else {
      for (auto& ref : stmt_.select_list) {
        auto resolved = db_.catalog().Resolve(ref, stmt_.from);
        if (!resolved.ok()) return resolved.status();
        auto slot = layout_.Slot(*resolved);
        if (!slot.ok()) return slot.status();
        result_.columns.push_back(*resolved);
        projection_slots_.push_back(*slot);
      }
    }
    result_.from = stmt_.from;

    // Qualify, bind and schedule WHERE conjuncts.
    if (stmt_.where) {
      AUDITDB_RETURN_IF_ERROR(
          QualifyColumns(stmt_.where.get(), db_.catalog(), stmt_.from));
      AUDITDB_RETURN_IF_ERROR(BindExpression(stmt_.where.get(), layout_));
      for (const Expression* conjunct : SplitConjuncts(stmt_.where.get())) {
        ScheduledConjunct sc;
        sc.expr = conjunct->Clone();
        sc.ready_at = 0;
        for (const ColumnRef& col : CollectColumns(conjunct)) {
          for (size_t i = 0; i < stmt_.from.size(); ++i) {
            if (stmt_.from[i] == col.table) {
              sc.ready_at = std::max(sc.ready_at, i);
            }
          }
        }
        conjuncts_.push_back(std::move(sc));
      }
    }

    // Plan hash joins: for each position > 0, find a bound equi-join
    // conjunct `earlier.col = this.col` of matching column types.
    hash_plans_.resize(tables_.size());
    for (size_t i = 1; i < tables_.size(); ++i) {
      AUDITDB_RETURN_IF_ERROR(PlanHashJoin(i));
    }

    AUDITDB_RETURN_IF_ERROR(PlanScanStages());
    batches_.resize(tables_.size());
    filters_.resize(tables_.size());
    return Status::Ok();
  }

  /// Splits each position's ready conjuncts, in their original order,
  /// into stages: maximal runs of conjuncts reading only this table's
  /// columns compile into one predicate program (precomputed per query
  /// over the table's batch); runs touching earlier tables stay as
  /// tree-walked cross stages.
  Status PlanScanStages() {
    stages_.resize(tables_.size());
    for (size_t i = 0; i < tables_.size(); ++i) {
      size_t offset = layout_.table_offsets()[i].second;
      size_t width = tables_[i]->schema().num_columns();
      std::vector<ExprPtr> run;  // consecutive local conjuncts
      auto flush = [&]() -> Status {
        if (run.empty()) return Status::Ok();
        ExprPtr conj = Expression::MakeConjunction(std::move(run));
        run.clear();
        auto program = PredicateProgram::Compile(*conj, offset, width);
        if (!program.ok()) return program.status();
        ScanStage stage;
        stage.local = true;
        stage.program = std::move(*program);
        stages_[i].push_back(std::move(stage));
        return Status::Ok();
      };
      for (const auto& sc : conjuncts_) {
        if (sc.ready_at != i) continue;
        if (PredicateProgram::IsLocal(*sc.expr, offset, width)) {
          run.push_back(sc.expr->Clone());
          continue;
        }
        AUDITDB_RETURN_IF_ERROR(flush());
        if (stages_[i].empty() || stages_[i].back().local) {
          stages_[i].emplace_back();
        }
        stages_[i].back().cross.push_back(sc.expr.get());
      }
      AUDITDB_RETURN_IF_ERROR(flush());
    }
    return Status::Ok();
  }

  /// Lazily builds position `i`'s TableFilter (local-stage outcomes over
  /// the table's columnar batch). Built at most once per query, on first
  /// visit.
  const TableFilter& Filter(size_t position) {
    if (!filters_[position].has_value()) {
      if (!batches_[position]) {
        batches_[position] = tables_[position]->Columnar();
      }
      filters_[position] = BuildTableFilter(
          *batches_[position], stages_[position], std::nullopt);
    }
    return *filters_[position];
  }

  Status PlanHashJoin(size_t position) {
    const std::string& this_table = stmt_.from[position];
    for (const auto& sc : conjuncts_) {
      if (sc.ready_at != position) continue;
      ColumnRef lhs, rhs;
      if (!IsEquiJoin(*sc.expr, &lhs, &rhs)) continue;
      // Normalize so rhs belongs to this table.
      if (lhs.table == this_table) std::swap(lhs, rhs);
      if (rhs.table != this_table) continue;
      // Probe side must be available earlier.
      bool lhs_earlier = false;
      for (size_t j = 0; j < position; ++j) {
        if (stmt_.from[j] == lhs.table) lhs_earlier = true;
      }
      if (!lhs_earlier) continue;
      // Only same-typed keys: hashing must agree with Compare()-equality,
      // which coerces across types; restrict to identical column types.
      auto lt = db_.catalog().TypeOf(lhs);
      auto rt = db_.catalog().TypeOf(rhs);
      if (!lt.ok() || !rt.ok() || *lt != *rt) continue;

      // The conjunct itself stays a cross stage: Value equality puts
      // every NULL key in one bucket, and only re-evaluating the
      // conjunct keeps NULL = NULL pairs out.
      HashJoinPlan& plan = hash_plans_[position];
      auto probe_slot = layout_.Slot(lhs);
      if (!probe_slot.ok()) return probe_slot.status();
      plan.probe_slot = *probe_slot;
      auto col_idx = tables_[position]->schema().FindColumn(rhs.column);
      if (!col_idx.has_value()) {
        return Status::Internal("hash join column vanished: " +
                                rhs.ToString());
      }
      plan.build_column = *col_idx;
      const auto& rows = tables_[position]->rows();
      for (size_t r = 0; r < rows.size(); ++r) {
        plan.build[rows[r].values[plan.build_column]].push_back(r);
      }
      plan.enabled = true;
      return Status::Ok();
    }
    return Status::Ok();
  }

  /// Depth-first join enumeration over FROM positions.
  Status Enumerate(size_t position) {
    if (position == tables_.size()) {
      std::vector<Value> out;
      out.reserve(projection_slots_.size());
      for (int slot : projection_slots_) {
        out.push_back(combined_[static_cast<size_t>(slot)]);
      }
      result_.rows.push_back(std::move(out));
      result_.lineage.push_back(tids_);
      return Status::Ok();
    }

    const TableVersion& table = *tables_[position];
    size_t offset = layout_.table_offsets()[position].second;
    const std::vector<ScanStage>& stages = stages_[position];
    bool any_local = false;
    bool any_cross = false;
    for (const ScanStage& stage : stages) {
      (stage.local ? any_local : any_cross) = true;
    }
    // Local-stage outcomes are independent of outer rows, so they are
    // precomputed once over the table's batch; visits consult the stored
    // tri-state per row. Cross stages still run per combined row.
    const TableFilter* filter = any_local ? &Filter(position) : nullptr;

    auto try_row = [&](size_t r) -> Status {
      const Row& row = table.rows()[r];
      bool copied = false;
      auto materialize = [&]() {
        if (copied) return;
        for (size_t c = 0; c < row.values.size(); ++c) {
          combined_[offset + c] = row.values[c];
        }
        tids_[position] = row.tid;
        copied = true;
      };
      for (size_t s = 0; s < stages.size(); ++s) {
        const ScanStage& stage = stages[s];
        if (stage.local) {
          switch (filter->StageState(s, static_cast<uint32_t>(r))) {
            case TableFilter::RowState::kPass:
              break;
            case TableFilter::RowState::kFail:
              return Status::Ok();  // prune this branch
            case TableFilter::RowState::kError:
              // Surfaced only now, when enumeration actually visits the
              // row: the same moment the interpreter would have errored.
              return filter->StageError(s, static_cast<uint32_t>(r));
          }
          continue;
        }
        materialize();
        for (const Expression* conjunct : stage.cross) {
          auto pass = EvaluatePredicate(conjunct, combined_);
          if (!pass.ok()) return pass.status();
          if (!*pass) return Status::Ok();  // prune this branch
        }
      }
      materialize();
      return Enumerate(position + 1);
    };

    const HashJoinPlan& plan = hash_plans_[position];
    if (plan.enabled) {
      const Value& key = combined_[static_cast<size_t>(plan.probe_slot)];
      auto it = plan.build.find(key);
      if (it == plan.build.end()) return Status::Ok();
      for (size_t r : it->second) {
        AUDITDB_RETURN_IF_ERROR(try_row(r));
      }
      return Status::Ok();
    }
    // Fast path: every ready conjunct was compiled and no row errors, so
    // the passing set IS the visit set (failing rows would only have been
    // pruned; there is no error to surface in row order).
    if (any_local && !any_cross && !filter->has_errors()) {
      for (uint32_t r : filter->passing()) {
        AUDITDB_RETURN_IF_ERROR(try_row(r));
      }
      return Status::Ok();
    }
    for (size_t r = 0; r < table.rows().size(); ++r) {
      AUDITDB_RETURN_IF_ERROR(try_row(r));
    }
    return Status::Ok();
  }

  const DatabaseView& db_;
  sql::SelectStatement stmt_;

  std::vector<const TableVersion*> tables_;
  RowLayout layout_;
  std::vector<int> projection_slots_;
  std::vector<ScheduledConjunct> conjuncts_;
  std::vector<HashJoinPlan> hash_plans_;
  std::vector<std::vector<ScanStage>> stages_;
  std::vector<std::shared_ptr<const Batch>> batches_;
  std::vector<std::optional<TableFilter>> filters_;

  std::vector<Value> combined_;
  std::vector<Tid> tids_;
  QueryResult result_;
};

}  // namespace

TidBitmap QueryResult::IndispensableTidBitmap(const std::string& table) const {
  TidBitmap out;
  for (size_t j = 0; j < from.size(); ++j) {
    if (from[j] != table) continue;
    for (const auto& tuple : lineage) {
      if (j < tuple.size()) out.Add(tuple[j]);
    }
  }
  return out;
}

Result<std::set<std::vector<Tid>>> QueryResult::ProjectLineage(
    const std::vector<std::string>& tables) const {
  std::vector<size_t> positions;
  for (const auto& t : tables) {
    auto it = std::find(from.begin(), from.end(), t);
    if (it == from.end()) {
      return Status::NotFound("table not in query lineage: " + t);
    }
    positions.push_back(static_cast<size_t>(it - from.begin()));
  }
  std::set<std::vector<Tid>> out;
  for (size_t i = 0; i < lineage.size(); ++i) {
    const auto& tuple = lineage[i];
    if (tuple.size() != from.size()) {
      return Status::Internal(
          "ragged lineage row " + std::to_string(i) + ": " +
          std::to_string(tuple.size()) + " entries for " +
          std::to_string(from.size()) + " FROM tables");
    }
    std::vector<Tid> projected;
    projected.reserve(positions.size());
    for (size_t p : positions) projected.push_back(tuple[p]);
    out.insert(std::move(projected));
  }
  return out;
}

Result<TidBitmap> QueryResult::ProjectLineageBitmap(
    const std::string& table) const {
  auto it = std::find(from.begin(), from.end(), table);
  if (it == from.end()) {
    return Status::NotFound("table not in query lineage: " + table);
  }
  size_t position = static_cast<size_t>(it - from.begin());
  TidBitmap out;
  for (size_t i = 0; i < lineage.size(); ++i) {
    const auto& tuple = lineage[i];
    if (tuple.size() != from.size()) {
      return Status::Internal(
          "ragged lineage row " + std::to_string(i) + ": " +
          std::to_string(tuple.size()) + " entries for " +
          std::to_string(from.size()) + " FROM tables");
    }
    out.Add(tuple[position]);
  }
  return out;
}

std::set<Value> QueryResult::ColumnValues(const ColumnRef& col) const {
  std::set<Value> out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!(columns[i] == col)) continue;
    for (const auto& row : rows) out.insert(row[i]);
  }
  return out;
}

std::string QueryResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i].ToString();
  }
  out += "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

Result<QueryResult> Execute(const sql::SelectStatement& stmt,
                            const DatabaseView& db) {
  ExecutionContext ctx(stmt, db);
  return ctx.Run();
}

Result<QueryResult> ExecuteSql(const std::string& sql_text,
                               const DatabaseView& db) {
  auto stmt = sql::ParseSelect(sql_text);
  if (!stmt.ok()) return stmt.status();
  return Execute(*stmt, db);
}

}  // namespace auditdb
