#include "src/engine/executor.h"

#include <algorithm>
#include <iterator>

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
/// against the table version's join-key index on one of its columns.
struct HashJoinPlan {
  int probe_slot = -1;  // slot (filled earlier) whose value we look up
  const JoinKeyIndex* index = nullptr;  // null: no hash join here
  const Expression* conjunct = nullptr;  // the equi-join it implements
  size_t column = 0;          // this position's indexed key column
  size_t probe_position = 0;  // FROM position owning probe_slot
  size_t probe_column = 0;    // its column, within that table's schema
};

/// Rows of one position that a semijoin reduction kept (see Reduce()).
struct AllowedRows {
  std::vector<uint32_t> rows;  // ascending
  std::vector<uint8_t> mask;   // per row; filled at hash-join positions
};

class ExecutionContext {
 public:
  ExecutionContext(const sql::SelectStatement& stmt, const DatabaseView& db,
                   ExecOutput output)
      : db_(db), stmt_(stmt.Clone()), output_(output) {}

  Result<QueryResult> Run() {
    AUDITDB_RETURN_IF_ERROR(Setup());
    Reduce();
    AUDITDB_RETURN_IF_ERROR(Enumerate(0));
    return std::move(result_);
  }

  /// See ExecuteRestricted. Setup, plans and local filters are shared by
  /// every restricted run; each run starts from fresh allowed rows.
  Result<RestrictedResult> RunRestricted(
      std::span<const RowRestriction> restrictions) {
    AUDITDB_RETURN_IF_ERROR(Setup());
    RestrictedResult out;
    out.table_tids.resize(tables_.size());
    std::vector<std::pair<size_t, std::span<const uint32_t>>> restricted;
    for (size_t p = 0; p < tables_.size(); ++p) {
      for (const RowRestriction& restriction : restrictions) {
        if (restriction.table == stmt_.from[p]) {
          restricted.emplace_back(p, restriction.rows);
        }
      }
    }
    if (ReductionIsExact()) {
      // No visit can fail, so a run that skips rows skips no error.
      for (const auto& [p, rows] : restricted) {
        allowed_.assign(tables_.size(), std::nullopt);
        allowed_[p] = Restrict(p, rows);
        if (allowed_[p]->rows.empty()) continue;  // no output row
        sink_ = &out.table_tids[p];
        sink_position_ = p;
        Reduce();
        AUDITDB_RETURN_IF_ERROR(Enumerate(0));
      }
    } else {
      // A visit may fail: enumerate every row, as Execute does, so the
      // Status is unchanged, then keep the restricted tids.
      AUDITDB_RETURN_IF_ERROR(Enumerate(0));
      for (const auto& [p, rows] : restricted) {
        TidBitmap keep;
        for (uint32_t r : rows) keep.Add(tables_[p]->rows()[r].tid);
        TidBitmap& tids = out.table_tids[p];
        for (std::span<const Tid> row : result_.lineage) tids.Add(row[p]);
        tids.And(keep);
      }
      result_.lineage = Lineage(tables_.size());
    }
    out.result = std::move(result_);
    return out;
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
    result_.lineage = Lineage(stmt_.from.size());
    combined_.assign(layout_.width(), Value());
    tids_.assign(tables_.size(), 0);

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
    // conjunct `earlier.col = this.col` whose key columns share a layout.
    hash_plans_.resize(tables_.size());
    for (size_t i = 1; i < tables_.size(); ++i) {
      AUDITDB_RETURN_IF_ERROR(PlanHashJoin(i));
    }

    AUDITDB_RETURN_IF_ERROR(PlanScanStages());
    AUDITDB_RETURN_IF_ERROR(PlanCopies());
    batches_.resize(tables_.size());
    filters_.resize(tables_.size());
    allowed_.resize(tables_.size());
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

  /// Per FROM position, the columns a visit copies into the combined
  /// row: those read by a cross conjunct, by a later position's hash
  /// probe, or by the projection when values are wanted. Local stages
  /// read the columnar batch, not the combined row. A hash join's own
  /// conjunct does not count (see ProvenConjunct): a visit that must
  /// evaluate it copies the whole row.
  Status PlanCopies() {
    std::vector<char> read(layout_.width(), 0);
    for (size_t i = 0; i < tables_.size(); ++i) {
      for (const ScanStage& stage : stages_[i]) {
        for (const Expression* conjunct : stage.cross) {
          if (conjunct == hash_plans_[i].conjunct) continue;
          for (const ColumnRef& col : CollectColumns(conjunct)) {
            auto slot = layout_.Slot(col);
            if (!slot.ok()) return slot.status();
            read[static_cast<size_t>(*slot)] = 1;
          }
        }
      }
      if (hash_plans_[i].index != nullptr) {
        read[static_cast<size_t>(hash_plans_[i].probe_slot)] = 1;
      }
    }
    if (output_ == ExecOutput::kLineageAndValues) {
      for (int slot : projection_slots_) read[static_cast<size_t>(slot)] = 1;
    }
    copies_.resize(tables_.size());
    for (size_t i = 0; i < tables_.size(); ++i) {
      const size_t offset = layout_.table_offsets()[i].second;
      for (size_t c = 0; c < tables_[i]->schema().num_columns(); ++c) {
        if (read[offset + c]) copies_[i].push_back(c);
      }
    }
    return Status::Ok();
  }

  /// Lazily builds position `i`'s TableFilter (local-stage outcomes over
  /// the table's columnar batch). Built at most once per query, on first
  /// visit.
  const TableFilter& Filter(size_t position) {
    if (!filters_[position].has_value()) {
      filters_[position] = BuildTableFilter(BatchOf(position),
                                            stages_[position], std::nullopt);
    }
    return *filters_[position];
  }

  const Batch& BatchOf(size_t position) {
    if (!batches_[position]) batches_[position] = tables_[position]->Columnar();
    return *batches_[position];
  }

  bool HasLocalStage(size_t position) const {
    for (const ScanStage& stage : stages_[position]) {
      if (stage.local) return true;
    }
    return false;
  }

  /// Semijoin reduction, run once before enumeration. Walking the
  /// hash-join positions from last to first, position j's allowed rows
  /// (its local filter's passing rows, narrowed by reductions from later
  /// positions) probe the key index of the earlier position p that j
  /// joins to; only the rows of p they hit stay allowed. Value == is
  /// symmetric, so those are exactly the rows of p whose enumeration
  /// probe would meet an allowed row of j: every other row reaches no
  /// output. NULL keys meet each other here and are kept, a superset the
  /// join conjunct still rejects.
  ///
  /// Cost rule: p is reduced from j only when j has fewer allowed rows
  /// than p. The probes cost about count(j) and can only save visits of
  /// p, so a query whose outer side is already selective pays nothing.
  void Reduce() {
    for (size_t j = tables_.size(); j-- > 1;) {
      const HashJoinPlan& plan = hash_plans_[j];
      if (plan.index == nullptr) continue;
      const size_t p = plan.probe_position;
      const size_t probe_count = AllowedCount(p);
      if (probe_count == 0 || AllowedCount(j) >= probe_count) continue;
      if (!ReductionIsExact()) return;
      const JoinKeyIndex& index = tables_[p]->JoinIndex(plan.probe_column);
      const RowStore& rows = tables_[j]->rows();
      const RowStore& probed = tables_[p]->rows();
      std::vector<uint8_t> hit(tables_[p]->size(), 0);
      ForEachAllowed(j, [&](uint32_t r) {
        (void)index.ForEachMatch(probed, rows[r].values[plan.column],
                                 [&](size_t m) {
                                   hit[m] = 1;
                                   return Status::Ok();
                                 });
      });
      AllowedRows kept;
      ForEachAllowed(p, [&](uint32_t r) {
        if (hit[r]) kept.rows.push_back(r);
      });
      if (hash_plans_[p].index != nullptr) {
        kept.mask.assign(hit.size(), 0);
        for (uint32_t r : kept.rows) kept.mask[r] = 1;
      }
      allowed_[p] = std::move(kept);
    }
  }

  /// Position `p`'s allowed rows for a restricted run: `rows` (ascending)
  /// that pass its local filter, so the reduction's cost rule counts only
  /// rows a visit can keep, with the mask a hash-join position reads.
  AllowedRows Restrict(size_t p, std::span<const uint32_t> rows) {
    AllowedRows kept;
    if (HasLocalStage(p)) {
      const std::vector<uint32_t>& passing = Filter(p).passing();
      std::set_intersection(rows.begin(), rows.end(), passing.begin(),
                            passing.end(), std::back_inserter(kept.rows));
    } else {
      kept.rows.assign(rows.begin(), rows.end());
    }
    if (hash_plans_[p].index != nullptr) {
      kept.mask.assign(tables_[p]->size(), 0);
      for (uint32_t r : kept.rows) kept.mask[r] = 1;
    }
    return kept;
  }

  /// Whether skipping rows that reach no output leaves the result and
  /// its error Status unchanged: true when no visit can fail at all. No
  /// local filter may hold an error row, and every other cross conjunct
  /// must compare two columns whose non-NULL cells share one type, where
  /// Value::Compare cannot fail. Storage does not enforce declared
  /// column types, so this reads the columnar layouts, not the schema.
  /// A hash join's own conjunct is exempt: it only ever sees keys equal
  /// under Value ==, hence of one type.
  bool ReductionIsExact() {
    if (!exact_.has_value()) exact_ = ComputeReductionIsExact();
    return *exact_;
  }

  bool ComputeReductionIsExact() {
    for (size_t i = 0; i < tables_.size(); ++i) {
      for (const ScanStage& stage : stages_[i]) {
        if (stage.local && Filter(i).has_errors()) return false;
        for (const Expression* conjunct : stage.cross) {
          if (conjunct == hash_plans_[i].conjunct) continue;
          if (conjunct->kind != ExprKind::kBinary ||
              !IsComparison(conjunct->bop) ||
              conjunct->left->kind != ExprKind::kColumn ||
              conjunct->right->kind != ExprKind::kColumn) {
            return false;
          }
          auto left = SlotLayout(conjunct->left->slot);
          if (left == ColumnVector::Layout::kGeneric ||
              left != SlotLayout(conjunct->right->slot)) {
            return false;
          }
        }
      }
    }
    return true;
  }

  /// The conjunct a visit of `position` may skip: its hash join's own
  /// conjunct when the probe key `key` is non-NULL, else null.
  /// ForEachMatch yields only rows whose key is Value == to the probe
  /// key: the same variant alternative holding an equal value. Compare
  /// of two such non-NULL values is 0 and cannot fail, whatever the
  /// columns' declared types (storage does not enforce them, but both
  /// cells hold one alternative), so `probe = key` is true on every row
  /// the probe visits. Skipping it changes no row, no lineage entry and,
  /// wherever it sits among the cross conjuncts, no Status. A NULL probe
  /// key meets the NULL keys, where the conjunct is false: it stays, and
  /// is evaluated on a fully copied row.
  const Expression* ProvenConjunct(size_t position, const Value& key) const {
    return key.is_null() ? nullptr : hash_plans_[position].conjunct;
  }

  /// Columnar layout of the base column behind combined-row slot `slot`.
  ColumnVector::Layout SlotLayout(int slot) {
    const auto& offsets = layout_.table_offsets();
    size_t position = 0;
    while (position + 1 < offsets.size() &&
           offsets[position + 1].second <= static_cast<size_t>(slot)) {
      ++position;
    }
    return tables_[position]->ColumnLayout(static_cast<size_t>(slot) -
                                           offsets[position].second);
  }

  size_t AllowedCount(size_t position) {
    if (allowed_[position]) return allowed_[position]->rows.size();
    if (HasLocalStage(position)) return Filter(position).passing().size();
    return tables_[position]->size();
  }

  template <typename Fn>
  void ForEachAllowed(size_t position, Fn&& fn) {
    if (allowed_[position]) {
      for (uint32_t r : allowed_[position]->rows) fn(r);
    } else if (HasLocalStage(position)) {
      for (uint32_t r : Filter(position).passing()) fn(r);
    } else {
      const auto n = static_cast<uint32_t>(tables_[position]->size());
      for (uint32_t r = 0; r < n; ++r) fn(r);
    }
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
      size_t probe_position = position;
      for (size_t j = 0; j < position; ++j) {
        if (stmt_.from[j] == lhs.table) probe_position = j;
      }
      if (probe_position == position) continue;
      auto col_idx = tables_[position]->schema().FindColumn(rhs.column);
      auto probe_idx =
          tables_[probe_position]->schema().FindColumn(lhs.column);
      if (!col_idx.has_value() || !probe_idx.has_value()) {
        return Status::Internal("hash join column vanished: " +
                                lhs.ToString() + " = " + rhs.ToString());
      }
      // Only keys of one non-generic layout: the index matches by
      // Value ==, which never equates two alternatives, while the
      // conjunct's Compare coerces (INT 2 = DOUBLE 2.0) or fails (STRING
      // against INT). Storage does not enforce declared column types, so
      // this reads the layouts, as ReductionIsExact does.
      const auto key_layout = tables_[position]->ColumnLayout(*col_idx);
      if (key_layout == ColumnVector::Layout::kGeneric ||
          key_layout != tables_[probe_position]->ColumnLayout(*probe_idx)) {
        continue;
      }

      // The conjunct itself stays a cross stage: Value equality puts
      // every NULL key in one hash run, and only re-evaluating the
      // conjunct keeps NULL = NULL pairs out.
      HashJoinPlan& plan = hash_plans_[position];
      auto probe_slot = layout_.Slot(lhs);
      if (!probe_slot.ok()) return probe_slot.status();
      plan.probe_slot = *probe_slot;
      plan.index = &tables_[position]->JoinIndex(*col_idx);
      plan.conjunct = sc.expr.get();
      plan.column = *col_idx;
      plan.probe_position = probe_position;
      plan.probe_column = *probe_idx;
      return Status::Ok();
    }
    return Status::Ok();
  }

  /// Depth-first join enumeration over FROM positions.
  Status Enumerate(size_t position) {
    if (position == tables_.size()) {
      if (sink_ != nullptr) {
        sink_->Add(tids_[sink_position_]);
        return Status::Ok();
      }
      if (output_ == ExecOutput::kLineageAndValues) {
        std::vector<Value> out;
        out.reserve(projection_slots_.size());
        for (int slot : projection_slots_) {
          out.push_back(combined_[static_cast<size_t>(slot)]);
        }
        result_.rows.push_back(std::move(out));
      }
      result_.lineage.Append(tids_);
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

    const HashJoinPlan& plan = hash_plans_[position];
    const Value* key =
        plan.index != nullptr
            ? &combined_[static_cast<size_t>(plan.probe_slot)]
            : nullptr;
    const Expression* proven =
        key != nullptr ? ProvenConjunct(position, *key) : nullptr;
    const bool copy_all = key != nullptr && proven == nullptr;
    const std::vector<size_t>& copies = copies_[position];

    auto try_row = [&](size_t r) -> Status {
      const Row& row = table.rows()[r];
      bool copied = false;
      auto materialize = [&]() {
        if (copied) return;
        if (copy_all) {
          for (size_t c = 0; c < row.values.size(); ++c) {
            combined_[offset + c] = row.values[c];
          }
        } else {
          for (size_t c : copies) combined_[offset + c] = row.values[c];
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
          if (conjunct == proven) continue;
          auto pass = EvaluatePredicate(conjunct, combined_);
          if (!pass.ok()) return pass.status();
          if (!*pass) return Status::Ok();  // prune this branch
        }
      }
      materialize();
      return Enumerate(position + 1);
    };

    // Rows a semijoin reduction dropped reach no output and, since it
    // only runs when no visit can fail, no error: skip them.
    const std::optional<AllowedRows>& allowed = allowed_[position];
    if (key != nullptr) {
      const RowStore& rows = table.rows();
      if (!allowed) return plan.index->ForEachMatch(rows, *key, try_row);
      return plan.index->ForEachMatch(rows, *key, [&](size_t r) -> Status {
        return allowed->mask[r] ? try_row(r) : Status::Ok();
      });
    }
    if (allowed) {
      for (uint32_t r : allowed->rows) AUDITDB_RETURN_IF_ERROR(try_row(r));
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
  ExecOutput output_;

  std::vector<const TableVersion*> tables_;
  RowLayout layout_;
  std::vector<int> projection_slots_;
  std::vector<ScheduledConjunct> conjuncts_;
  std::vector<HashJoinPlan> hash_plans_;
  std::vector<std::vector<size_t>> copies_;  // set by PlanCopies()
  std::vector<std::vector<ScanStage>> stages_;
  std::vector<std::shared_ptr<const Batch>> batches_;
  std::vector<std::optional<TableFilter>> filters_;
  std::vector<std::optional<AllowedRows>> allowed_;  // set by Reduce()
  std::optional<bool> exact_;  // ReductionIsExact(), once computed
  // A restricted run adds each output row's tid at sink_position_ to
  // sink_ instead of appending lineage.
  TidBitmap* sink_ = nullptr;
  size_t sink_position_ = 0;

  std::vector<Value> combined_;
  std::vector<Tid> tids_;
  QueryResult result_;
};

}  // namespace

Result<Lineage> Lineage::FromRows(
    size_t width, const std::vector<std::vector<Tid>>& rows) {
  Lineage out(width);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != width) {
      return Status::InvalidArgument(
          "ragged lineage row " + std::to_string(i) + ": " +
          std::to_string(rows[i].size()) + " entries for width " +
          std::to_string(width));
    }
    out.Append(rows[i]);
  }
  return out;
}

TidBitmap QueryResult::IndispensableTidBitmap(const std::string& table) const {
  TidBitmap out;
  auto it = std::find(from.begin(), from.end(), table);
  if (it == from.end()) return out;
  const auto position = static_cast<size_t>(it - from.begin());
  for (std::span<const Tid> row : lineage) out.Add(row[position]);
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
  for (std::span<const Tid> row : lineage) {
    std::vector<Tid> projected;
    projected.reserve(positions.size());
    for (size_t p : positions) projected.push_back(row[p]);
    out.insert(std::move(projected));
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
                            const DatabaseView& db, ExecOutput output) {
  ExecutionContext ctx(stmt, db, output);
  return ctx.Run();
}

std::vector<uint32_t> RowPositions(const TableVersion& table,
                                   const TidBitmap& tids) {
  std::vector<uint32_t> out;
  tids.ForEach([&](Tid tid) {
    auto position = table.GetPosition(tid);
    if (position.ok()) out.push_back(static_cast<uint32_t>(*position));
  });
  std::sort(out.begin(), out.end());
  return out;
}

Result<RestrictedResult> ExecuteRestricted(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    std::span<const RowRestriction> restrictions) {
  ExecutionContext ctx(stmt, db, ExecOutput::kLineage);
  return ctx.RunRestricted(restrictions);
}

Result<QueryResult> ExecuteSql(const std::string& sql_text,
                               const DatabaseView& db) {
  auto stmt = sql::ParseSelect(sql_text);
  if (!stmt.ok()) return stmt.status();
  return Execute(*stmt, db);
}

}  // namespace auditdb
