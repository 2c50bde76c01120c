/// Experiment S1: the columnar scan layer.
///
/// Sweeps row count, predicate selectivity, and conjunct count over a
/// synthetic single-table workload, timing one SELECT through the
/// executor's compiled columnar scan.
///
/// Run: build/bench/bench_scan   (artifact: BENCH_scan.json)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/engine/executor.h"

namespace {

using namespace auditdb;

/// Rows cycle through deterministic value patterns so predicate
/// selectivity is controlled by the constants in the WHERE clause:
/// `score < K` passes K% of rows, and each extra conjunct is satisfied by
/// construction wherever the first one is (so conjunct count changes the
/// work per row, not the output size).
std::unique_ptr<Database> MakeScanDb(size_t rows) {
  auto db = std::make_unique<Database>();
  TableSchema schema("M", {{"id", ValueType::kInt},
                           {"score", ValueType::kInt},
                           {"weight", ValueType::kDouble},
                           {"grade", ValueType::kString},
                           {"region", ValueType::kInt}});
  if (!db->CreateTable(std::move(schema)).ok()) std::abort();
  for (size_t i = 0; i < rows; ++i) {
    const int64_t score = static_cast<int64_t>(i % 100);
    auto inserted = db->Insert(
        "M",
        {Value::Int(static_cast<int64_t>(i)), Value::Int(score),
         Value::Double(static_cast<double>(score) + 0.5),
         Value::String(score < 50 ? "low" : "high"),
         Value::Int(score % 10)},
        Timestamp(1000000 + static_cast<int64_t>(i)));
    if (!inserted.ok()) std::abort();
  }
  return db;
}

/// WHERE clause with `conjuncts` ANDed comparisons, the first of which
/// passes `selectivity_pct`% of rows and the rest of which never prune
/// further.
std::string ScanSql(int selectivity_pct, int conjuncts) {
  std::string sql =
      "SELECT id FROM M WHERE score < " + std::to_string(selectivity_pct);
  if (conjuncts > 1) sql += " AND weight < 100.0";
  if (conjuncts > 2) sql += " AND region < 10";
  if (conjuncts > 3) sql += " AND id >= 0";
  return sql;
}

// Args: {rows, selectivity %, conjuncts}.
void BM_Filter(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const int selectivity = static_cast<int>(state.range(1));
  const int conjuncts = static_cast<int>(state.range(2));

  auto db = MakeScanDb(rows);
  const std::string sql = ScanSql(selectivity, conjuncts);

  size_t matched = 0;
  for (auto _ : state) {
    auto result = ExecuteSql(sql, db->View());
    if (!result.ok()) std::abort();
    matched = result->rows.size();
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
  state.counters["matched"] = static_cast<double>(matched);
}

BENCHMARK(BM_Filter)
    // Row-count sweep at 10% selectivity, 3 conjuncts.
    ->Args({1000, 10, 3})
    ->Args({10000, 10, 3})
    ->Args({100000, 10, 3})
    ->Args({1000000, 10, 3})
    // Selectivity sweep at 100k rows, 3 conjuncts.
    ->Args({100000, 1, 3})
    ->Args({100000, 50, 3})
    ->Args({100000, 90, 3})
    // Conjunct sweep at 100k rows, 10% selectivity.
    ->Args({100000, 10, 1})
    ->Args({100000, 10, 2})
    ->Args({100000, 10, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

AUDITDB_BENCH_MAIN(scan);
