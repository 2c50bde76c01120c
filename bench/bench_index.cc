/// Experiment P10 (extension): the standing-expression audit index.
///
/// Throughput of screening one observed query against N standing audit
/// expressions. The workload is the index's design point — many narrow
/// expressions, each auditing its own column of one wide table, while a
/// query touches only a small fraction of them (the overlap knob). Every
/// iteration of BM_ObserveStanding uses a fresh WHERE literal, so the
/// decision cache cannot serve repeats; BM_ObserveRepeatedQuery measures
/// the cache-hit path. EXPERIMENTS.md P10 compares both with the index
/// and the cache off.
///
/// Run: build/bench/bench_index

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/audit/audit_index.h"
#include "src/audit/online.h"

namespace {

using namespace auditdb;
using bench::Ts;

/// One wide table: `columns` int columns c0..c<n-1>, `rows` rows.
std::unique_ptr<Database> MakeWideDatabase(size_t columns, size_t rows) {
  auto db = std::make_unique<Database>();
  std::vector<Column> schema_columns;
  schema_columns.reserve(columns);
  for (size_t c = 0; c < columns; ++c) {
    schema_columns.push_back({"c" + std::to_string(c), ValueType::kInt});
  }
  if (!db->CreateTable(TableSchema("Wide", std::move(schema_columns))).ok()) {
    std::abort();
  }
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> values;
    values.reserve(columns);
    for (size_t c = 0; c < columns; ++c) {
      values.push_back(Value::Int(static_cast<int64_t>(r * columns + c)));
    }
    if (!db->Insert("Wide", std::move(values), Ts(1)).ok()) std::abort();
  }
  return db;
}

/// One standing expression per audited column: AUDIT (c<i>) FROM Wide.
void AddStandingExpressions(audit::OnlineAuditor* online, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    auto expr = audit::ParseAudit(
        "DURING 1/1/1970 to 2/1/1970 AUDIT (c" + std::to_string(i) +
            ") FROM Wide",
        Ts(1000000));
    if (!expr.ok()) std::abort();
    if (!online->AddExpression(*expr).ok()) std::abort();
  }
}

/// An observed query touching the first `touched` columns, with a unique
/// literal per call (defeats the decision cache across iterations).
LoggedQuery TouchingQuery(size_t touched, int64_t serial) {
  std::string sql = "SELECT ";
  for (size_t c = 0; c < touched; ++c) {
    if (c > 0) sql += ", ";
    sql += "c" + std::to_string(c);
  }
  sql += " FROM Wide WHERE c0 > " + std::to_string(1000000 + serial);
  LoggedQuery q;
  q.id = serial;
  q.sql = std::move(sql);
  q.timestamp = Ts(100);
  q.user = "alice";
  q.role = "doctor";
  q.purpose = "treatment";
  return q;
}

/// Args: {standing expressions, touched columns}.
void BM_ObserveStanding(benchmark::State& state) {
  const size_t expressions = static_cast<size_t>(state.range(0));
  const size_t touched = static_cast<size_t>(state.range(1));

  auto db = MakeWideDatabase(expressions, /*rows=*/32);
  audit::OnlineAuditor online(db.get());
  AddStandingExpressions(&online, expressions);

  int64_t serial = 0;
  for (auto _ : state) {
    auto screenings = online.Observe(TouchingQuery(touched, serial++));
    if (!screenings.ok()) std::abort();
    benchmark::DoNotOptimize(screenings);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["expressions"] = static_cast<double>(expressions);
  state.counters["overlap_pct"] =
      100.0 * static_cast<double>(touched) / static_cast<double>(expressions);
}
BENCHMARK(BM_ObserveStanding)
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({256, 24})
    ->Unit(benchmark::kMicrosecond);

/// The decision cache on a repeated query (the serving-path pattern:
/// identical SQL arriving again between mutations). Args: {standing
/// expressions}.
void BM_ObserveRepeatedQuery(benchmark::State& state) {
  const size_t expressions = static_cast<size_t>(state.range(0));

  auto db = MakeWideDatabase(expressions, /*rows=*/32);
  audit::OnlineAuditor online(db.get());
  AddStandingExpressions(&online, expressions);

  LoggedQuery q = TouchingQuery(/*touched=*/8, /*serial=*/0);
  for (auto _ : state) {
    auto screenings = online.Observe(q);
    if (!screenings.ok()) std::abort();
    benchmark::DoNotOptimize(screenings);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveRepeatedQuery)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

AUDITDB_BENCH_MAIN(index);
