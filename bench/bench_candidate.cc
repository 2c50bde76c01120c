/// Experiment P1: data-independent (static) candidate filtering.
///
/// Measures the throughput of the static phase over the query log and
/// reports its selectivity (candidates kept / queries seen), sweeping log
/// size and the workload's sensitive fraction, with the satisfiability
/// pruning on and off (ablation: attribute-only filter vs full filter),
/// and the shipped screen over the log's per-shape memo, cold and warm.
///
/// Run: build/bench/bench_candidate

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/audit/audit_stages.h"
#include "src/audit/candidate.h"
#include "src/expr/satisfiability.h"

namespace {

using namespace auditdb;
using bench::MakeWorld;

void BM_StaticFilter(benchmark::State& state) {
  const size_t log_size = static_cast<size_t>(state.range(0));
  const bool use_sat = state.range(1) != 0;
  const double sensitive = static_cast<double>(state.range(2)) / 100.0;

  auto world = MakeWorld(/*patients=*/200, log_size, sensitive);
  auto expr = audit::ParseAudit(bench::CanonicalAudit(), bench::Ts(1000000));
  if (!expr.ok() || !expr->Qualify(world->db.catalog()).ok()) std::abort();

  // Pre-parse the log once: this phase benchmarks the filter itself.
  std::vector<sql::SelectStatement> statements;
  for (size_t i = 0; i < world->log.size(); ++i) {
    auto stmt = sql::ParseSelect(world->log.Entry(i).sql);
    if (!stmt.ok()) std::abort();
    statements.push_back(std::move(*stmt));
  }

  audit::CandidateOptions options;
  options.use_satisfiability = use_sat;
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (const auto& stmt : statements) {
      auto candidate =
          audit::IsBatchCandidate(stmt, *expr, world->db.catalog(), options);
      if (candidate.ok() && *candidate) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log_size));
  state.counters["selectivity"] =
      static_cast<double>(kept) / static_cast<double>(log_size);
}

// Args: {log size, satisfiability on/off, sensitive_fraction * 100}.
BENCHMARK(BM_StaticFilter)
    ->Args({1000, 1, 40})
    ->Args({5000, 1, 40})
    ->Args({20000, 1, 40})
    ->Args({1000, 0, 40})
    ->Args({5000, 0, 40})
    ->Args({20000, 0, 40})
    ->Args({5000, 1, 10})
    ->Args({5000, 1, 80})
    ->Unit(benchmark::kMillisecond);

/// The static screen over each logged shape's ParsedShape, cold against
/// memoized. Cold: every timed pass screens a freshly appended log, so it
/// parses each shape and computes its StaticFacts. Memoized: the log was
/// screened once before timing, so every timed pass reads the stored
/// parse and facts and only runs admission and candidacy (the pattern of
/// re-auditing an unchanged store). Args: {log size, memoized}.
void BM_StaticScreen(benchmark::State& state) {
  const size_t log_size = static_cast<size_t>(state.range(0));
  const bool memoized = state.range(1) != 0;

  auto world = MakeWorld(/*patients=*/200, log_size, /*sensitive=*/0.4);
  auto expr = audit::ParseAudit(bench::CanonicalAudit(), bench::Ts(1000000));
  if (!expr.ok() || !expr->Qualify(world->db.catalog()).ok()) std::abort();
  const DatabaseView view = world->db.Snapshot();
  audit::CandidateCacheContext ctx;
  ctx.state_key = view.catalog_epoch();
  ctx.database_id = view.database_id();
  auto screen = [&](const QueryLog& log) {
    return audit::StaticScreenRange(*expr, log, view.catalog(),
                                    audit::CandidateOptions{}, 0, log.size(),
                                    ctx);
  };

  size_t kept = 0;
  if (memoized) {
    screen(world->log);
    for (auto _ : state) {
      kept = screen(world->log).candidates.size();
      benchmark::DoNotOptimize(kept);
    }
  } else {
    for (auto _ : state) {
      state.PauseTiming();
      auto log = std::make_unique<QueryLog>();
      for (size_t i = 0; i < world->log.size(); ++i) {
        const LoggedQuery& entry = world->log.Entry(i);
        log->Append(entry.sql, entry.timestamp, entry.user, entry.role,
                    entry.purpose);
      }
      state.ResumeTiming();
      kept = screen(*log).candidates.size();
      benchmark::DoNotOptimize(kept);
      state.PauseTiming();
      log.reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log_size));
  state.counters["selectivity"] =
      static_cast<double>(kept) / static_cast<double>(log_size);
}
BENCHMARK(BM_StaticScreen)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Unit(benchmark::kMillisecond);

/// Cost of one satisfiability check in isolation, by predicate size.
void BM_SatisfiabilityCheck(benchmark::State& state) {
  const int conjuncts = static_cast<int>(state.range(0));
  std::string text = "P-Personal.age > 10";
  for (int i = 1; i < conjuncts; ++i) {
    text += " AND P-Personal.age < " + std::to_string(100 + i);
  }
  auto query_pred = sql::ParseExpression(text);
  auto audit_pred = sql::ParseExpression(
      "P-Personal.zipcode = '145568' AND P-Personal.age >= 20");
  if (!query_pred.ok() || !audit_pred.ok()) std::abort();
  for (auto _ : state) {
    bool sat = MaybeSatisfiable(query_pred->get(), audit_pred->get());
    benchmark::DoNotOptimize(sat);
  }
}
BENCHMARK(BM_SatisfiabilityCheck)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

AUDITDB_BENCH_MAIN(candidate);
