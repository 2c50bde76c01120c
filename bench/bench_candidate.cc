/// Experiment P1: data-independent (static) candidate filtering.
///
/// Measures the throughput of the static phase over the query log and
/// reports its selectivity (candidates kept / queries seen), sweeping log
/// size and the workload's sensitive fraction, with the satisfiability
/// pruning on and off (ablation: attribute-only filter vs full filter).
///
/// Run: build/bench/bench_candidate

#include <benchmark/benchmark.h>

#include <functional>

#include "bench/bench_util.h"
#include "src/audit/audit_index.h"
#include "src/audit/candidate.h"
#include "src/expr/satisfiability.h"
#include "src/sql/query_shape.h"

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

/// The static filter through the decision cache: the first pass over the
/// log populates it, every timed pass is answered from memoized
/// decisions (the serving-stack pattern of re-auditing an unchanged
/// store). Compare against BM_StaticFilter for the hit-path speedup. Log
/// sizes stay below DecisionCache::kMaxDecisionEntries, so no pass drops
/// the decision section.
void BM_StaticFilterCached(benchmark::State& state) {
  const size_t log_size = static_cast<size_t>(state.range(0));

  auto world = MakeWorld(/*patients=*/200, log_size, /*sensitive=*/0.4);
  auto expr = audit::ParseAudit(bench::CanonicalAudit(), bench::Ts(1000000));
  if (!expr.ok() || !expr->Qualify(world->db.catalog()).ok()) std::abort();
  const uint64_t expr_hash = std::hash<std::string>{}(expr->ToString());

  std::vector<sql::SelectStatement> statements;
  std::vector<sql::QueryShape> keys;
  for (size_t i = 0; i < world->log.size(); ++i) {
    const auto& entry = world->log.Entry(i);
    auto stmt = sql::ParseSelect(entry.sql);
    if (!stmt.ok()) std::abort();
    statements.push_back(std::move(*stmt));
    keys.push_back(sql::ComputeQueryShape(entry.sql));
  }

  audit::DecisionCache cache;
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (size_t i = 0; i < statements.size(); ++i) {
      auto candidate = cache.BatchCandidate(keys[i], expr_hash, 0,
                                            statements[i], *expr,
                                            world->db.catalog(),
                                            audit::CandidateOptions{});
      if (candidate.ok() && *candidate) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log_size));
  state.counters["hit_rate"] =
      static_cast<double>(cache.stats()->cache_hits.load()) /
      static_cast<double>(cache.stats()->cache_hits.load() +
                          cache.stats()->cache_misses.load());
}
BENCHMARK(BM_StaticFilterCached)
    ->Arg(1000)
    ->Arg(5000)
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
