/// Experiment P6: batch auditing.
///
/// Cost and outcome of batch suspicion as the admitted batch grows:
/// (a) batch check over N candidate profiles, (b) greedy minimal-batch
/// extraction, (c) the Motwani specialized batch baseline on the same
/// input, and (d) split-attack detection rate — fraction of planted
/// two-query split disclosures the batch check catches that single-query
/// auditing misses.
///
/// (b) and (d) also report `check_ms`, the audit's phase-5 time (batch
/// verdict, per-query verdicts in (d), minimization in (b)) per
/// iteration.
///
/// Run: build/bench/bench_batch (writes BENCH_batch.json)

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/audit/baseline_motwani.h"
#include "src/common/random.h"

namespace {

using namespace auditdb;
using bench::Ts;

/// A log of `pairs` split-disclosure pairs: each pair reads names and
/// diseases of one zip code in two separate queries.
void PlantSplitAttacks(QueryLog* log, const workload::HospitalConfig& config,
                       size_t pairs, uint64_t seed) {
  Random rng(seed);
  for (size_t i = 0; i < pairs; ++i) {
    std::string zip =
        "1" + std::to_string(10000 + rng.Uniform(config.num_zipcodes));
    int64_t at = 100 + static_cast<int64_t>(i) * 10;
    log->Append(
        "SELECT name, pid FROM P-Personal WHERE zipcode='" + zip + "'",
        Ts(at), "mallory", "clerk", "billing");
    log->Append(
        "SELECT pid, disease FROM P-Health WHERE disease='diabetic'",
        Ts(at + 5), "mallory", "clerk", "billing");
  }
}

void BM_BatchCheck(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto world = bench::MakeWorld(/*patients=*/300, batch_size,
                                /*sensitive_fraction=*/0.6);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.per_query_verdicts = false;
  options.minimize_batch = false;
  bool suspicious = false;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000),
                                options);
    if (!report.ok()) std::abort();
    suspicious = report->batch_suspicious;
  }
  state.counters["suspicious"] = suspicious ? 1 : 0;
}
BENCHMARK(BM_BatchCheck)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_MinimalBatchExtraction(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto world = bench::MakeWorld(/*patients=*/300, batch_size,
                                /*sensitive_fraction=*/0.6);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.per_query_verdicts = false;
  options.minimize_batch = true;
  size_t minimal = 0;
  double check_seconds = 0;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000),
                                options);
    if (!report.ok()) std::abort();
    minimal = report->minimal_batch.size();
    check_seconds += report->check_seconds;
  }
  state.counters["minimal_size"] = static_cast<double>(minimal);
  state.counters["check_ms"] = benchmark::Counter(
      check_seconds * 1e3, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MinimalBatchExtraction)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_MotwaniBatchBaseline(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto world = bench::MakeWorld(/*patients=*/300, batch_size,
                                /*sensitive_fraction=*/0.6);
  auto expr = audit::ParseAudit(bench::CanonicalAudit(), Ts(1000000));
  if (!expr.ok()) std::abort();
  audit::MotwaniAuditor auditor(&world->db, &world->backlog, &world->log);
  for (auto _ : state) {
    auto result = auditor.Audit(*expr);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MotwaniBatchBaseline)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

/// Planted split attacks: batch catches them, single-query misses them.
void BM_SplitAttackDetection(benchmark::State& state) {
  const size_t pairs = static_cast<size_t>(state.range(0));
  auto world = bench::MakeWorld(/*patients=*/300, /*queries=*/1);
  QueryLog log;
  PlantSplitAttacks(&log, world->hospital, pairs, /*seed=*/5);

  audit::Auditor auditor(&world->db, &world->backlog, &log);
  audit::AuditOptions options;
  options.minimize_batch = false;
  bool batch_caught = false;
  size_t singles = 0;
  double check_seconds = 0;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000),
                                options);
    if (!report.ok()) std::abort();
    batch_caught = report->batch_suspicious;
    singles = report->SuspiciousQueryIds().size();
    check_seconds += report->check_seconds;
  }
  state.counters["batch_caught"] = batch_caught ? 1 : 0;
  state.counters["singles_flagged"] = static_cast<double>(singles);
  state.counters["check_ms"] = benchmark::Counter(
      check_seconds * 1e3, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SplitAttackDetection)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

AUDITDB_BENCH_MAIN(batch);
