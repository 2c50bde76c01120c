/// Experiment P7: end-to-end audit pipeline.
///
/// Full pipeline wall time vs log size, with sweeps over (a) limiting-
/// parameter selectivity (how much of the log the Pos/Neg clauses admit),
/// (b) hash-join acceleration on/off in the audit executor, and (c)
/// database size. Phase counters (admitted/candidates/executed) come out
/// as benchmark counters so selectivity of each stage is visible.
///
/// Run: build/bench/bench_end_to_end

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

using namespace auditdb;
using bench::Ts;

void RunPipeline(benchmark::State& state, const std::string& audit_text,
                 size_t patients, size_t log_size, bool hash_join) {
  auto world = bench::MakeWorld(patients, log_size);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.exec.hash_join = hash_join;
  options.minimize_batch = false;
  size_t admitted = 0, candidates = 0;
  for (auto _ : state) {
    auto report = auditor.Audit(audit_text, Ts(1000000), options);
    if (!report.ok()) std::abort();
    admitted = report->num_admitted;
    candidates = report->num_candidates;
  }
  state.counters["admitted"] = static_cast<double>(admitted);
  state.counters["candidates"] = static_cast<double>(candidates);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log_size));
}

void BM_PipelineLogSize(benchmark::State& state) {
  RunPipeline(state, bench::CanonicalAudit(), /*patients=*/300,
              static_cast<size_t>(state.range(0)), /*hash_join=*/true);
}
BENCHMARK(BM_PipelineLogSize)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineDbSize(benchmark::State& state) {
  RunPipeline(state, bench::CanonicalAudit(),
              static_cast<size_t>(state.range(0)), /*log_size=*/1000,
              /*hash_join=*/true);
}
BENCHMARK(BM_PipelineDbSize)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineJoinStrategy(benchmark::State& state) {
  RunPipeline(state, bench::CanonicalAudit(),
              static_cast<size_t>(state.range(0)), /*log_size=*/1000,
              /*hash_join=*/state.range(1) != 0);
}
BENCHMARK(BM_PipelineJoinStrategy)
    ->Args({100, 1})
    ->Args({100, 0})
    ->Args({300, 1})
    ->Args({300, 0})
    ->Unit(benchmark::kMillisecond);

/// Join-reordering ablation on the audit executor.
void BM_PipelineReorderAblation(benchmark::State& state) {
  const bool reorder = state.range(0) != 0;
  auto world = bench::MakeWorld(/*patients=*/1000, /*log_size=*/1000);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.exec.reorder_joins = reorder;
  options.minimize_batch = false;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000),
                                options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(reorder ? "greedy-reorder" : "from-order");
}
BENCHMARK(BM_PipelineReorderAblation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Limiting-parameter selectivity: the Pos-Role-Purpose clause admits a
/// shrinking slice of the log; cost should track the admitted count.
void BM_PipelineFilterSelectivity(benchmark::State& state) {
  const int64_t mode = state.range(0);
  std::string filter;
  switch (mode) {
    case 0:
      filter = "";  // everything
      break;
    case 1:
      filter = "Pos-Role-Purpose (clerk,-) ";  // 1 of 4 roles
      break;
    case 2:
      filter = "Pos-Role-Purpose (clerk,billing) ";  // 1/12 combos
      break;
    default:
      filter = "Pos-User-Identity nobody ";  // empty
      break;
  }
  RunPipeline(state, filter + bench::CanonicalAudit(), /*patients=*/300,
              /*log_size=*/4000, /*hash_join=*/true);
}
BENCHMARK(BM_PipelineFilterSelectivity)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

AUDITDB_BENCH_MAIN(end_to_end);
