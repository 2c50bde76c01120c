/// Experiment P5: backlog snapshot reconstruction and DATA-INTERVAL
/// version enumeration.
///
/// Sweeps the number of captured update events and the width of the
/// DATA-INTERVAL, measuring (a) point-in-time snapshot materialization,
/// (b) target-view computation across all versions in an interval, and
/// (c) the auditor's snapshot cache benefit when many queries share a
/// database state.
///
/// Run: build/bench/bench_backlog

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/audit/target_view.h"
#include "src/common/random.h"

namespace {

using namespace auditdb;
using bench::Ts;

/// A world whose P-Health table receives `updates` single-column updates
/// spread over t = 1000..1000+updates seconds.
std::unique_ptr<bench::World> MakeUpdatedWorld(size_t patients,
                                               size_t updates) {
  auto world = bench::MakeWorld(patients, /*queries=*/1);
  Random rng(7);
  auto health = world->db.GetTable("P-Health");
  if (!health.ok()) std::abort();
  std::vector<Tid> tids;
  for (const auto& row : (*health)->rows()) tids.push_back(row.tid);
  static const char* kDiseases[] = {"flu", "diabetic", "asthma", "anemia"};
  for (size_t i = 0; i < updates; ++i) {
    Tid tid = tids[rng.Uniform(tids.size())];
    auto status = world->db.UpdateColumn(
        "P-Health", tid, "disease",
        Value::String(kDiseases[rng.Uniform(4)]),
        Ts(1000 + static_cast<int64_t>(i)));
    if (!status.ok()) std::abort();
  }
  return world;
}

void BM_SnapshotReconstruction(benchmark::State& state) {
  const size_t updates = static_cast<size_t>(state.range(0));
  auto world = MakeUpdatedWorld(/*patients=*/500, updates);
  // Snapshot in the middle of the update stream.
  Timestamp at = Ts(1000 + static_cast<int64_t>(updates) / 2);
  for (auto _ : state) {
    auto snapshot = world->backlog.SnapshotAt(at);
    if (!snapshot.ok()) std::abort();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["events"] =
      static_cast<double>(world->backlog.event_count());
}
BENCHMARK(BM_SnapshotReconstruction)
    ->Arg(0)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_TargetViewOverInterval(benchmark::State& state) {
  const size_t versions = static_cast<size_t>(state.range(0));
  auto world = MakeUpdatedWorld(/*patients=*/300, /*updates=*/2000);
  // Interval spanning `versions` update events.
  std::string text =
      "DATA-INTERVAL 1/1/1970:00-16-40 to " +
      Ts(1000 + static_cast<int64_t>(versions) - 1).ToString() + " " +
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  auto expr = audit::ParseAudit(text, Ts(1000000));
  if (!expr.ok() || !expr->Qualify(world->db.catalog()).ok()) std::abort();
  size_t view_size = 0;
  audit::SweepCounters storage;
  for (auto _ : state) {
    auto view = audit::ComputeTargetViewOverVersions(
        *expr, world->backlog, ExecOptions{}, Backlog::kNoLimit, &storage);
    if (!view.ok()) std::abort();
    view_size = view->size();
  }
  state.counters["versions"] = static_cast<double>(versions);
  state.counters["view_size"] = static_cast<double>(view_size);
  // Storage work per sweep: copy-on-write rows and the column vectors
  // and join-key indexes the swept versions built rather than borrowed.
  const auto per_iteration = [&](uint64_t total) {
    return benchmark::Counter(static_cast<double>(total),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["cow_rows"] = per_iteration(storage.cow_rows);
  state.counters["columnar_builds"] = per_iteration(storage.columnar_builds);
  state.counters["join_index_builds"] =
      per_iteration(storage.join_index_builds);
}
BENCHMARK(BM_TargetViewOverInterval)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// Snapshot-cache benefit: audit a log whose queries all ran between the
/// same two updates (one shared state) vs spread across update events
/// (one state per query).
void BM_AuditSnapshotLocality(benchmark::State& state) {
  const bool shared_state = state.range(0) != 0;
  const size_t queries = 200;

  auto world = bench::MakeWorld(/*patients=*/200, /*queries=*/1);
  QueryLog log;
  Random rng(11);
  for (size_t i = 0; i < queries; ++i) {
    int64_t at = shared_state ? 500 : 2000 + static_cast<int64_t>(i) * 2;
    log.Append(
        "SELECT name, disease FROM P-Personal, P-Health "
        "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
        Ts(at), "alice", "doctor", "treatment");
    if (!shared_state) {
      // Interleave an update so consecutive queries see distinct states.
      auto status = world->db.UpdateColumn(
          "P-Health", static_cast<Tid>(1 + rng.Uniform(200)), "ward",
          Value::String("W" + std::to_string(rng.Uniform(20) + 1)),
          Ts(2000 + static_cast<int64_t>(i) * 2 + 1));
      if (!status.ok()) std::abort();
    }
  }

  audit::Auditor auditor(&world->db, &world->backlog, &log);
  audit::AuditOptions options;
  options.minimize_batch = false;
  options.per_query_verdicts = false;
  // Pin DATA-INTERVAL to a single version so the measured difference is
  // purely the per-query snapshot (cache) cost.
  const std::string audit_text =
      "DURING 1/1/1970 to 2/1/1970 "
      "DATA-INTERVAL 1/1/1970:00-08-20 to 1/1/1970:00-08-20 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  for (auto _ : state) {
    auto report = auditor.Audit(audit_text, Ts(1000000), options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(shared_state ? "one-shared-state" : "state-per-query");
}
BENCHMARK(BM_AuditSnapshotLocality)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
