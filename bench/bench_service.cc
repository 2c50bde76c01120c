/// Experiment S1: concurrent audit service thread scaling.
///
/// End-to-end parallel audit wall time vs worker count (1 →
/// hardware_concurrency) on the generated hospital workload, against the
/// serial Auditor baseline; every parallel report is checked
/// byte-identical (CanonicalString) to the serial one. Also sweeps the
/// admission policy (block vs reject under a tiny queue) to measure the
/// cost of load-shedding, and library screening along the expression
/// axis. The custom main prints the scaling table and the service
/// metrics JSON before handing over to the registered benchmarks.
///
/// Run: build/bench/bench_service

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/service/audit_service.h"

namespace {

using namespace auditdb;
using bench::Ts;

constexpr size_t kPatients = 300;
constexpr size_t kLogSize = 3000;

service::AuditServiceOptions ServiceOptions(size_t threads) {
  service::AuditServiceOptions options;
  options.pool.num_threads = threads;
  return options;
}

void BM_ServiceThreads(benchmark::State& state) {
  auto world = bench::MakeWorld(kPatients, kLogSize);
  service::AuditService audit_service(
      &world->db, &world->backlog, &world->log,
      ServiceOptions(static_cast<size_t>(state.range(0))));
  audit::AuditOptions options;
  options.minimize_batch = false;
  for (auto _ : state) {
    auto report = audit_service.Audit(bench::CanonicalAudit(), Ts(1000000),
                                      options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogSize));
}
BENCHMARK(BM_ServiceThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SerialBaseline(benchmark::State& state) {
  auto world = bench::MakeWorld(kPatients, kLogSize);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.minimize_batch = false;
  for (auto _ : state) {
    auto report = auditor.Audit(bench::CanonicalAudit(), Ts(1000000),
                                options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogSize));
}
BENCHMARK(BM_SerialBaseline)->Unit(benchmark::kMillisecond);

/// Admission-policy ablation: a tiny queue under kReject sheds to inline
/// execution on the auditing thread; kBlock stalls producers instead.
void BM_ServiceAdmission(benchmark::State& state) {
  auto world = bench::MakeWorld(kPatients, /*queries=*/1000);
  service::AuditServiceOptions options = ServiceOptions(4);
  options.pool.queue_capacity = static_cast<size_t>(state.range(0));
  options.pool.admission = state.range(1) != 0
                               ? service::AdmissionPolicy::kReject
                               : service::AdmissionPolicy::kBlock;
  service::AuditService audit_service(&world->db, &world->backlog,
                                      &world->log, options);
  audit::AuditOptions audit_options;
  audit_options.minimize_batch = false;
  for (auto _ : state) {
    auto report = audit_service.Audit(bench::CanonicalAudit(), Ts(1000000),
                                      audit_options);
    if (!report.ok()) std::abort();
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(state.range(1) != 0 ? "reject" : "block");
}
BENCHMARK(BM_ServiceAdmission)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({256, 0})
    ->Unit(benchmark::kMillisecond);

/// Expression-axis scaling: screening a standing library, one job per
/// expression.
void BM_ServiceLibraryScreen(benchmark::State& state) {
  auto world = bench::MakeWorld(kPatients, /*queries=*/1000);
  audit::ExpressionLibrary library(&world->db.catalog());
  const char* standing[] = {
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,salary) FROM P-Personal, P-Employ "
      "WHERE P-Personal.pid = P-Employ.pid",
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "THRESHOLD 5 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid",
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (ward),[disease] FROM P-Health",
  };
  for (const char* text : standing) {
    auto expr = audit::ParseAudit(text, Ts(1000000));
    if (!expr.ok()) std::abort();
    if (!library.Add(*expr).ok()) std::abort();
  }
  service::AuditService audit_service(
      &world->db, &world->backlog, &world->log,
      ServiceOptions(static_cast<size_t>(state.range(0))));
  audit::AuditOptions options;
  options.minimize_batch = false;
  for (auto _ : state) {
    auto screenings = audit_service.ScreenLibrary(library, options);
    benchmark::DoNotOptimize(screenings);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(library.size()));
}
BENCHMARK(BM_ServiceLibraryScreen)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// One timed run at each thread count, with determinism checks and the
/// service metrics JSON — the acceptance artifact for the service layer.
void PrintScalingTable() {
  auto world = bench::MakeWorld(kPatients, kLogSize);
  audit::Auditor auditor(&world->db, &world->backlog, &world->log);
  audit::AuditOptions options;
  options.minimize_batch = false;

  using Clock = std::chrono::steady_clock;
  auto serial_start = Clock::now();
  auto serial = auditor.Audit(bench::CanonicalAudit(), Ts(1000000), options);
  double serial_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - serial_start)
          .count();
  if (!serial.ok()) std::abort();
  std::printf("=== service thread scaling (%zu patients, %zu queries) ===\n",
              kPatients, kLogSize);
  std::printf("  serial          %8.1f ms   (baseline)\n", serial_ms);

  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  std::string metrics_json;
  for (size_t threads = 1; threads <= hw; threads *= 2) {
    service::AuditService audit_service(&world->db, &world->backlog,
                                        &world->log,
                                        ServiceOptions(threads));
    auto start = Clock::now();
    auto report = audit_service.Audit(bench::CanonicalAudit(), Ts(1000000),
                                      options);
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!report.ok()) std::abort();
    bool identical =
        report->CanonicalString() == serial->CanonicalString();
    std::printf("  %2zu thread%s      %8.1f ms   speedup %4.2fx   %s\n",
                threads, threads == 1 ? " " : "s", ms, serial_ms / ms,
                identical ? "output identical" : "OUTPUT DIFFERS (bug!)");
    if (!identical) std::abort();
    if (threads * 2 > hw) metrics_json = audit_service.MetricsJson();
  }
  std::printf("metrics: %s\n\n", metrics_json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  PrintScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
