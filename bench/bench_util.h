#ifndef AUDITDB_BENCH_BENCH_UTIL_H_
#define AUDITDB_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/service/metrics.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

/// Like BENCHMARK_MAIN(), but every run also writes a machine-readable
/// BENCH_<name>.json artifact (google-benchmark's JSON reporter) into the
/// working directory, so CI can diff numbers across runs. An explicit
/// --benchmark_out on the command line wins over the default.
#define AUDITDB_BENCH_MAIN(name)                                          \
  int main(int argc, char** argv) {                                       \
    std::vector<char*> args(argv, argv + argc);                           \
    std::string out_flag = "--benchmark_out=BENCH_" #name ".json";        \
    std::string format_flag = "--benchmark_out_format=json";              \
    bool has_out = false;                                                 \
    for (int i = 1; i < argc; ++i) {                                      \
      if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {       \
        has_out = true;                                                   \
      }                                                                   \
    }                                                                     \
    if (!has_out) {                                                       \
      args.push_back(out_flag.data());                                    \
      args.push_back(format_flag.data());                                 \
    }                                                                     \
    int num_args = static_cast<int>(args.size());                         \
    ::benchmark::Initialize(&num_args, args.data());                      \
    if (::benchmark::ReportUnrecognizedArguments(num_args, args.data())) {\
      return 1;                                                           \
    }                                                                     \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }                                                                       \
  int main(int, char**)

namespace auditdb {
namespace bench {

inline Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Writes `rows` to `path` as compact JSON in the {"benchmarks": [...]}
/// shape google-benchmark's BENCH_*.json artifacts share, so hand-built
/// sweeps pass the same CI checks. False when the file cannot be written.
inline bool WriteBenchmarksJson(const service::JsonArray& rows,
                                const char* path) {
  std::ofstream out(path);
  out << service::JsonObject().AddJson("benchmarks", rows.str()).str()
      << '\n';
  out.close();
  return !out.fail();
}

/// A ready-to-audit world: populated hospital, attached backlog, and a
/// generated query log.
struct World {
  Database db;
  Backlog backlog;
  QueryLog log;
  workload::HospitalConfig hospital;
  workload::WorkloadConfig workload;
};

/// Builds a world with `patients` rows per table and `queries` logged
/// queries. `sensitive_fraction` controls how many queries touch the
/// audit-relevant columns (the candidate-phase selectivity knob).
inline std::unique_ptr<World> MakeWorld(size_t patients, size_t queries,
                                        double sensitive_fraction = 0.4,
                                        uint64_t seed = 42) {
  auto world = std::make_unique<World>();
  world->backlog.Attach(&world->db);
  world->hospital.num_patients = patients;
  world->hospital.seed = seed;
  auto populated =
      workload::PopulateHospital(&world->db, world->hospital, Ts(1));
  if (!populated.ok()) std::abort();
  world->workload.num_queries = queries;
  world->workload.seed = seed * 7919;
  world->workload.start = Ts(100);
  world->workload.sensitive_fraction = sensitive_fraction;
  auto generated =
      workload::GenerateWorkload(&world->log, world->workload,
                                 world->hospital);
  if (!generated.ok()) std::abort();
  return world;
}

/// The canonical audit expression used across benches: diabetic patients'
/// identity+diagnosis, full-span intervals.
inline std::string CanonicalAudit() {
  return "DURING 1/1/1970 to 2/1/1970 "
         "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
         "AUDIT (name,disease) FROM P-Personal, P-Health "
         "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
}

}  // namespace bench
}  // namespace auditdb

#endif  // AUDITDB_BENCH_BENCH_UTIL_H_
