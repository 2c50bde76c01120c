/// perfbench: the repository benchmark's driver.
///
///   perfbench --workload <single_state|versioned> --seed N --seconds S
///             --trace <0|1> --scratch DIR [--trace-out FILE]
///             [--corrupt-reference]
///
/// One run sets up the workload's world three times (setup_s is the
/// median), then measures, in order: serial offline audits, served
/// audits beside a slow writer, open-loop and closed-loop served writes
/// with a push subscriber. Every output is checked; the last stdout line
/// is one JSON object {"correct", "attempted", "failed", "metrics"} with
/// the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Exit code 0 iff every check passed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "driver/bench.h"

namespace perfbench {
namespace {

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"single_state", WorldSpec{1000, 1000, 350, 0}, /*write_rate=*/450,
       /*mixed_write_rate=*/120, /*push_reads=*/250},
      {"versioned", WorldSpec{300, 1000, 350, 200}, /*write_rate=*/800,
       /*mixed_write_rate=*/120, /*push_reads=*/240},
  };
  for (const auto& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

/// The metrics the last line carries, per mode (BENCHMARK.json's
/// end_to_end and per_layer lists).
const std::set<std::string>& EndToEndNames() {
  static const std::set<std::string> kNames = {
      "setup_s",           "audit_mean_ms", "audit_p90_ms",
      "mixed_audit_p50_ms", "mixed_audit_p90_ms", "push_p50_us",
      "peak_rss_mb"};
  return kNames;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  std::string trace_out;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else if (flag == "--workload" && (v = value())) {
      args->workload = v;
    } else if (flag == "--seed" && (v = value())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds" && (v = value())) {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace" && (v = value())) {
      args->trace = std::atoi(v);
    } else if (flag == "--scratch" && (v = value())) {
      args->scratch = v;
    } else if (flag == "--trace-out" && (v = value())) {
      args->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->scratch.empty();
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const Report& report, bool trace) {
  std::printf("%-34s %14s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : report.metrics()) {
    std::printf("%-34s %14.4f  %-6s %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.samples > 0 ? std::to_string(m.samples).c_str() : "-",
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  double error_rate =
      report.attempted() == 0
          ? 0.0
          : static_cast<double>(report.failed()) / report.attempted();
  std::printf("%-34s %14.6f  %-6s %llu attempted, %llu failed\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  for (const auto& what : report.mismatches()) {
    std::printf("MISMATCH: %s\n", what.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    if ((EndToEndNames().count(m.name) > 0) == trace) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Report report;
  Tracer tracer;
  ServedOptions served_options;
  served_options.workload = *spec;
  served_options.seed = args.seed;
  served_options.plan = PhasePlan::For(args.seconds);
  served_options.trace = args.trace == 1;
  served_options.tracer = &tracer;

  // Set-up, three times; the last one is kept and measured.
  Samples setup_s;
  std::unique_ptr<World> world;
  std::string reference;
  ServedRunPtr served;
  for (int rep = 0; rep < 3; ++rep) {
    served.reset();
    world.reset();
    Clock::time_point t0 = Clock::now();
    world = BuildWorld(spec->world, args.seed);
    if (world == nullptr) return 1;
    reference = ReferenceAudit(*world);
    if (reference.empty()) return 1;
    if (args.corrupt_reference) reference += "corrupted\n";
    served_options.scratch_dir =
        args.scratch + "/setup" + std::to_string(rep);
    served = SetUpServed(served_options, reference, &report);
    if (served == nullptr) break;
    setup_s.Add(MicrosBetween(t0, Clock::now()) / 1e6);
  }
  if (served != nullptr) {
    report.AddPercentile("setup_s", setup_s, 0.5, "s");
    const PhasePlan& plan = served_options.plan;
    OfflineAudits offline(world.get(), reference,
                          args.trace == 1 ? &tracer : nullptr);
    for (int round = 0; round < plan.rounds; ++round) {
      offline.Round(plan.offline_s, &report);
      ServedRound(served.get(), &report);
    }
    offline.Finish(&report);
    FinishServed(served.get(), &report);
    served.reset();
    // The end-to-end times are reported at the reference host's speed;
    // the table keeps each measured value.
    report.ScaleToReferenceHost(
        {"setup_s", "audit_p50_ms", "audit_p90_ms", "audit_mean_ms",
         "mixed_audit_p50_ms", "mixed_audit_p90_ms", "push_p50_us"},
        offline.HostFactor());
  }
  if (report.failed() > 0) {
    report.Mismatch(std::to_string(report.failed()) + " operations failed");
  }
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  if (args.trace == 1 && !args.trace_out.empty() &&
      !tracer.WriteJsonLines(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  PrintResult(report, args.trace == 1);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--trace-out FILE] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  return perfbench::Run(args);
}
