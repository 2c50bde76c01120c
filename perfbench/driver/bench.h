#ifndef AUDITDB_PERFBENCH_BENCH_H_
#define AUDITDB_PERFBENCH_BENCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver/stats.h"
#include "driver/trace.h"
#include "driver/world.h"

namespace perfbench {

/// One workload: the world every stage of a run works on, and the fixed
/// offered rates of its open-loop phases.
struct WorkloadSpec {
  std::string name;
  WorldSpec world;
  /// Open-loop rate of the served write phase (writes/s, both writers
  /// together): about a third of the closed-loop capacity on a 4-CPU
  /// box, so a slow spell of the host does not build a backlog.
  double write_rate = 0;
  /// Open-loop rate of the single writer beside the served audits.
  double mixed_write_rate = 0;
  /// Distinct-patient push reads in the open-loop write phase.
  size_t push_reads = 0;
};

/// Wall-clock budget of one run: `rounds` rounds, each running every
/// phase for the given seconds. Interleaving the phases makes a slow
/// spell of the host touch every metric a little instead of one metric
/// fully, and the medians absorb it.
struct PhasePlan {
  int rounds = 8;
  double offline_s = 0;
  double mixed_s = 0;
  double open_s = 0;
  double closed_s = 0;
  static PhasePlan For(double seconds) {
    PhasePlan plan;
    double round = seconds / plan.rounds;
    plan.offline_s = round * 0.50;
    plan.mixed_s = round * 0.30;
    plan.open_s = round * 0.15;
    plan.closed_s = round * 0.05;
    return plan;
  }
};

/// Collected metrics plus the correctness verdict of one run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    /// Samples behind the value (0 for counts and single readings).
    size_t samples = 0;
    std::string note;
  };

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "") {
    if (!std::isfinite(value)) {  // e.g. a percentile of no samples
      Mismatch(name + " has no value");
      value = 0;
    }
    metrics_.push_back(Metric{name, value, unit, samples, note});
  }
  /// A timing percentile: value plus how many samples lie beyond it.
  void AddPercentile(const std::string& name, const Samples& samples,
                     double q, const std::string& unit, double scale = 1.0) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%g of %zu samples, %zu beyond",
                  q * 100, samples.count(), samples.BeyondRank(q));
    Add(name, samples.Percentile(q) * scale, unit, samples.count(), note);
  }
  /// Median over rounds of each round's q-percentile: a slow spell of
  /// the host inflates one round's tail, not the reported value.
  void AddRoundPercentile(const std::string& name,
                          const std::vector<Samples>& rounds, double q,
                          const std::string& unit) {
    Samples per_round;
    size_t total = 0, fewest = rounds.empty() ? 0 : SIZE_MAX;
    for (const Samples& round : rounds) {
      if (round.empty()) continue;
      per_round.Add(round.Percentile(q));
      total += round.count();
      fewest = std::min(fewest, round.count());
    }
    char note[128];
    std::snprintf(note, sizeof(note),
                  "median over %zu rounds of p%g (>= %zu samples/round)",
                  per_round.count(), q * 100, fewest);
    Add(name, per_round.Median(), unit, total, note);
  }
  /// Multiplies the named metrics by `factor` (see
  /// OfflineAudits::HostFactor); the note keeps the measured value.
  void ScaleToReferenceHost(const std::set<std::string>& names,
                            double factor) {
    for (Metric& m : metrics_) {
      if (names.count(m.name) == 0) continue;
      char note[96];
      std::snprintf(note, sizeof(note), "; measured %.4f x host factor %.4f",
                    m.value, factor);
      m.note += note;
      m.value *= factor;
    }
  }
  /// Records a correctness failure; the run then exits non-zero.
  void Mismatch(const std::string& what) {
    if (std::find(mismatches_.begin(), mismatches_.end(), what) ==
        mismatches_.end()) {
      mismatches_.push_back(what);
    }
  }
  /// Operation accounting, summed over every operation type.
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  bool correct() const { return mismatches_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> mismatches_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The serial Auditor's CanonicalString of the canonical audit on
/// `world`; empty (with the error on stderr) when the audit fails.
std::string ReferenceAudit(const World& world);

/// Offline phase: the serial Auditor with default AuditOptions, closed
/// loop, one caller, every report checked against `reference`. Runs in
/// rounds interleaved with the served phases. With a tracer, each round
/// alternates the stage-by-stage driver (spans around each layer's
/// public functions, report checked too) with the untraced Auditor, so
/// the tracing overhead is measured in the same run.
class OfflineAudits {
 public:
  /// `world` must outlive this object and never change.
  OfflineAudits(const World* world, std::string reference, Tracer* tracer);
  void Round(double seconds, Report* report);
  /// kReferenceCalibrationMs over the median calibration time, taken
  /// after every untraced audit on the CPU it ran on: how much faster
  /// the reference host is than this one during this run.
  double HostFactor() const;
  /// bench.calibration_ms, and untraced: audit_p50_ms, audit_p90_ms,
  /// audit_mean_ms. Traced: the audit.* / backlog.* / engine.* per-layer
  /// metrics.
  void Finish(Report* report) const;

 private:
  const World* world_;
  std::string reference_;
  Tracer* tracer_;
  int64_t next_op_ = 0;
  size_t next_cpu_ = 0;
  Samples untraced_ms_, traced_ms_, calibration_ms_;
  Samples report_static_, report_view_, report_exec_, report_check_;
};

struct ServedOptions {
  WorkloadSpec workload;
  uint64_t seed = 0;
  PhasePlan plan;
  /// Directory for the durable stores (removed at the end).
  std::string scratch_dir;
  bool trace = false;
  Tracer* tracer = nullptr;
};

class ServedRun;
/// Destroying a served run shuts both servers down, joins every client
/// thread and removes the scratch stores.
struct ServedRunDeleter {
  void operator()(ServedRun* run) const;
};
using ServedRunPtr = std::unique_ptr<ServedRun, ServedRunDeleter>;

/// Builds both served stacks (each over its own world from the seed)
/// with durable stores, registers the subscriber's standing expressions
/// and warms up. Null on failure (recorded in `report`).
ServedRunPtr SetUpServed(const ServedOptions& options,
                         const std::string& reference, Report* report);
/// One round of the served phases: audits beside a slow writer on the
/// mixed stack, then open-loop and closed-loop writes with the
/// subscriber attached on the write stack.
void ServedRound(ServedRun* run, Report* report);
/// Reduces the accumulated samples to metrics and runs the final
/// correctness checks; in traced runs also the in-process replay.
void FinishServed(ServedRun* run, Report* report);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_BENCH_H_
