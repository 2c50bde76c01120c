#ifndef AUDITDB_PERFBENCH_WORLD_H_
#define AUDITDB_PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/backlog/backlog.h"
#include "src/querylog/query_log.h"
#include "src/storage/database.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace perfbench {

using namespace auditdb;

/// The shape of one workload's world: hospital size, preloaded log, and
/// how many interleaved update-churn events create backlog versions.
struct WorldSpec {
  size_t patients = 1000;
  size_t queries = 1000;
  /// How many logged queries are batch candidates of the canonical
  /// audit (the rest are statically cleared).
  size_t candidates = 350;
  size_t churn_updates = 0;
};

/// Everything an audit reads, built deterministically from a seed: the
/// populated hospital with an attached backlog, a generated query log
/// (GenerateStratifiedLog in world.cc) stamped from 100 s, and (optionally) churn updates every five
/// seconds from 100.5 s, so they interleave with the logged queries
/// inside the canonical audit's DATA-INTERVAL.
struct World {
  Database db;
  Backlog backlog;
  QueryLog log;
  workload::HospitalConfig hospital;
  workload::WorkloadConfig workload;
};

/// Aborts-free builder: returns null (with a message on stderr) when the
/// library refuses the generated inputs.
std::unique_ptr<World> BuildWorld(const WorldSpec& spec, uint64_t seed);

/// The canonical audit of the repository's benches: diabetic patients'
/// identity and diagnosis over full-span DURING / DATA-INTERVAL windows
/// (1/1/1970 to 2/1/1970, i.e. the first 86400 s).
std::string CanonicalAudit();
/// The `now` anchor every audit in the benchmark is parsed at.
Timestamp AuditNow();

/// One write of a served stream: a SELECT plus its access annotations.
struct WriteOp {
  std::string sql;
  std::string user;
  std::string role;
  std::string purpose;
  /// A point read of a not-yet-read patient's pres-drugs and doc-name:
  /// moves every push-driver expression's rank by one fact.
  bool push_driver = false;
};

/// The served write stream: `count` generated workload SELECTs (the
/// same generator as the preloaded log, on a different seed), with
/// `push_reads` point reads of distinct patients spread evenly among
/// them.
std::vector<WriteOp> MakeWriteStream(const World& world, uint64_t seed,
                                     size_t count, size_t push_reads);

/// Standing expressions for the subscriber, derived from the seed.
struct StandingSet {
  std::vector<std::string> texts;
  /// Index range [0, push_drivers) never admits a generated query (they
  /// audit pres-drugs / doc-name, which the generator never touches);
  /// each push read moves every one of them.
  size_t push_drivers = 0;
  /// Expressions expected to fire during warm-up (cover columns the
  /// generated stream reads, at low thresholds).
  std::vector<size_t> fast_firing;
};
StandingSet MakeStandingExpressions(const World& world, uint64_t seed);

/// Timestamp of served write `i`: after the canonical audit's DURING
/// window (so served writes never enlarge the canonical audit) and
/// inside every standing expression's DURING window.
Timestamp ServedStamp(uint64_t i);

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_WORLD_H_
