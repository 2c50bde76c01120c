#include "driver/world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "src/audit/audit_parser.h"
#include "src/audit/candidate.h"
#include "src/common/random.h"
#include "src/engine/executor.h"
#include "src/sql/parser.h"

namespace perfbench {

namespace {

Timestamp Seconds(double s) {
  return Timestamp(static_cast<int64_t>(s * 1e6));
}

/// Independent sub-seeds, so changing how one input is drawn never
/// shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// Result rows per candidate query and patient that the generated log
/// is held to (about what the unconstrained generator averages).
constexpr double kRowsPerCandidatePerPatient = 0.15;

/// Fills the log with generated queries (the workload generator's
/// GenerateQueryText, sensitive fraction 0.4) such that exactly
/// `spec.candidates` of them are batch candidates of the canonical
/// audit, at seeded positions, and the candidates' result rows on the
/// loaded database track a fixed total. Audit cost grows with both
/// (minimization is quadratic in the candidate count and linear in their
/// lineage), so holding them keeps seeds comparable while every query
/// text and annotation still comes from the seed.
Status GenerateStratifiedLog(World* world, const WorldSpec& spec) {
  const workload::WorkloadConfig& config = world->workload;
  Random rng(config.seed);
  auto parsed = audit::ParseAudit(CanonicalAudit(), AuditNow());
  if (!parsed.ok()) return parsed.status();
  DatabaseView view = world->db.Snapshot();
  AUDITDB_RETURN_IF_ERROR(parsed->Qualify(view.catalog()));

  const size_t candidates = std::min(spec.candidates, spec.queries);
  std::vector<char> is_candidate(spec.queries, 0);
  std::fill_n(is_candidate.begin(), candidates, 1);
  for (size_t i = is_candidate.size(); i > 1; --i) {
    std::swap(is_candidate[i - 1], is_candidate[rng.Uniform(i)]);
  }
  const double rows_each =
      kRowsPerCandidatePerPatient * static_cast<double>(spec.patients);
  const double slack = 3 * rows_each;
  double rows_so_far = 0;
  size_t candidates_so_far = 0;

  Timestamp ts = config.start;
  for (char want : is_candidate) {
    for (int attempt = 0;; ++attempt) {
      if (attempt == 10000) {
        return Status::Internal("generator never produced a wanted query");
      }
      std::string sql =
          workload::GenerateQueryText(rng.Next(), config, world->hospital);
      auto stmt = sql::ParseSelect(sql);
      if (!stmt.ok()) return stmt.status();
      auto candidate =
          audit::IsBatchCandidate(*stmt, *parsed, view.catalog());
      if (!candidate.ok()) return candidate.status();
      if (*candidate != static_cast<bool>(want)) continue;
      if (want) {
        // Keep the running row total within `slack` of its even share
        // (after 100 tries, take whatever comes).
        auto result = Execute(*stmt, view);
        if (!result.ok()) return result.status();
        double rows = static_cast<double>(result->rows.size());
        double due = rows_each * static_cast<double>(candidates_so_far + 1);
        if (std::abs(rows_so_far + rows - due) > slack && attempt < 100) {
          continue;
        }
        rows_so_far += rows;
        ++candidates_so_far;
      }
      world->log.Append(std::move(sql), ts,
                        config.users[rng.Uniform(config.users.size())],
                        config.roles[rng.Uniform(config.roles.size())],
                        config.purposes[rng.Uniform(config.purposes.size())]);
      break;
    }
    ts = ts.AddMicros(config.spacing_micros);
  }
  return Status::Ok();
}

}  // namespace

std::unique_ptr<World> BuildWorld(const WorldSpec& spec, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->backlog.Attach(&world->db);
  world->hospital.num_patients = spec.patients;
  world->hospital.seed = seed;
  Status populated =
      workload::PopulateHospital(&world->db, world->hospital, Seconds(1));
  if (!populated.ok()) {
    std::fprintf(stderr, "populate: %s\n", populated.ToString().c_str());
    return nullptr;
  }
  world->workload.num_queries = spec.queries;
  world->workload.seed = SubSeed(seed, 1);
  world->workload.start = Seconds(100);
  world->workload.sensitive_fraction = 0.4;
  Status generated = GenerateStratifiedLog(world.get(), spec);
  if (!generated.ok()) {
    std::fprintf(stderr, "workload: %s\n", generated.ToString().c_str());
    return nullptr;
  }
  if (spec.churn_updates > 0) {
    workload::ChurnConfig churn;
    churn.num_updates = spec.churn_updates;
    churn.seed = SubSeed(seed, 2);
    churn.start = Seconds(100.5);
    churn.spacing_micros = 5000000;
    Status churned =
        workload::GenerateChurn(&world->db, churn, world->hospital);
    if (!churned.ok()) {
      std::fprintf(stderr, "churn: %s\n", churned.ToString().c_str());
      return nullptr;
    }
  }
  return world;
}

std::string CanonicalAudit() {
  return "DURING 1/1/1970 to 2/1/1970 "
         "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
         "AUDIT (name,disease) FROM P-Personal, P-Health "
         "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
}

Timestamp AuditNow() { return Seconds(1000000); }

Timestamp ServedStamp(uint64_t i) {
  return Seconds(200000).AddMicros(static_cast<int64_t>(i) * 1000);
}

std::vector<WriteOp> MakeWriteStream(const World& world, uint64_t seed,
                                     size_t count, size_t push_reads) {
  static const char* kUsers[] = {"alice", "bob", "carol", "dave", "eve"};
  static const char* kRoles[] = {"doctor", "nurse", "clerk", "analyst"};
  static const char* kPurposes[] = {"treatment", "billing", "research"};
  Random rng(SubSeed(seed, 3));

  // Distinct patients in a seeded order: every push read is a first
  // read of its patient, so it moves each push-driver expression.
  std::vector<size_t> patients(world.hospital.num_patients);
  std::iota(patients.begin(), patients.end(), size_t{1});
  for (size_t i = patients.size(); i > 1; --i) {
    std::swap(patients[i - 1], patients[rng.Uniform(i)]);
  }
  push_reads = std::min({push_reads, patients.size(), count});
  size_t stride = push_reads == 0 ? 0 : count / push_reads;

  std::vector<WriteOp> ops;
  ops.reserve(count);
  size_t next_push = 0;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    if (next_push < push_reads && i == next_push * stride + stride / 2) {
      op.sql = "SELECT pres-drugs, doc-name FROM P-Health WHERE pid = 'p" +
               std::to_string(patients[next_push]) + "'";
      op.user = "pager";
      op.role = "nurse";
      op.purpose = "treatment";
      op.push_driver = true;
      ++next_push;
    } else {
      op.sql = workload::GenerateQueryText(rng.Next(), world.workload,
                                           world.hospital);
      op.user = kUsers[rng.Uniform(std::size(kUsers))];
      op.role = kRoles[rng.Uniform(std::size(kRoles))];
      op.purpose = kPurposes[rng.Uniform(std::size(kPurposes))];
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

StandingSet MakeStandingExpressions(const World& world, uint64_t seed) {
  Random rng(SubSeed(seed, 4));
  const auto& h = world.hospital;
  auto zip = [&] {
    return "1" + std::to_string(10000 + rng.Uniform(h.num_zipcodes));
  };
  // A zipcode some patient has: a drawn one can be empty in a small
  // hospital, and an expression over it would never fire.
  auto lived_in_zip = [&] {
    std::string pid = "p" + std::to_string(1 + rng.Uniform(h.num_patients));
    auto stmt = sql::ParseSelect(
        "SELECT zipcode FROM P-Personal WHERE pid = '" + pid + "'");
    if (stmt.ok()) {
      DatabaseView view = world.db.Snapshot();
      auto result = Execute(*stmt, view);
      if (result.ok() && !result->rows.empty() &&
          result->rows[0][0].type() == ValueType::kString) {
        return result->rows[0][0].string_value();
      }
    }
    return zip();
  };
  auto ward = [&] { return "W" + std::to_string(1 + rng.Uniform(h.num_wards)); };
  static const char* kDiseases[] = {"diabetic", "flu", "malaria", "asthma"};
  const std::string during = "DURING 1/1/1970 to 1/1/1990 ";

  StandingSet set;
  // Push drivers: THRESHOLD ALL over columns only push reads touch, so
  // each first read of a patient moves their rank without ever firing
  // (a run reads far fewer patients than the table holds).
  set.texts = {
      during + "THRESHOLD ALL AUDIT (pres-drugs) FROM P-Health",
      during + "THRESHOLD ALL AUDIT (doc-name) FROM P-Health",
      during + "THRESHOLD ALL AUDIT (pres-drugs,doc-name) FROM P-Health",
      during + "THRESHOLD ALL AUDIT (doc-name),[pres-drugs] FROM P-Health",
      "Pos-User-Identity pager " + during +
          "THRESHOLD ALL AUDIT (pres-drugs) FROM P-Health",
  };
  set.push_drivers = set.texts.size();
  // Fast firers: low thresholds over columns the generated stream reads.
  std::vector<std::string> fast = {
      during + "AUDIT (disease) FROM P-Health WHERE disease='" +
          kDiseases[rng.Uniform(std::size(kDiseases))] + "'",
      during + "THRESHOLD 2 AUDIT (name,disease) FROM P-Personal, P-Health "
               "WHERE P-Personal.pid = P-Health.pid",
      during + "AUDIT (salary) FROM P-Employ",
      during + "AUDIT (employer),[salary] FROM P-Employ",
      during + "AUDIT (zipcode) FROM P-Personal WHERE zipcode='" +
          lived_in_zip() + "'",
      during + "AUDIT (ward) FROM P-Health WHERE ward='" + ward() + "'",
      "Pos-Role-Purpose (doctor,-) " + during +
          "AUDIT (disease) FROM P-Health",
      during + "THRESHOLD 3 AUDIT (age) FROM P-Personal WHERE age > " +
          std::to_string(rng.UniformInt(20, 60)),
  };
  for (auto& text : fast) {
    set.fast_firing.push_back(set.texts.size());
    set.texts.push_back(std::move(text));
  }
  // Never admitted: limiting parameters reject every served write, so
  // they cost only the index lookup and the admission check.
  set.texts.push_back(
      "Neg-User-Identity alice bob carol dave eve pager " + during +
      "THRESHOLD ALL AUDIT (name) FROM P-Personal");
  set.texts.push_back(
      "DURING 1/1/1970 to 2/1/1970 AUDIT (name,disease) FROM P-Personal, "
      "P-Health WHERE P-Personal.pid = P-Health.pid AND zipcode='" +
      zip() + "'");
  set.texts.push_back("Pos-Role-Purpose (auditor,-) " + during +
                      "AUDIT (salary) FROM P-Employ WHERE salary > " +
                      std::to_string(rng.UniformInt(h.min_salary,
                                                    h.max_salary)));
  return set;
}

}  // namespace perfbench
