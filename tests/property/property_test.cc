/// Property-based differential tests of core invariants:
///   - the executor against a brute-force cross-product reference
///     (rows, lineage and row order);
///   - backlog snapshots against a naive replay model;
///   - granule enumeration against the closed-form count;
///   - monotonicity of batch suspicion (adding queries never clears).

#include <gtest/gtest.h>

#include <map>

#include "src/audit/audit_parser.h"
#include "src/audit/suspicion.h"
#include "src/backlog/backlog.h"
#include "src/common/random.h"
#include "src/engine/executor.h"
#include "src/workload/hospital.h"
#include "tests/engine/executor_reference.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

// ---------------------------------------------------------------------
// Executor vs brute force.

/// Builds a database with tables T0(a,b), T1(c,d), T2(e) filled with
/// random small integers. About 20% of the T0.a and T1.c cells are NULL:
/// a hash join groups every NULL key in one bucket, so an equi-join
/// between those columns must still reject NULL = NULL pairs.
void BuildRandomDb(Random& rng, Database* db, size_t rows_per_table) {
  ASSERT_TRUE(db->CreateTable(TableSchema("T0", {{"a", ValueType::kInt},
                                                 {"b", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db->CreateTable(TableSchema("T1", {{"c", ValueType::kInt},
                                                 {"d", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(
      db->CreateTable(TableSchema("T2", {{"e", ValueType::kInt}})).ok());
  auto maybe_null = [&rng]() {
    Value v = Value::Int(rng.UniformInt(0, 4));
    return rng.OneIn(0.2) ? Value::Null() : v;
  };
  for (size_t i = 0; i < rows_per_table; ++i) {
    ASSERT_TRUE(db->Insert("T0",
                           {maybe_null(), Value::Int(rng.UniformInt(0, 4))},
                           Ts(1))
                    .ok());
    ASSERT_TRUE(db->Insert("T1",
                           {maybe_null(), Value::Int(rng.UniformInt(0, 4))},
                           Ts(1))
                    .ok());
    ASSERT_TRUE(
        db->Insert("T2", {Value::Int(rng.UniformInt(0, 4))}, Ts(1)).ok());
  }
}

/// Random SPJ statement over 1-3 of the test tables.
sql::SelectStatement RandomQuery(Random& rng) {
  static const struct {
    const char* table;
    const char* cols[2];
    int ncols;
  } kTables[] = {
      {"T0", {"a", "b"}, 2}, {"T1", {"c", "d"}, 2}, {"T2", {"e", ""}, 1}};

  sql::SelectStatement stmt;
  size_t ntables = 1 + rng.Uniform(3);
  std::vector<int> chosen;
  for (int t = 0; t < 3 && chosen.size() < ntables; ++t) {
    if (rng.OneIn(0.7) || 3 - t == static_cast<int>(ntables - chosen.size())) {
      chosen.push_back(t);
    }
  }
  for (int t : chosen) stmt.from.push_back(kTables[t].table);

  // Projection: 1-3 random columns from the chosen tables.
  size_t nproj = 1 + rng.Uniform(3);
  for (size_t i = 0; i < nproj; ++i) {
    int t = chosen[rng.Uniform(chosen.size())];
    const auto& info = kTables[t];
    stmt.select_list.push_back(ColumnRef{
        info.table,
        info.cols[rng.Uniform(static_cast<uint64_t>(info.ncols))]});
  }

  // Predicate: 0-3 atoms ANDed (col-lit comparisons or equijoins).
  std::vector<ExprPtr> atoms;
  size_t natoms = rng.Uniform(4);
  const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kGe};
  for (size_t i = 0; i < natoms; ++i) {
    int t = chosen[rng.Uniform(chosen.size())];
    const auto& info = kTables[t];
    ColumnRef left{info.table,
                   info.cols[rng.Uniform(static_cast<uint64_t>(info.ncols))]};
    if (chosen.size() >= 2 && rng.OneIn(0.4)) {
      int t2 = chosen[rng.Uniform(chosen.size())];
      if (t2 != t) {
        const auto& info2 = kTables[t2];
        atoms.push_back(Expression::MakeColumnEq(
            left, ColumnRef{info2.table,
                            info2.cols[rng.Uniform(
                                static_cast<uint64_t>(info2.ncols))]}));
        continue;
      }
    }
    atoms.push_back(Expression::MakeComparison(
        left, kOps[rng.Uniform(4)], Value::Int(rng.UniformInt(0, 4))));
  }
  stmt.where = Expression::MakeConjunction(std::move(atoms));
  return stmt;
}

class ExecutorDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorDifferential, MatchesBruteForce) {
  Random rng(GetParam());
  Database db;
  BuildRandomDb(rng, &db, 4 + rng.Uniform(3));
  auto view = db.View();

  for (int i = 0; i < 25; ++i) {
    sql::SelectStatement stmt = RandomQuery(rng);
    auto slow = BruteForce(stmt, view);
    ASSERT_TRUE(slow.ok());
    auto fast = Execute(stmt, view);
    ASSERT_TRUE(fast.ok()) << stmt.ToString() << " -> "
                           << fast.status().ToString();
    EXPECT_EQ(fast->from, stmt.from);
    EXPECT_EQ(fast->columns, slow->columns) << stmt.ToString();
    EXPECT_EQ(fast->rows, slow->rows) << stmt.ToString();
    EXPECT_EQ(fast->lineage, slow->lineage) << stmt.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential,
                         ::testing::Range<uint64_t>(1, 16));

// ---------------------------------------------------------------------
// Backlog snapshots vs a naive replay model.

class BacklogDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BacklogDifferential, SnapshotsMatchModel) {
  Random rng(GetParam());
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(
      db.CreateTable(TableSchema("T", {{"v", ValueType::kInt}})).ok());

  // Model: time -> (tid -> value) maps, recorded after every operation.
  std::map<Tid, int64_t> model;
  std::vector<std::pair<Timestamp, std::map<Tid, int64_t>>> history;
  std::vector<Tid> live;

  for (int64_t step = 1; step <= 60; ++step) {
    Timestamp at = Ts(step);
    double dice = rng.UniformDouble();
    if (live.empty() || dice < 0.5) {
      int64_t value = rng.UniformInt(0, 99);
      auto tid = db.Insert("T", {Value::Int(value)}, at);
      ASSERT_TRUE(tid.ok());
      model[*tid] = value;
      live.push_back(*tid);
    } else if (dice < 0.8) {
      Tid tid = live[rng.Uniform(live.size())];
      int64_t value = rng.UniformInt(0, 99);
      ASSERT_TRUE(db.Update("T", tid, {Value::Int(value)}, at).ok());
      model[tid] = value;
    } else {
      size_t pick = rng.Uniform(live.size());
      Tid tid = live[pick];
      ASSERT_TRUE(db.Delete("T", tid, at).ok());
      model.erase(tid);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    history.emplace_back(at, model);
  }

  // Check snapshots at every recorded instant plus in-between times.
  for (const auto& [at, expected] : history) {
    for (Timestamp t : {at, at.AddMicros(500000)}) {
      auto snapshot = backlog.SnapshotAt(t);
      ASSERT_TRUE(snapshot.ok());
      auto table = snapshot->GetTable("T");
      ASSERT_TRUE(table.ok());
      std::map<Tid, int64_t> actual;
      for (const auto& row : (*table)->rows()) {
        actual[row.tid] = row.values[0].int_value();
      }
      EXPECT_EQ(actual, expected) << "at " << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BacklogDifferential,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------
// Granule enumeration vs closed-form count.

class GranuleCountProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GranuleCountProperty, ForEachAgreesWithCount) {
  Random rng(GetParam());
  Database db;
  workload::HospitalConfig config;
  config.num_patients = 5 + rng.Uniform(10);
  config.seed = GetParam();
  config.null_age_fraction = 0.2;  // exercise NULL-cell exclusion
  ASSERT_TRUE(workload::PopulateHospital(&db, config, Ts(1)).ok());

  const char* kAuditLists[] = {"(name)", "[name,age]", "(name,age)",
                               "[name],[age,zipcode]"};
  std::string text =
      "THRESHOLD " + std::to_string(1 + rng.Uniform(3)) + " AUDIT " +
      kAuditLists[rng.Uniform(4)] + " FROM P-Personal";
  auto expr = audit::ParseAudit(text, Ts(1000));
  ASSERT_TRUE(expr.ok()) << text;
  ASSERT_TRUE(expr->Qualify(db.catalog()).ok());
  auto view = audit::ComputeTargetView(*expr, db.View(), Ts(1));
  ASSERT_TRUE(view.ok());

  audit::GranuleEnumerator g(*view, audit::BuildSchemes(*expr),
                             expr->threshold);
  size_t k = static_cast<size_t>(expr->threshold.n);
  uint64_t visited = g.ForEach([&](const audit::Granule& granule) {
    EXPECT_EQ(granule.fact_indices.size(), k);
    // Facts within a granule are distinct and valid for the scheme.
    std::set<size_t> unique(granule.fact_indices.begin(),
                            granule.fact_indices.end());
    EXPECT_EQ(unique.size(), k);
    return true;
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(visited), g.CountGranules()) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GranuleCountProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Batch suspicion is monotone in the batch.

class SuspicionMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SuspicionMonotonicity, AddingQueriesNeverClears) {
  Random rng(GetParam());
  Database db;
  ASSERT_TRUE(workload::BuildPaperDatabase(&db, Ts(1)).ok());

  auto expr = audit::ParseAudit(
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      Ts(1000));
  ASSERT_TRUE(expr.ok());
  ASSERT_TRUE(expr->Qualify(db.catalog()).ok());
  auto view = audit::ComputeTargetView(*expr, db.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto schemes = audit::BuildSchemes(*expr);

  const char* kPool[] = {
      "SELECT name FROM P-Personal WHERE zipcode='145568'",
      "SELECT disease FROM P-Health WHERE disease='diabetic'",
      "SELECT ward FROM P-Health",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='177893'",
      "SELECT salary FROM P-Employ WHERE salary > 10000",
      "SELECT name, address FROM P-Personal WHERE age < 30",
  };

  std::vector<AccessProfile> profiles;
  for (int i = 0; i < 6; ++i) {
    auto stmt = sql::ParseSelect(kPool[rng.Uniform(std::size(kPool))]);
    ASSERT_TRUE(stmt.ok());
    auto profile = ComputeAccessProfile(*stmt, db.View());
    ASSERT_TRUE(profile.ok());
    profiles.push_back(std::move(*profile));
  }

  bool was_suspicious = false;
  std::vector<const AccessProfile*> batch;
  for (const auto& profile : profiles) {
    batch.push_back(&profile);
    auto result = audit::CheckBatchSuspicion(
        *view, schemes, expr->threshold, expr->indispensable, batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (was_suspicious) {
      EXPECT_TRUE(result->suspicious) << "batch size " << batch.size();
    }
    was_suspicious = result->suspicious;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuspicionMonotonicity,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace auditdb
