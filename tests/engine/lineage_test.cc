#include "src/engine/lineage.h"

#include <gtest/gtest.h>

#include "src/workload/hospital.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  AccessProfile MustProfile(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto profile = ComputeAccessProfile(*stmt, db_.View());
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
    return std::move(*profile);
  }

  Database db_;
};

TEST_F(LineageTest, AccessedVsOutputColumns) {
  auto profile =
      MustProfile("SELECT zipcode FROM P-Personal WHERE name = 'Jane'");
  EXPECT_TRUE(profile.Outputs(ColumnRef{"P-Personal", "zipcode"}));
  EXPECT_FALSE(profile.Outputs(ColumnRef{"P-Personal", "name"}));
  // C_Q includes predicate columns.
  EXPECT_TRUE(profile.Accesses(ColumnRef{"P-Personal", "name"}));
  EXPECT_TRUE(profile.Accesses(ColumnRef{"P-Personal", "zipcode"}));
  EXPECT_FALSE(profile.Accesses(ColumnRef{"P-Personal", "age"}));
}

TEST_F(LineageTest, StarExpandsToAllColumns) {
  auto profile = MustProfile("SELECT * FROM P-Employ");
  EXPECT_TRUE(profile.Outputs(ColumnRef{"P-Employ", "pid"}));
  EXPECT_TRUE(profile.Outputs(ColumnRef{"P-Employ", "employer"}));
  EXPECT_TRUE(profile.Outputs(ColumnRef{"P-Employ", "salary"}));
  EXPECT_EQ(profile.output_columns.size(), 3u);
}

TEST_F(LineageTest, JoinProfileSpansTables) {
  auto profile = MustProfile(
      "SELECT name FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'");
  EXPECT_TRUE(profile.Accesses(ColumnRef{"P-Health", "disease"}));
  EXPECT_TRUE(profile.Accesses(ColumnRef{"P-Health", "pid"}));
  EXPECT_TRUE(profile.Accesses(ColumnRef{"P-Personal", "pid"}));
  auto personal = profile.result.IndispensableTidBitmap("P-Personal");
  auto health = profile.result.IndispensableTidBitmap("P-Health");
  ASSERT_TRUE(personal.ok() && health.ok());
  EXPECT_EQ(personal->ToVector(), (std::vector<Tid>{12, 14}));
  EXPECT_EQ(health->ToVector(), (std::vector<Tid>{22, 24}));
}

TEST_F(LineageTest, PaperSuspicionExample) {
  // Section 2.1: "SELECT zipcode FROM Patients WHERE disease='cancer'" is
  // suspicious iff a cancer patient lives in the audited area. Our schema
  // splits person and health, so join the two: no cancer patients exist,
  // so nothing is indispensable.
  auto profile = MustProfile(
      "SELECT zipcode FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'cancer'");
  EXPECT_TRUE(profile.result.rows.empty());
  auto personal = profile.result.IndispensableTidBitmap("P-Personal");
  ASSERT_TRUE(personal.ok());
  EXPECT_TRUE(personal->Empty());
}

}  // namespace
}  // namespace auditdb
