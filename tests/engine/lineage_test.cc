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
  EXPECT_EQ(profile.IndispensableTids("P-Personal").ToVector(),
            (std::vector<Tid>{12, 14}));
  EXPECT_EQ(profile.IndispensableTids("P-Health").ToVector(),
            (std::vector<Tid>{22, 24}));
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
  EXPECT_TRUE(profile.IndispensableTids("P-Personal").Empty());
}

// A ragged lineage cannot exist: the executor appends a whole row of
// FROM-width tids at a time, and a lineage built from per-row lists
// refuses any row of the wrong width, naming it. So suspicion checks
// and minimization need no ragged-row check of their own.
constexpr const char* kJoinQuery =
    "SELECT name, disease, address FROM P-Personal, P-Health "
    "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568' "
    "AND disease='diabetic'";

std::vector<std::vector<Tid>> RowsOf(const Lineage& lineage) {
  std::vector<std::vector<Tid>> rows;
  for (std::span<const Tid> row : lineage) {
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

TEST_F(LineageTest, WellFormedRowsRoundTrip) {
  auto profile = MustProfile(kJoinQuery);
  const Lineage& lineage = profile.result.lineage;
  ASSERT_EQ(lineage.width(), 2u);
  ASSERT_FALSE(lineage.empty());
  auto rebuilt = Lineage::FromRows(2, RowsOf(lineage));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, lineage);
  EXPECT_EQ(rebuilt->size(), lineage.size());
}

TEST_F(LineageTest, ShortRowIsRefused) {
  auto rows = RowsOf(MustProfile(kJoinQuery).result.lineage);
  ASSERT_FALSE(rows.empty());
  rows[0].pop_back();  // now shorter than FROM
  auto lineage = Lineage::FromRows(2, rows);
  ASSERT_FALSE(lineage.ok());
  EXPECT_EQ(lineage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(lineage.status().message().find("ragged lineage row 0"),
            std::string::npos)
      << lineage.status().ToString();
}

TEST_F(LineageTest, LongRowIsRefused) {
  auto rows = RowsOf(MustProfile(kJoinQuery).result.lineage);
  ASSERT_GE(rows.size(), 2u);
  rows.back().push_back(rows.back().back());  // now longer than FROM
  auto lineage = Lineage::FromRows(2, rows);
  ASSERT_FALSE(lineage.ok());
  EXPECT_NE(lineage.status().message().find(
                "ragged lineage row " + std::to_string(rows.size() - 1)),
            std::string::npos)
      << lineage.status().ToString();
}

TEST_F(LineageTest, RaggedRowErrorNamesTheRow) {
  auto lineage = Lineage::FromRows(2, {{11, 21}, {12, 22}, {}, {14}});
  ASSERT_FALSE(lineage.ok());
  EXPECT_EQ(lineage.status().ToString(),
            "InvalidArgument: ragged lineage row 2: 0 entries for width 2");
}

}  // namespace
}  // namespace auditdb
