/// Seeded property of the query log's per-shape memo: over generated
/// logs whose texts come in many layouts (query_shape_test's whitespace
/// and line-break sweep) and include texts that fail to parse or to
/// resolve, every entry's ParsedShape must hold what a fresh parse of
/// that entry's own text gives: the same statement under the SQL printer,
/// or no statement where the fresh parse fails (parse errors carry
/// layout-dependent offsets, so the memo keeps none), and static facts
/// equal to a fresh StaticAccessedColumns in both modes, Status
/// included. Entries are appended in shuffled order, so the text a shape
/// was first parsed from is usually another layout than the one checked.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/audit/candidate.h"
#include "src/querylog/query_log.h"
#include "src/sql/parser.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Re-lays `sql` out: every space outside a string literal becomes one
/// to three random blanks (space, tab or line break), and the text may
/// gain leading and trailing blanks. The token stream is unchanged.
std::string Relayout(const std::string& sql, std::mt19937* rng) {
  const char kBlanks[] = {' ', ' ', '\n', '\t'};
  auto blanks = [&] {
    std::string out;
    int n = static_cast<int>((*rng)() % 3) + 1;
    for (int i = 0; i < n; ++i) out += kBlanks[(*rng)() % 4];
    return out;
  };
  std::string out = (*rng)() % 3 == 0 ? blanks() : "";
  bool quoted = false;
  for (char c : sql) {
    if (c == '\'') quoted = !quoted;
    if (c == ' ' && !quoted) {
      out += blanks();
    } else {
      out += c;
    }
  }
  if ((*rng)() % 3 == 0) out += blanks();
  return out;
}

void ExpectSameColumns(const Result<std::set<ColumnRef>>& memoized,
                       const Result<std::set<ColumnRef>>& fresh,
                       const std::string& sql) {
  ASSERT_EQ(memoized.ok(), fresh.ok()) << sql;
  if (fresh.ok()) {
    EXPECT_EQ(*memoized, *fresh) << sql;
  } else {
    EXPECT_EQ(memoized.status(), fresh.status()) << sql;
  }
}

class ParsedShapeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParsedShapeProperty, EveryEntryMatchesAFreshParseOfItsText) {
  const uint64_t seed = GetParam();
  Database db;
  workload::HospitalConfig hospital;
  hospital.num_patients = 40;
  hospital.seed = seed;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
  const DatabaseView view = db.Snapshot();
  workload::WorkloadConfig config;
  config.seed = seed;

  std::mt19937 rng(static_cast<uint32_t>(seed * 2008 + 17));
  std::vector<std::string> bases;
  for (uint64_t i = 0; i < 60; ++i) {
    bases.push_back(
        workload::GenerateQueryText(seed * 1000 + i, config, hospital));
  }
  // Texts that fail to parse (a truncated generated query among them),
  // to lex, or to resolve against the catalog.
  bases.push_back("SELECT FROM");
  bases.push_back("SELECT !!! garbage ???");
  bases.push_back(bases[0].substr(0, bases[0].size() / 2));
  bases.push_back("SELECT name FROM P-Personal WHERE");
  bases.push_back("SELECT secret FROM NoSuchTable");
  bases.push_back("SELECT bogus FROM P-Personal WHERE zipcode = '145568'");
  bases.push_back("SELECT name FROM P-Personal WHERE bogus = 1");
  bases.push_back("SELECT * FROM P-Personal, NoSuchTable");

  std::vector<std::string> texts;
  for (const std::string& base : bases) {
    texts.push_back(base);
    int layouts = static_cast<int>(rng() % 4);
    for (int i = 0; i < layouts; ++i) texts.push_back(Relayout(base, &rng));
  }
  std::shuffle(texts.begin(), texts.end(), rng);

  QueryLog log;
  for (size_t i = 0; i < texts.size(); ++i) {
    log.Append(texts[i], Ts(static_cast<int64_t>(100 + i)), "alice",
               "doctor", "treatment");
  }
  ASSERT_LT(log.distinct_shapes(), log.size());

  size_t failed_parses = 0;
  size_t failed_facts = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    const LoggedQuery& entry = log.Entry(i);
    ASSERT_NE(entry.parsed, nullptr);
    auto memoized = entry.parsed->Statement(entry.sql);
    auto fresh = sql::ParseSelect(entry.sql);
    ASSERT_EQ(memoized != nullptr, fresh.ok()) << entry.sql;
    if (!fresh.ok()) {
      ++failed_parses;
      continue;
    }
    EXPECT_EQ(memoized->ToString(), fresh->ToString()) << entry.sql;

    auto facts = entry.parsed->Facts(
        view.database_id(), view.catalog_epoch(), [&] {
          return std::make_shared<const audit::StaticFacts>(
              audit::ComputeStaticFacts(*memoized, view.catalog()));
        });
    ExpectSameColumns(facts->accessed,
                      audit::StaticAccessedColumns(*fresh, view.catalog(),
                                                   /*outputs_only=*/false),
                      entry.sql);
    ExpectSameColumns(facts->outputs,
                      audit::StaticAccessedColumns(*fresh, view.catalog(),
                                                   /*outputs_only=*/true),
                      entry.sql);
    if (!facts->accessed.ok()) ++failed_facts;
  }
  // Both failure kinds were exercised, and every shape was parsed once.
  EXPECT_GT(failed_parses, 0u);
  EXPECT_GT(failed_facts, 0u);
  EXPECT_EQ(log.parsed_shapes(), log.distinct_shapes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParsedShapeProperty,
                         ::testing::Values(1, 2, 3, 42, 2008));

}  // namespace
}  // namespace auditdb
