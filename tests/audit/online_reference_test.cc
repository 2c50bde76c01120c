/// OnlineReferenceDifferential: the online monitor (expression index,
/// decision cache, incremental batch state) against the from-scratch
/// reference in online_reference.h, over generated hospital worlds with
/// update churn between observations and failing queries mixed in. Three
/// configurations: serial Observe, Observe on a 4-worker pool, and a
/// second, serial monitor replaying the same stream through a decision
/// cache a first, pooled monitor already filled (its screenings must also
/// equal the first monitor's, step for step).

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/online.h"
#include "src/service/thread_pool.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/online_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char* const kStanding[] = {
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'",
    "AUDIT (salary) FROM P-Employ WHERE salary > 15000",
    "THRESHOLD 3 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid",
    "THRESHOLD ALL AUDIT (age) FROM P-Personal WHERE age < 30",
    "Neg-Role-Purpose (clerk,-) AUDIT (name,ward) FROM P-Personal, "
    "P-Health WHERE P-Personal.pid = P-Health.pid",
};

/// Queries that fail (or are ignored) at each stage of an observation:
/// unparseable, unknown table and unknown column (candidacy errors), a
/// type error and a division by zero (execution errors of candidates).
/// Each appears twice in the stream, so the second copy is a cache hit.
const char* const kFailing[] = {
    "DELETE FROM P-Health",
    "SELECT name FROM NoSuchTable",
    "SELECT nosuch FROM P-Personal",
    "SELECT name, disease FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND name + 1 > 3",
    "SELECT name, disease FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND P-Personal.pid / 0 = 1",
};

/// One generated world: a hospital plus the query stream to observe.
/// Built deterministically from the seed, so two worlds of one seed go
/// through identical states (and identical version epochs).
struct World {
  explicit World(uint64_t seed) {
    hospital.num_patients = 25;
    hospital.seed = seed;
    EXPECT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
    QueryLog log;
    workload::WorkloadConfig config;
    config.num_queries = 40;
    config.seed = seed * 17;
    config.start = Ts(100);
    EXPECT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
    for (size_t i = 0; i < log.size(); ++i) {
      stream.push_back(log.Entry(i));
      if (i % 4 == 1) {
        const char* sql = kFailing[(i / 4) % std::size(kFailing)];
        LoggedQuery failing = log.Entry(i);
        failing.sql = sql;
        failing.shape = {};
        stream.push_back(failing);
      }
    }
  }

  /// One update of a random patient, before every third observation.
  void MaybeChurn(size_t step) {
    if (step % 3 != 2) return;
    workload::ChurnConfig churn;
    churn.num_updates = 1;
    churn.seed = hospital.seed * 1000 + step;
    churn.start = Ts(50);
    ASSERT_TRUE(workload::GenerateChurn(&db, churn, hospital).ok());
  }

  workload::HospitalConfig hospital;
  Database db;
  std::vector<LoggedQuery> stream;
};

void AddStanding(OnlineAuditor* monitor, OnlineReference* reference) {
  for (const char* text : kStanding) {
    auto expr =
        ParseAudit(std::string("DURING 1/1/1970 to 2/1/1970 ") + text,
                   Ts(1000000));
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    ASSERT_TRUE(monitor->AddExpression(*expr).ok()) << text;
    ASSERT_TRUE(reference->AddExpression(*expr).ok()) << text;
  }
}

void ExpectSameScreenings(const std::vector<OnlineAuditor::Screening>& actual,
                          const std::vector<OnlineAuditor::Screening>& expected,
                          const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t e = 0; e < actual.size(); ++e) {
    EXPECT_EQ(actual[e].expression_id, expected[e].expression_id) << where;
    EXPECT_EQ(actual[e].fired, expected[e].fired) << where << " expr " << e;
    EXPECT_EQ(actual[e].rank, expected[e].rank) << where << " expr " << e;
    EXPECT_EQ(actual[e].best_scheme, expected[e].best_scheme)
        << where << " expr " << e;
  }
}

/// Observes the world's stream (with churn) on `monitor` and the
/// reference side by side. Returns the monitor's outcome per step, as
/// the screenings or the error text.
std::vector<std::string> Replay(World* world, OnlineAuditor* monitor,
                                service::ThreadPool* pool) {
  OnlineReference reference(&world->db);
  AddStanding(monitor, &reference);
  std::vector<OnlineAuditor::Screening> last = monitor->Current();
  std::vector<std::string> outcomes;
  size_t errors = 0;
  size_t fired = 0;
  for (size_t step = 0; step < world->stream.size(); ++step) {
    world->MaybeChurn(step);
    const LoggedQuery& query = world->stream[step];
    const std::string where = "step " + std::to_string(step) + ": " + query.sql;
    auto actual = monitor->Observe(query, pool);
    auto expected = reference.Observe(query);
    EXPECT_EQ(actual.ok(), expected.ok())
        << where << "\n  monitor: "
        << (actual.ok() ? "ok" : actual.status().ToString())
        << "\n  reference: "
        << (expected.ok() ? "ok" : expected.status().ToString());
    if (!actual.ok() || !expected.ok()) {
      if (!actual.ok() && !expected.ok()) {
        EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
            << where;
        ++errors;
      }
      // A failed observation leaves every screening as it was.
      ExpectSameScreenings(monitor->Current(), last, where + " (after error)");
      outcomes.push_back(actual.ok() ? "ok" : actual.status().ToString());
      continue;
    }
    ExpectSameScreenings(*actual, *expected, where);
    last = *expected;
    std::string outcome;
    for (const auto& s : *actual) {
      outcome += std::to_string(s.fired) + "/" + std::to_string(s.rank) + "/" +
                 std::to_string(s.best_scheme) + " ";
    }
    outcomes.push_back(outcome);
  }
  for (const auto& s : last) fired += s.fired ? 1 : 0;
  // The stream exercises both outcomes the reference can disagree on.
  EXPECT_GT(errors, 0u);
  EXPECT_GT(fired, 0u);
  return outcomes;
}

enum class Config { kSerial, kPool, kWarmCache };

class OnlineReferenceDifferential
    : public ::testing::TestWithParam<std::tuple<Config, uint64_t>> {};

TEST_P(OnlineReferenceDifferential, MatchesReference) {
  const auto [config, seed] = GetParam();
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  service::ThreadPool pool(pool_options);
  switch (config) {
    case Config::kSerial: {
      World world(seed);
      OnlineAuditor monitor(&world.db);
      Replay(&world, &monitor, nullptr);
      break;
    }
    case Config::kPool: {
      World world(seed);
      OnlineAuditor monitor(&world.db);
      Replay(&world, &monitor, &pool);
      break;
    }
    case Config::kWarmCache: {
      OnlineAuditorOptions options;
      options.cache = std::make_shared<DecisionCache>();
      World cold_world(seed);
      OnlineAuditor cold(&cold_world.db, options);
      // The cold replay runs on the pool, so every expression's decision
      // about a failing query is cached (a serial Observe stops at the
      // first expression's error); the warm one runs serially.
      auto cold_outcomes = Replay(&cold_world, &cold, &pool);
      const uint64_t cold_misses = options.cache->stats()->cache_misses.load();

      World warm_world(seed);
      OnlineAuditor warm(&warm_world.db, options);
      auto warm_outcomes = Replay(&warm_world, &warm, nullptr);
      EXPECT_EQ(warm_outcomes, cold_outcomes);
      // The warm replay is served from the cold one's entries; only
      // failed executions, which are never cached, miss again.
      EXPECT_LT(options.cache->stats()->cache_misses.load() - cold_misses,
                cold_misses);
      break;
    }
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Config, uint64_t>>& info) {
  static const char* const kNames[] = {"Serial", "Pool4", "WarmCache"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OnlineReferenceDifferential,
    ::testing::Combine(::testing::Values(Config::kSerial, Config::kPool,
                                         Config::kWarmCache),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    ParamName);

}  // namespace
}  // namespace audit
}  // namespace auditdb
