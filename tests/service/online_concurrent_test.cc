/// Concurrency contract of the indexed online monitor: Observe(query,
/// pool) fans per-expression coverage updates across worker threads that
/// share one DecisionCache, and the screenings must match the
/// from-scratch reference (tests/audit/online_reference.h) byte for
/// byte. Runs under ThreadSanitizer in CI (tools/run_ci.sh stage 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/audit/audit_parser.h"
#include "src/audit/online.h"
#include "src/service/thread_pool.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/online_reference.h"

namespace auditdb {
namespace service {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char* const kStandingExpressions[] = {
    "DURING 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
    "DURING 1/1/1970 to 2/1/1970 "
    "AUDIT (salary) FROM P-Employ WHERE salary > 15000",
    "DURING 1/1/1970 to 2/1/1970 "
    "THRESHOLD 5 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid",
    "DURING 1/1/1970 to 2/1/1970 "
    "AUDIT (address) FROM P-Personal",
};

class OnlineConcurrentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World();
    workload::HospitalConfig hospital;
    hospital.num_patients = 80;
    hospital.seed = 11;
    ASSERT_TRUE(
        workload::PopulateHospital(&world_->db, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 200;
    config.start = Ts(100);
    config.seed = 11;
    ASSERT_TRUE(
        workload::GenerateWorkload(&world_->log, config, hospital).ok());
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  struct World {
    Database db;
    QueryLog log;
  };
  static World* world_;

  template <typename Monitor>
  static void AddAll(Monitor* monitor) {
    for (const char* text : kStandingExpressions) {
      auto expr = audit::ParseAudit(text, Ts(1000000));
      ASSERT_TRUE(expr.ok()) << expr.status().ToString();
      ASSERT_TRUE(monitor->AddExpression(*expr).ok());
    }
  }

  static ThreadPoolOptions PoolOptions(size_t threads) {
    ThreadPoolOptions options;
    options.num_threads = threads;
    return options;
  }
};

OnlineConcurrentTest::World* OnlineConcurrentTest::world_ = nullptr;

TEST_F(OnlineConcurrentTest, ParallelObserveMatchesReference) {
  audit::OnlineReference reference(&world_->db);
  audit::OnlineAuditor indexed(&world_->db);
  AddAll(&reference);
  AddAll(&indexed);

  ThreadPool pool(PoolOptions(4));
  const QueryLog& entries = world_->log;
  for (size_t i = 0; i < std::min<size_t>(entries.size(), 120); ++i) {
    auto expected = reference.Observe(entries.Entry(i));
    auto actual = indexed.Observe(entries.Entry(i), &pool);
    ASSERT_EQ(expected.ok(), actual.ok()) << "query " << i;
    if (!expected.ok()) continue;
    ASSERT_EQ(expected->size(), actual->size());
    for (size_t e = 0; e < expected->size(); ++e) {
      EXPECT_EQ((*expected)[e].fired, (*actual)[e].fired)
          << "query " << i << " expression " << e;
      EXPECT_EQ((*expected)[e].rank, (*actual)[e].rank)
          << "query " << i << " expression " << e;
      EXPECT_EQ((*expected)[e].best_scheme, (*actual)[e].best_scheme);
    }
  }
  // The index actually pruned work along the way.
  EXPECT_GT(indexed.stats().index_skipped.load(), 0u);
}

TEST_F(OnlineConcurrentTest, SharedCacheSurvivesConcurrentObserves) {
  // All worker threads funnel their candidacy checks through one
  // DecisionCache while the repeated workload produces constant hits —
  // the data-race target of the TSan gate.
  auto cache = std::make_shared<audit::DecisionCache>();
  audit::OnlineAuditorOptions options;
  options.cache = cache;
  audit::OnlineAuditor monitor(&world_->db, options);
  AddAll(&monitor);

  ThreadPool pool(PoolOptions(8));
  const QueryLog& entries = world_->log;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < std::min<size_t>(entries.size(), 60); ++i) {
      auto s = monitor.Observe(entries.Entry(i), &pool);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
    }
  }
  EXPECT_GT(cache->stats()->cache_hits.load(), 0u);
}

}  // namespace
}  // namespace service
}  // namespace auditdb
