/// The scheduler's contract: a parallel audit run is byte-identical
/// (AuditReport::CanonicalString) to the serial Auditor's at any thread
/// count or shard size, and a poisoned run degrades instead of crashing.

#include "src/service/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/audit/online.h"
#include "src/service/audit_service.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace service {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

constexpr char kAudit[] =
    "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

constexpr char kThresholdAudit[] =
    "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "THRESHOLD 5 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid";

/// Hospital database + generated query log shared by every test case.
class SchedulerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World();
    world_->backlog.Attach(&world_->db);
    workload::HospitalConfig hospital;
    hospital.num_patients = 120;
    hospital.seed = 7;
    ASSERT_TRUE(
        workload::PopulateHospital(&world_->db, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 600;
    config.start = Ts(100);
    config.seed = 7;
    ASSERT_TRUE(
        workload::GenerateWorkload(&world_->log, config, hospital).ok());
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  struct World {
    Database db;
    Backlog backlog;
    QueryLog log;
  };
  static World* world_;

  static ThreadPoolOptions PoolOptions(size_t threads) {
    ThreadPoolOptions options;
    options.num_threads = threads;
    return options;
  }

  static std::string Serial(const std::string& text,
                            const audit::AuditOptions& options = {}) {
    audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
    auto report = auditor.Audit(text, Ts(1000000), options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->CanonicalString() : "";
  }

  static std::string Parallel(const std::string& text, size_t threads,
                              SchedulerOptions scheduler_options = {},
                              const audit::AuditOptions& options = {}) {
    ThreadPool pool(PoolOptions(threads));
    AuditScheduler scheduler(&pool, scheduler_options);
    auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                                text, Ts(1000000), options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->CanonicalString() : "";
  }
};

SchedulerTest::World* SchedulerTest::world_ = nullptr;

TEST_F(SchedulerTest, ParallelMatchesSerialAt1_2_8Threads) {
  const std::string serial = Serial(kAudit);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(Parallel(kAudit, threads), serial)
        << "thread count " << threads;
  }
}

TEST_F(SchedulerTest, ThresholdSemanticsMatchSerial) {
  const std::string serial = Serial(kThresholdAudit);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(Parallel(kThresholdAudit, threads), serial);
  }
}

TEST_F(SchedulerTest, ShardBoundariesNeverAffectOutput) {
  const std::string serial = Serial(kAudit);
  for (size_t shard : {1u, 3u, 17u, 1000u}) {
    SchedulerOptions options;
    options.static_shard_size = shard;
    options.exec_shard_size = (shard + 1) / 2;
    EXPECT_EQ(Parallel(kAudit, 4, options), serial)
        << "shard size " << shard;
  }
}

TEST_F(SchedulerTest, StaticOnlyMatchesSerial) {
  audit::AuditOptions options;
  options.static_only = true;
  const std::string serial = Serial(kAudit, options);
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(Parallel(kAudit, threads, SchedulerOptions{}, options),
              serial);
  }
}

TEST_F(SchedulerTest, MinimizationOrderSurvivesParallelism) {
  audit::AuditOptions options;
  options.minimize_batch = true;
  EXPECT_EQ(Parallel(kAudit, 8, SchedulerOptions{}, options),
            Serial(kAudit, options));
}

TEST_F(SchedulerTest, AuditorParallelEntryPointMatchesSerial) {
  auto expr = audit::ParseAudit(kAudit, Ts(1000000));
  ASSERT_TRUE(expr.ok());
  ThreadPool pool(PoolOptions(4));
  AuditScheduler scheduler(&pool);
  audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
  auto parallel = auditor.AuditParallel(*expr, &scheduler);
  auto serial = auditor.Audit(*expr);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(parallel->CanonicalString(), serial->CanonicalString());
  EXPECT_EQ(auditor.AuditParallel(*expr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, ParseErrorSurfacesBeforeAnyShard) {
  ThreadPool pool(PoolOptions(2));
  AuditScheduler scheduler(&pool);
  auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                              "AUDIT nonsense ((", Ts(1000000));
  EXPECT_FALSE(report.ok());
}

TEST_F(SchedulerTest, CancelledRunFailsFastWithCancelled) {
  ThreadPool pool(PoolOptions(2));
  SchedulerOptions options;
  options.cancel = std::make_shared<CancellationToken>();
  options.cancel->Cancel();
  AuditScheduler scheduler(&pool, options);
  auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                              kAudit, Ts(1000000));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

TEST_F(SchedulerTest, CancelledRunDegradesWhenNotFailFast) {
  ThreadPool pool(PoolOptions(2));
  SchedulerOptions options;
  options.cancel = std::make_shared<CancellationToken>();
  options.cancel->Cancel();
  options.fail_fast = false;
  AuditScheduler scheduler(&pool, options);
  std::vector<ShardFailure> failures;
  auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                              kAudit, Ts(1000000), audit::AuditOptions{},
                              &failures);
  // Every shard is poisoned, but the run still produces a (degraded)
  // report: one placeholder verdict per logged query, nothing admitted.
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->verdicts.size(), world_->log.size());
  EXPECT_EQ(report->num_admitted, 0u);
  ASSERT_FALSE(failures.empty());
  bool saw_static = false, saw_view = false;
  for (const auto& failure : failures) {
    EXPECT_EQ(failure.status.code(), StatusCode::kCancelled);
    if (failure.stage == "static") saw_static = true;
    if (failure.stage == "view") saw_view = true;
  }
  EXPECT_TRUE(saw_static);
  EXPECT_TRUE(saw_view);
}

TEST_F(SchedulerTest, CleanRunLeavesFailureListEmpty) {
  ThreadPool pool(PoolOptions(2));
  SchedulerOptions options;
  options.fail_fast = false;
  AuditScheduler scheduler(&pool, options);
  std::vector<ShardFailure> failures = {ShardFailure{"stale", 0,
                                                     Status::Internal("x")}};
  auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                              kAudit, Ts(1000000), audit::AuditOptions{},
                              &failures);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(failures.empty());  // Run clears stale entries
}

TEST_F(SchedulerTest, ScreenLibraryMatchesPerExpressionSerialRuns) {
  audit::ExpressionLibrary library(&world_->db.catalog());
  for (const char* text : {kAudit, kThresholdAudit}) {
    auto expr = audit::ParseAudit(text, Ts(1000000));
    ASSERT_TRUE(expr.ok());
    ASSERT_TRUE(library.Add(*expr).ok());
  }
  ThreadPool pool(PoolOptions(4));
  AuditScheduler scheduler(&pool);
  auto screenings = scheduler.ScreenLibrary(world_->db, world_->backlog,
                                            world_->log, library);
  ASSERT_EQ(screenings.size(), 2u);
  EXPECT_LT(screenings[0].expression_id, screenings[1].expression_id);
  const char* texts[] = {kAudit, kThresholdAudit};
  for (size_t i = 0; i < screenings.size(); ++i) {
    ASSERT_TRUE(screenings[i].status.ok())
        << screenings[i].status.ToString();
    EXPECT_EQ(screenings[i].report.CanonicalString(), Serial(texts[i]));
  }
}

TEST_F(SchedulerTest, AuditServiceFrontDoorIsDeterministicAndMetered) {
  AuditServiceOptions options;
  options.pool.num_threads = 4;
  AuditService audit_service(&world_->db, &world_->backlog, &world_->log,
                             options);
  auto report = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->CanonicalString(), Serial(kAudit));
  EXPECT_EQ(audit_service.num_threads(), 4u);
  std::string json = audit_service.MetricsJson();
  EXPECT_NE(json.find("\"scheduler.runs\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.jobs_submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.static_stage_micros\""),
            std::string::npos);
}

TEST_F(SchedulerTest, OnlineMonitorParallelObserveMatchesSerial) {
  auto add_expressions = [](audit::OnlineAuditor* monitor) {
    for (const char* text : {kAudit, kThresholdAudit}) {
      auto expr = audit::ParseAudit(text, Ts(1000000));
      ASSERT_TRUE(expr.ok());
      ASSERT_TRUE(monitor->AddExpression(*expr).ok());
    }
  };
  audit::OnlineAuditor serial(&world_->db);
  audit::OnlineAuditor parallel(&world_->db);
  add_expressions(&serial);
  add_expressions(&parallel);
  ThreadPool pool(PoolOptions(4));
  const QueryLog& entries = world_->log;
  for (size_t i = 0; i < std::min<size_t>(entries.size(), 50); ++i) {
    auto serial_result = serial.Observe(entries.Entry(i));
    auto parallel_result = parallel.Observe(entries.Entry(i), &pool);
    ASSERT_EQ(serial_result.ok(), parallel_result.ok()) << i;
    if (!serial_result.ok()) continue;
    ASSERT_EQ(serial_result->size(), parallel_result->size());
    for (size_t e = 0; e < serial_result->size(); ++e) {
      EXPECT_EQ((*serial_result)[e].expression_id,
                (*parallel_result)[e].expression_id);
      EXPECT_EQ((*serial_result)[e].fired, (*parallel_result)[e].fired);
      EXPECT_EQ((*serial_result)[e].rank, (*parallel_result)[e].rank)
          << "query " << i << " expression " << e;
      EXPECT_EQ((*serial_result)[e].best_scheme,
                (*parallel_result)[e].best_scheme);
    }
  }
}

TEST_F(SchedulerTest, ErrorVerdictsMatchSerialByteForByte) {
  // A query whose static candidacy check fails (unknown table) must get
  // the same distinct error verdict from the sharded scheduler as from
  // the serial auditor — in the full and the static-only pipelines.
  QueryLog log;
  log.Append("SELECT secret FROM NoSuchTable", Ts(150), "alice", "doctor",
             "treatment");
  log.Append(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      Ts(151), "alice", "doctor", "treatment");
  audit::Auditor auditor(&world_->db, &world_->backlog, &log);
  ThreadPool pool(PoolOptions(4));
  AuditScheduler scheduler(&pool);
  for (bool static_only : {false, true}) {
    audit::AuditOptions options;
    options.static_only = static_only;
    auto serial = auditor.Audit(kAudit, Ts(1000000), options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_NE(serial->CanonicalString().find(" error"), std::string::npos);
    auto parallel = scheduler.Run(world_->db, world_->backlog, log, kAudit,
                                  Ts(1000000), options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->CanonicalString(), serial->CanonicalString())
        << "static_only=" << static_only;
  }
}

TEST_F(SchedulerTest, FailedReexecutionIsAnErrorNotAClear) {
  // Candidates that pass the static screen but fail when re-executed
  // (type errors, division by zero) were never checked: they must read as
  // errors, never as clean, identically in the serial and parallel
  // pipelines.
  const std::string join =
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND ";
  const std::vector<std::string> failing = {
      join + "name + 1 > 3",
      join + "disease - 1 = 2",
      join + "P-Personal.pid / 0 = 1",
  };
  QueryLog log;
  log.Append(join + "disease='diabetic'", Ts(150), "alice", "doctor",
             "treatment");
  for (size_t i = 0; i < failing.size(); ++i) {
    log.Append(failing[i], Ts(151 + static_cast<int64_t>(i)), "alice",
               "doctor", "treatment");
  }
  audit::Auditor auditor(&world_->db, &world_->backlog, &log);
  auto serial = auditor.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->verdicts.size(), 4u);
  EXPECT_FALSE(serial->verdicts[0].error);
  for (size_t i = 1; i < 4; ++i) {
    const audit::QueryVerdict& verdict = serial->verdicts[i];
    EXPECT_TRUE(verdict.admitted && verdict.candidate) << failing[i - 1];
    EXPECT_TRUE(verdict.error) << failing[i - 1];
    EXPECT_FALSE(verdict.suspicious_alone) << failing[i - 1];
  }
  EXPECT_EQ(serial->num_candidates, 4u);
  EXPECT_EQ(serial->num_executed, 1u);
  // Each failing query's report line carries the ERROR flag.
  auto expect_error_lines = [&](const std::string& detailed) {
    for (const auto& sql : failing) {
      size_t at = detailed.find(sql);
      ASSERT_NE(at, std::string::npos) << detailed;
      size_t line = detailed.rfind('\n', at) + 1;
      EXPECT_EQ(detailed.compare(line, 14, "  [ERROR    ] "), 0) << detailed;
    }
  };
  expect_error_lines(serial->DetailedReport(log));

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(PoolOptions(threads));
    AuditScheduler scheduler(&pool);
    auto parallel = scheduler.Run(world_->db, world_->backlog, log, kAudit,
                                  Ts(1000000));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->CanonicalString(), serial->CanonicalString())
        << "thread count " << threads;
    expect_error_lines(parallel->DetailedReport(log));
  }
}

TEST_F(SchedulerTest, ServiceDecisionCacheIsSharedAndInert) {
  // Two service audits of the same expression: the second is answered
  // out of the decision cache, and both reports are byte-identical to
  // the cache-less serial auditor's.
  AuditServiceOptions options;
  options.pool.num_threads = 4;
  AuditService audit_service(&world_->db, &world_->backlog, &world_->log,
                             options);
  ASSERT_NE(audit_service.decision_cache(), nullptr);
  auto first = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(first.ok());
  uint64_t misses =
      audit_service.decision_cache()->stats()->cache_misses.load();
  auto second = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->CanonicalString(), Serial(kAudit));
  EXPECT_EQ(second->CanonicalString(), Serial(kAudit));
  EXPECT_GT(audit_service.decision_cache()->stats()->cache_hits.load(), 0u);
  EXPECT_EQ(audit_service.decision_cache()->stats()->cache_misses.load(),
            misses);

  AuditServiceOptions uncached;
  uncached.decision_cache_enabled = false;
  AuditService plain(&world_->db, &world_->backlog, &world_->log, uncached);
  EXPECT_EQ(plain.decision_cache(), nullptr);
  auto third = plain.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->CanonicalString(), Serial(kAudit));
}

TEST_F(SchedulerTest, BackpressuredPoolStillProducesIdenticalOutput) {
  // A rejecting 2-slot queue forces constant load shedding (inline
  // fallback); the report must not change.
  ThreadPool pool([] {
    ThreadPoolOptions options;
    options.num_threads = 4;
    options.queue_capacity = 2;
    options.admission = AdmissionPolicy::kReject;
    return options;
  }());
  AuditScheduler scheduler(&pool);
  auto report = scheduler.Run(world_->db, world_->backlog, world_->log,
                              kAudit, Ts(1000000));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->CanonicalString(), Serial(kAudit));
}

}  // namespace
}  // namespace service
}  // namespace auditdb
