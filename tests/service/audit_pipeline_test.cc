/// The audit pipeline's contract: Auditor::AuditPinned yields a
/// byte-identical report (AuditReport::CanonicalString) whether its
/// stages run on the caller thread or fan out over a worker pool of any
/// size, and AuditService is only the pin-and-call wrapper around it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/audit/auditor.h"
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
class AuditPipelineTest : public ::testing::Test {
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

  /// Audits `text` against `log` with the stages on `pool` (null: the
  /// calling thread).
  static Result<audit::AuditReport> Run(const std::string& text,
                                        ThreadPool* pool,
                                        const audit::AuditOptions& options,
                                        const QueryLog& log) {
    auto expr = audit::ParseAudit(text, Ts(1000000));
    if (!expr.ok()) return expr.status();
    audit::Auditor auditor(&world_->db, &world_->backlog, &log);
    return auditor.AuditPinned(*expr, options, auditor.Pin(), pool);
  }

  static std::string Canonical(const std::string& text, ThreadPool* pool,
                               const audit::AuditOptions& options = {}) {
    auto report = Run(text, pool, options, world_->log);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->CanonicalString() : "";
  }

  static std::string Serial(const std::string& text,
                            const audit::AuditOptions& options = {}) {
    return Canonical(text, nullptr, options);
  }

  static std::string Pooled(const std::string& text, size_t threads,
                            const audit::AuditOptions& options = {}) {
    ThreadPool pool(PoolOptions(threads));
    return Canonical(text, &pool, options);
  }
};

AuditPipelineTest::World* AuditPipelineTest::world_ = nullptr;

TEST_F(AuditPipelineTest, ParallelMatchesSerialAt1_2_8Threads) {
  const std::string serial = Serial(kAudit);
  ASSERT_FALSE(serial.empty());
  // Error-free: no incompleteness note anywhere.
  EXPECT_EQ(serial.find("incomplete"), std::string::npos);
  audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
  auto audited = auditor.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(audited.ok());
  EXPECT_EQ(audited->CanonicalString(), serial);
  EXPECT_EQ(audited->Summary().find("incomplete"), std::string::npos);
  EXPECT_EQ(audited->DetailedReport(world_->log).find("INCOMPLETE"),
            std::string::npos);
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(Pooled(kAudit, threads), serial) << "thread count " << threads;
  }
}

TEST_F(AuditPipelineTest, ShardBoundariesNeverAffectOutput) {
  // Shard sizes follow the pool size and the pinned log length (one
  // shard per stage on the caller thread, ~4 per worker otherwise), so
  // auditing log prefixes of several lengths on several pool sizes moves
  // every boundary around.
  audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
  auto expr = audit::ParseAudit(kAudit, Ts(1000000));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  for (size_t prefix : {1u, 17u, 255u, 257u, 600u}) {
    audit::AuditPin pin = auditor.Pin();
    ASSERT_LE(prefix, pin.log_size);
    pin.log_size = prefix;
    auto serial = auditor.AuditPinned(*expr, {}, pin, nullptr);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->num_logged, prefix);
    for (size_t threads : {3u, 4u, 7u}) {
      ThreadPool pool(PoolOptions(threads));
      auto pooled = auditor.AuditPinned(*expr, {}, pin, &pool);
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      EXPECT_EQ(pooled->CanonicalString(), serial->CanonicalString())
          << "log prefix " << prefix << ", thread count " << threads;
    }
  }
}

TEST_F(AuditPipelineTest, ThresholdSemanticsMatchSerial) {
  const std::string serial = Serial(kThresholdAudit);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(Pooled(kThresholdAudit, threads), serial);
  }
}

TEST_F(AuditPipelineTest, StaticOnlyMatchesSerial) {
  audit::AuditOptions options;
  options.static_only = true;
  const std::string serial = Serial(kAudit, options);
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(Pooled(kAudit, threads, options), serial);
  }
}

TEST_F(AuditPipelineTest, MinimizationOrderSurvivesParallelism) {
  audit::AuditOptions options;
  options.minimize_batch = true;
  EXPECT_EQ(Pooled(kAudit, 8, options), Serial(kAudit, options));
}

TEST_F(AuditPipelineTest, ParseErrorSurfacesBeforeAnyShard) {
  AuditService audit_service(&world_->db, &world_->backlog, &world_->log);
  auto report = audit_service.Audit("AUDIT nonsense ((", Ts(1000000));
  EXPECT_FALSE(report.ok());
}

TEST_F(AuditPipelineTest, ScreenLibraryMatchesPerExpressionSerialRuns) {
  audit::ExpressionLibrary library(&world_->db.catalog());
  for (const char* text : {kAudit, kThresholdAudit}) {
    auto expr = audit::ParseAudit(text, Ts(1000000));
    ASSERT_TRUE(expr.ok());
    ASSERT_TRUE(library.Add(*expr).ok());
  }
  // One worker: an expression task that fanned out to its own pool would
  // wait forever on stage tasks queued behind it.
  for (size_t threads : {1u, 4u}) {
    AuditServiceOptions options;
    options.pool.num_threads = threads;
    AuditService audit_service(&world_->db, &world_->backlog, &world_->log,
                               options);
    auto screenings = audit_service.ScreenLibrary(library);
    ASSERT_EQ(screenings.size(), 2u);
    EXPECT_LT(screenings[0].expression_id, screenings[1].expression_id);
    const char* texts[] = {kAudit, kThresholdAudit};
    for (size_t i = 0; i < screenings.size(); ++i) {
      ASSERT_TRUE(screenings[i].status.ok())
          << screenings[i].status.ToString();
      EXPECT_EQ(screenings[i].report.CanonicalString(), Serial(texts[i]))
          << "thread count " << threads;
    }
  }
}

TEST_F(AuditPipelineTest, AuditServiceFrontDoorIsDeterministicAndMetered) {
  AuditServiceOptions options;
  options.pool.num_threads = 4;
  AuditService audit_service(&world_->db, &world_->backlog, &world_->log,
                             options);
  auto report = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->CanonicalString(), Serial(kAudit));
  EXPECT_EQ(audit_service.num_threads(), 4u);
  std::string json = audit_service.MetricsJson();
  EXPECT_NE(json.find("\"audit.runs\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.jobs_submitted\""), std::string::npos);
  for (const char* stage : {"static", "view", "exec", "check"}) {
    const std::string observed_once = std::string("\"audit.") + stage +
                                      "_stage_micros\":{\"count\":1,";
    EXPECT_NE(json.find(observed_once), std::string::npos) << json;
  }
}

TEST_F(AuditPipelineTest, OnlineMonitorParallelObserveMatchesSerial) {
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

TEST_F(AuditPipelineTest, ErrorVerdictsMatchSerialByteForByte) {
  // A query whose static candidacy check fails (unknown table) must get
  // the same distinct error verdict on a pool as on the caller thread —
  // in the full and the static-only pipelines.
  QueryLog log;
  log.Append("SELECT secret FROM NoSuchTable", Ts(150), "alice", "doctor",
             "treatment");
  log.Append(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      Ts(151), "alice", "doctor", "treatment");
  ThreadPool pool(PoolOptions(4));
  for (bool static_only : {false, true}) {
    audit::AuditOptions options;
    options.static_only = static_only;
    auto serial = Run(kAudit, nullptr, options, log);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_NE(serial->CanonicalString().find(" error"), std::string::npos);
    EXPECT_NE(serial->CanonicalString().find("\nbatch_incomplete=1\n"),
              std::string::npos);
    auto parallel = Run(kAudit, &pool, options, log);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->CanonicalString(), serial->CanonicalString())
        << "static_only=" << static_only;
  }
}

TEST_F(AuditPipelineTest, FailedReexecutionIsAnErrorNotAClear) {
  // Candidates that pass the static screen but fail when re-executed
  // (type errors, division by zero) were never checked: they must read as
  // errors, never as clean, identically on the caller thread and on
  // every pool size — and the batch verdict must say it is incomplete.
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
  // Each failing query's report line carries the ERROR flag.
  auto expect_error_lines = [&](const std::string& detailed) {
    for (const auto& sql : failing) {
      size_t at = detailed.find(sql);
      ASSERT_NE(at, std::string::npos) << detailed;
      size_t line = detailed.rfind('\n', at) + 1;
      EXPECT_EQ(detailed.compare(line, 14, "  [ERROR    ] "), 0) << detailed;
    }
  };

  auto serial = Run(kAudit, nullptr, audit::AuditOptions{}, log);
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
  expect_error_lines(serial->DetailedReport(log));
  EXPECT_NE(serial->CanonicalString().find(
                "\nbatch_suspicious=true\nbatch_incomplete=3\n"),
            std::string::npos)
      << serial->CanonicalString();
  EXPECT_NE(serial->Summary().find("batch_incomplete=3"), std::string::npos);
  EXPECT_NE(serial->DetailedReport(log).find(
                "batch verdict: SUSPICIOUS (INCOMPLETE: 3 errored "
                "queries unchecked)\n"),
            std::string::npos);

  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(PoolOptions(threads));
    auto parallel = Run(kAudit, &pool, audit::AuditOptions{}, log);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->CanonicalString(), serial->CanonicalString())
        << "thread count " << threads;
    expect_error_lines(parallel->DetailedReport(log));
    // The funnel: every candidate either executed or errored.
    EXPECT_EQ(parallel->num_candidates,
              parallel->num_executed + parallel->NumErrored())
        << "thread count " << threads;
  }
}

TEST_F(AuditPipelineTest, ServiceDecisionCacheIsSharedAndInert) {
  // Two service audits of the same expression: the second parses no new
  // shape and computes no new static facts (it reads the log's
  // per-shape memo), and both reports are byte-identical to the serial
  // auditor's.
  AuditServiceOptions options;
  options.pool.num_threads = 4;
  AuditService audit_service(&world_->db, &world_->backlog, &world_->log,
                             options);
  ASSERT_NE(audit_service.decision_cache(), nullptr);
  auto first = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(first.ok());
  const size_t parsed = world_->log.parsed_shapes();
  const size_t facts = world_->log.memoized_facts();
  EXPECT_GT(parsed, 0u);
  auto second = audit_service.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(world_->log.parsed_shapes(), parsed);
  EXPECT_EQ(world_->log.memoized_facts(), facts);
  EXPECT_EQ(first->CanonicalString(), Serial(kAudit));
  EXPECT_EQ(second->CanonicalString(), Serial(kAudit));
}

TEST_F(AuditPipelineTest, BackpressuredPoolStillProducesIdenticalOutput) {
  // A rejecting 2-slot queue forces constant load shedding (inline
  // fallback); the report must not change.
  ThreadPool pool([] {
    ThreadPoolOptions options;
    options.num_threads = 4;
    options.queue_capacity = 2;
    options.admission = AdmissionPolicy::kReject;
    return options;
  }());
  EXPECT_EQ(Canonical(kAudit, &pool), Serial(kAudit));
}

}  // namespace
}  // namespace service
}  // namespace auditdb
