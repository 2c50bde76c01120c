/// Integration tests of the audit_shell CLI: drive the real binary over
/// script files and check its output. The binary's path comes from the
/// AUDITDB_SHELL environment variable set by CMake.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/net/server.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace {

std::string ShellPath() {
  const char* path = std::getenv("AUDITDB_SHELL");
  return path != nullptr ? path : "";
}

/// Writes `script` to a temp file, runs the shell on it, returns stdout.
/// The path is per-process: ctest runs each case as its own process, and
/// a shared name would let parallel cases clobber each other's script.
std::string RunShell(const std::string& script) {
  std::string script_path = ::testing::TempDir() + "/shell_script_" +
                            std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(script_path);
    out << script;
  }
  std::string command = ShellPath() + " " + script_path + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  while (pipe != nullptr && std::fgets(buffer, sizeof(buffer), pipe)) {
    output += buffer;
  }
  if (pipe != nullptr) pclose(pipe);
  return output;
}

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (ShellPath().empty()) {
      GTEST_SKIP() << "AUDITDB_SHELL not set";
    }
  }
};

TEST_F(ShellTest, FixtureAndTables) {
  std::string out = RunShell(".fixture paper\n.tables\n.quit\n");
  EXPECT_NE(out.find("P-Personal"), std::string::npos);
  EXPECT_NE(out.find("(4 rows)"), std::string::npos);
}

TEST_F(ShellTest, QueryExecutionAndLogging) {
  std::string out = RunShell(
      ".fixture paper\n"
      "SELECT name FROM P-Personal WHERE age < 30\n"
      ".log\n.quit\n");
  EXPECT_NE(out.find("Jane"), std::string::npos);
  EXPECT_NE(out.find("(3 rows)"), std::string::npos);
  EXPECT_NE(out.find("#1 ["), std::string::npos);  // logged
}

TEST_F(ShellTest, AuditProducesReport) {
  std::string out = RunShell(
      ".fixture paper\n"
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n"
      ".audit DURING 1/1/1970 to now() DATA-INTERVAL 1/1/1970 to now() "
      "AUDIT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n"
      ".quit\n");
  EXPECT_NE(out.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(out.find("SUSPICIOUS"), std::string::npos);
  EXPECT_NE(out.find("[SUSPECT"), std::string::npos);
}

TEST_F(ShellTest, LineContinuation) {
  std::string out = RunShell(
      ".fixture paper\n"
      "SELECT name FROM P-Personal \\\n"
      "WHERE age < 30\n"
      ".quit\n");
  EXPECT_NE(out.find("(3 rows)"), std::string::npos);
}

TEST_F(ShellTest, GranulesCommand) {
  std::string out = RunShell(
      ".fixture paper\n"
      ".granules AUDIT (name,disease,address) "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'\n"
      ".quit\n");
  EXPECT_NE(out.find("|U| = 2"), std::string::npos);
  EXPECT_NE(out.find("(t12,t22,Reku,diabetic,A2)"), std::string::npos);
}

TEST_F(ShellTest, SaveAndLoadRoundTrip) {
  std::string db_path = ::testing::TempDir() + "/shell_roundtrip.db";
  std::string out = RunShell(
      ".fixture paper\n"
      ".save db " + db_path + "\n.quit\n");
  std::string out2 = RunShell(
      ".load db " + db_path + "\n"
      "SELECT name FROM P-Personal WHERE age < 30\n.quit\n");
  EXPECT_NE(out2.find("(3 rows)"), std::string::npos);
}

TEST_F(ShellTest, AuditJobsRunsConcurrentServiceAndPrintsMetrics) {
  std::string out = RunShell(
      ".fixture paper\n"
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n"
      ".audit --jobs 2 DURING 1/1/1970 to now() "
      "DATA-INTERVAL 1/1/1970 to now() "
      "AUDIT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n"
      ".quit\n");
  EXPECT_NE(out.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(out.find("SUSPICIOUS"), std::string::npos);
  EXPECT_NE(out.find("metrics: {"), std::string::npos);
  EXPECT_NE(out.find("\"pool.jobs_submitted\""), std::string::npos);
  EXPECT_NE(out.find("\"audit.runs\":1"), std::string::npos);
}

TEST_F(ShellTest, SerialAndJobsAuditsAgree) {
  std::string script_tail =
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n";
  std::string audit_expr =
      "DURING 1/1/1970 to now() DATA-INTERVAL 1/1/1970 to now() "
      "AUDIT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'\n";
  std::string serial = RunShell(".fixture paper\n" + script_tail +
                                ".audit " + audit_expr + ".quit\n");
  std::string jobs = RunShell(".fixture paper\n" + script_tail +
                              ".audit --jobs 4 " + audit_expr + ".quit\n");
  // The verdicts are identical; only the wall-clock "phases:" line may
  // differ, and the --jobs run appends its metrics line.
  std::string report = serial.substr(serial.find("batch verdict:"));
  EXPECT_NE(jobs.find(report), std::string::npos);
  std::string header = serial.substr(serial.find("AUDIT REPORT"));
  header = header.substr(0, header.find("phases:"));
  EXPECT_NE(jobs.find(header), std::string::npos);
}

TEST_F(ShellTest, AuditJobsRejectsBadCount) {
  std::string out = RunShell(
      ".fixture paper\n"
      ".audit --jobs zero AUDIT disease FROM P-Health\n"
      ".quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_NE(out.find("--jobs"), std::string::npos);
}

TEST_F(ShellTest, ConnectRunsCommandsAgainstRemoteAuditd) {
  // An in-process auditd the shell subprocess attaches to.
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  QueryLog log;
  workload::HospitalConfig hospital;
  hospital.num_patients = 30;
  hospital.seed = 2008;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital,
                                         Timestamp(1000000)).ok());
  workload::WorkloadConfig workload;
  workload.num_queries = 40;
  workload.start = Timestamp(100 * 1000000);
  ASSERT_TRUE(workload::GenerateWorkload(&log, workload, hospital).ok());
  service::AuditService audit_service(&db, &backlog, &log);
  net::AuditServer server(&audit_service, &db, &backlog, &log);
  ASSERT_TRUE(server.Start().ok());
  std::string target =
      server.host() + ":" + std::to_string(server.port());

  size_t log_before = log.size();
  std::string out = RunShell(
      ".connect " + target + "\n"
      ".at 10/1/1970\n"
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'\n"
      ".audit DURING 1/1/1970 to 2/1/1970 "
      "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'\n"
      ".metrics\n"
      ".tables\n"
      ".disconnect\n"
      ".tables\n.quit\n");
  server.Shutdown();

  EXPECT_NE(out.find("connected to auditd at " + target), std::string::npos);
  EXPECT_NE(out.find("logged remotely as #"), std::string::npos);
  EXPECT_EQ(log.size(), log_before + 1);  // SELECT hit the server's log
  EXPECT_NE(out.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(out.find("\"net.frames_received\""), std::string::npos);
  // Local-only commands are refused while connected, work again after.
  EXPECT_NE(out.find(".tables works on the in-process stores"),
            std::string::npos);
  EXPECT_NE(out.find("back to in-process stores"), std::string::npos);
}

TEST_F(ShellTest, ConnectRefusesBadTarget) {
  std::string out = RunShell(".connect nowhere\n.quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_NE(out.find("host:port"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAreReportedNotFatal) {
  std::string out = RunShell(
      ".fixture paper\n"
      "SELECT nope FROM Nowhere\n"
      ".bogus\n"
      ".tables\n.quit\n");
  EXPECT_NE(out.find("error:"), std::string::npos);
  // The shell keeps going after errors.
  EXPECT_NE(out.find("P-Personal"), std::string::npos);
}

}  // namespace
}  // namespace auditdb
