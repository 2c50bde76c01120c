/// Crash-durability smoke driver for CI (tools/run_ci.sh): streams
/// ExecuteQuery requests at a live auditd until the daemon dies under
/// it (CI kills it with SIGKILL mid-stream), then — offline — proves
/// the durability contract on the data dir the daemon left behind:
/// every acked append recovers, the recovered log is a dense
/// uncorrupted prefix, and the recovered state is re-auditable.
///
/// Usage:
///   durability_smoke drive HOST:PORT MAX_QUERIES
///     Sends up to MAX_QUERIES ExecuteQuery requests (retries off: an
///     ack means the daemon's WAL accepted it, nothing is counted
///     twice). Prints "acked N" and exits 0 when the stream ends —
///     whether it completed or the daemon died mid-request.
///
///   durability_smoke verify DATA_DIR MIN_ACKED
///     Recovers DATA_DIR and fails unless the log holds at least
///     MIN_ACKED densely-numbered entries and a full audit over the
///     recovered world succeeds.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/audit/auditor.h"
#include "src/common/string_util.h"
#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/client.h"

using namespace auditdb;

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char kAudit[] =
    "DURING 1/1/1970 to 2/1/1970 "
    "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

int Drive(const std::string& target, int max_queries) {
  auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "expected HOST:PORT, got %s\n", target.c_str());
    return 2;
  }
  int port = 0;
  if (!ParseIntInRange(target.substr(colon + 1), 1, 65535, &port)) {
    std::fprintf(stderr, "bad port in %s\n", target.c_str());
    return 2;
  }
  net::AuditClientOptions options;
  // An ambiguous cut (sent but never answered) must not re-send: the
  // count below is a lower bound on what the WAL accepted.
  options.retry_idempotent = false;
  net::AuditClient client(target.substr(0, colon),
                          static_cast<uint16_t>(port), options);
  int acked = 0;
  for (int i = 0; i < max_queries; ++i) {
    auto executed = client.ExecuteQuery(
        "SELECT name, disease FROM P-Personal, P-Health "
        "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'",
        "smoke", "clerk", "billing", Ts(900000 + i));
    if (!executed.ok()) {
      std::fprintf(stderr, "stream ended after %d acks: %s\n", acked,
                   executed.status().ToString().c_str());
      break;
    }
    ++acked;
  }
  std::printf("acked %d\n", acked);
  return 0;
}

int Verify(const std::string& data_dir, int min_acked) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  QueryLog log;
  auto store = io::DurableStore::Open(io::Env::Default(), data_dir, &db,
                                      &log, Ts(1));
  if (!store.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  const io::RecoveryInfo& recovery = (*store)->recovery();
  std::printf(
      "recovered: %zu log entries (%llu from WAL, %llu torn bytes "
      "dropped)\n",
      log.size(),
      static_cast<unsigned long long>(recovery.recovered_records),
      static_cast<unsigned long long>(recovery.torn_tail_dropped));
  if (log.size() < static_cast<size_t>(min_acked)) {
    std::fprintf(stderr,
                 "LOST ACKS: %d acked but only %zu recovered\n",
                 min_acked, log.size());
    return 1;
  }
  // The log must be a dense, uncorrupted prefix: ids 1..N in order.
  for (size_t i = 0; i < log.size(); ++i) {
    const LoggedQuery& entry = log.Entry(i);
    if (entry.id != static_cast<int64_t>(i) + 1) {
      std::fprintf(stderr, "log entry %zu has id %lld (want %zu)\n", i,
                   static_cast<long long>(entry.id), i + 1);
      return 1;
    }
    if (entry.sql.empty() || entry.user.empty()) {
      std::fprintf(stderr, "log entry %zu recovered mangled\n", i);
      return 1;
    }
  }
  // Re-auditable: the full audit pipeline runs over the recovered world.
  audit::Auditor auditor(&db, &backlog, &log);
  auto report = auditor.Audit(kAudit, Ts(1000000));
  if (!report.ok()) {
    std::fprintf(stderr, "audit over recovered state failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("recovered state re-audited: %s\n",
              report->Summary().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int count = 0;
  const bool counted =
      argc == 4 && ParseIntInRange(argv[3], 0, kMaxInt, &count);
  if (counted && std::string(argv[1]) == "drive") {
    return Drive(argv[2], count);
  }
  if (counted && std::string(argv[1]) == "verify") {
    return Verify(argv[2], count);
  }
  std::fprintf(stderr,
               "usage: %s drive HOST:PORT MAX_QUERIES\n"
               "       %s verify DATA_DIR MIN_ACKED\n",
               argv[0], argv[0]);
  return 2;
}
