/// audit_cluster — cluster supervisor for replicated auditd.
///
/// The failover actor the replication design deliberately leaves out of
/// the server (docs/replication.md "Failover"): auditd nodes never
/// elect; an operator or this supervisor observes Health and issues
/// PROMOTE. Subcommands:
///
///   status <host:port>...
///       One line per node: role, applied WAL seq, followers/upstream.
///       Unreachable nodes print "down" (exit stays 0 — status reports,
///       it does not judge).
///   promote <host:port>
///       Sends the PROMOTE admin frame; prints the acknowledged role.
///   failover <host:port>...
///       Picks the most-caught-up live replica (highest applied seq,
///       first wins ties), promotes it, and prints its address on
///       stdout — the line a wrapper script captures as the new
///       primary. Refuses (exit 2) if a live primary is still serving,
///       fails (exit 1) if no replica is reachable.
///   verdict <host:port> <audit-expr> [at-micros]
///       Runs the audit on that node and prints the CanonicalString —
///       the byte-identical replication contract, made diffable.
///   verdict-offline <data-dir> <audit-expr> [at-micros]
///       Recovers a quiesced node's durable state (checkpoint + WAL
///       replay, exactly the restart path) and audits it with the
///       in-process serial Auditor: the ground truth the CI cluster
///       gate diffs live follower verdicts against.
///   wait-applied <host:port> <seq> [timeout-ms]
///       Polls Health until the node's applied seq reaches `seq`
///       (default timeout 10s). Exit 1 on timeout.
///
/// All verdict output goes to stdout alone; diagnostics go to stderr,
/// so `audit_cluster verdict ... > a && diff a b` means what it says.

#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/auditor.h"
#include "src/common/string_util.h"
#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/net/wire.h"

namespace {

using namespace auditdb;
using std::chrono::milliseconds;

constexpr int64_t kDefaultAtMicros = 1000000;  // auditd's t0

/// One node's parsed Health suffix (server.cc ReplicationHealthSuffix).
struct NodeHealth {
  bool reachable = false;
  std::string role;  // "primary" | "replica" | "" (replication off)
  int64_t applied = -1;
  int64_t last_shipped = -1;
  int64_t followers = -1;
  std::string upstream;
  bool connected = false;
};

std::string FieldText(const std::string& health, const std::string& key) {
  size_t pos = health.find("|" + key + "=");
  if (pos == std::string::npos) return "";
  size_t start = pos + key.size() + 2;
  size_t end = health.find('|', start);
  return health.substr(start, end == std::string::npos ? end : end - start);
}

/// A numeric Health field; -1 when absent or malformed.
int64_t FieldValue(const std::string& health, const std::string& key) {
  int64_t value = -1;
  return ParseInt64(FieldText(health, key), &value) ? value : -1;
}

NodeHealth Probe(const std::string& endpoint) {
  NodeHealth node;
  net::AuditClientOptions options;
  options.connect_timeout = milliseconds(1000);
  options.request_timeout = milliseconds(3000);
  options.max_retries = 0;
  options.follow_not_primary = false;
  net::AuditClient client({endpoint}, options);
  auto health = client.Health();
  if (!health.ok()) return node;
  node.reachable = true;
  node.role = FieldText(*health, "role");
  node.applied = FieldValue(*health, "applied");
  node.last_shipped = FieldValue(*health, "last_shipped");
  node.followers = FieldValue(*health, "followers");
  node.upstream = FieldText(*health, "upstream");
  node.connected = FieldValue(*health, "connected") == 1;
  return node;
}

int RunStatus(const std::vector<std::string>& endpoints) {
  for (const auto& endpoint : endpoints) {
    NodeHealth node = Probe(endpoint);
    if (!node.reachable) {
      std::printf("%-24s down\n", endpoint.c_str());
    } else if (node.role.empty()) {
      std::printf("%-24s up (replication off)\n", endpoint.c_str());
    } else if (node.role == "primary") {
      std::printf("%-24s primary  applied=%lld shipped=%lld followers=%lld\n",
                  endpoint.c_str(), static_cast<long long>(node.applied),
                  static_cast<long long>(node.last_shipped),
                  static_cast<long long>(node.followers));
    } else {
      std::printf("%-24s replica  applied=%lld upstream=%s %s\n",
                  endpoint.c_str(), static_cast<long long>(node.applied),
                  node.upstream.c_str(),
                  node.connected ? "connected" : "DISCONNECTED");
    }
  }
  return 0;
}

int Promote(const std::string& endpoint) {
  net::AuditClientOptions options;
  options.follow_not_primary = false;
  net::AuditClient client({endpoint}, options);
  auto response = client.RoundTrip(net::Message{
      net::MessageType::kPromoteRequest, net::EncodeFields({"primary"})});
  if (!response.ok()) {
    std::fprintf(stderr, "promote %s: %s\n", endpoint.c_str(),
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->payload.c_str());
  return 0;
}

int RunFailover(const std::vector<std::string>& endpoints) {
  std::string best;
  int64_t best_applied = -1;
  for (const auto& endpoint : endpoints) {
    NodeHealth node = Probe(endpoint);
    if (!node.reachable) continue;
    if (node.role == "primary") {
      std::fprintf(stderr,
                   "failover: %s is a live primary; not promoting over it\n",
                   endpoint.c_str());
      return 2;
    }
    std::fprintf(stderr, "failover: %s applied=%lld\n", endpoint.c_str(),
                 static_cast<long long>(node.applied));
    // Strictly greater: the most-caught-up follower wins, the first
    // listed wins ties (deterministic for scripted callers).
    if (node.role == "replica" && node.applied > best_applied) {
      best = endpoint;
      best_applied = node.applied;
    }
  }
  if (best.empty()) {
    std::fprintf(stderr, "failover: no reachable replica to promote\n");
    return 1;
  }
  net::AuditClientOptions options;
  options.follow_not_primary = false;
  net::AuditClient client({best}, options);
  auto response = client.RoundTrip(net::Message{
      net::MessageType::kPromoteRequest, net::EncodeFields({"primary"})});
  if (!response.ok() || response->payload != "primary") {
    std::fprintf(stderr, "failover: promote %s failed: %s\n", best.c_str(),
                 response.ok() ? response->payload.c_str()
                               : response.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "failover: promoted %s (applied=%lld)\n",
               best.c_str(), static_cast<long long>(best_applied));
  std::printf("%s\n", best.c_str());
  return 0;
}

int RunVerdict(const std::string& endpoint, const std::string& expression,
               int64_t at_micros) {
  net::AuditClientOptions options;
  options.request_timeout = milliseconds(60000);
  options.follow_not_primary = false;
  net::AuditClient client({endpoint}, options);
  auto report = client.Audit(expression, Timestamp(at_micros));
  if (!report.ok()) {
    std::fprintf(stderr, "verdict %s: %s\n", endpoint.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->canonical.c_str());
  return 0;
}

int RunVerdictOffline(const std::string& data_dir,
                      const std::string& expression, int64_t at_micros) {
  Database db;
  Backlog backlog;
  QueryLog log;
  backlog.Attach(&db);
  auto opened = io::DurableStore::Open(io::Env::Default(), data_dir, &db,
                                       &log, Timestamp(kDefaultAtMicros));
  if (!opened.ok()) {
    std::fprintf(stderr, "verdict-offline %s: %s\n", data_dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "verdict-offline: recovered %zu log entries from %s\n",
               log.size(), data_dir.c_str());
  audit::Auditor auditor(&db, &backlog, &log);
  auto report = auditor.Audit(expression, Timestamp(at_micros));
  if (!report.ok()) {
    std::fprintf(stderr, "verdict-offline: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->CanonicalString().c_str());
  return 0;
}

int WaitApplied(const std::string& endpoint, int64_t seq,
                milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  int64_t last_seen = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    NodeHealth node = Probe(endpoint);
    if (node.reachable) {
      last_seen = node.applied;
      if (node.applied >= seq) {
        std::printf("%lld\n", static_cast<long long>(node.applied));
        return 0;
      }
    }
    std::this_thread::sleep_for(milliseconds(50));
  }
  std::fprintf(stderr, "wait-applied %s: timed out at applied=%lld < %lld\n",
               endpoint.c_str(), static_cast<long long>(last_seen),
               static_cast<long long>(seq));
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: audit_cluster <subcommand> ...\n"
      "  status        <host:port>...\n"
      "  promote       <host:port>\n"
      "  failover      <host:port>...\n"
      "  verdict       <host:port> <audit-expr> [at-micros]\n"
      "  verdict-offline <data-dir> <audit-expr> [at-micros]\n"
      "  wait-applied  <host:port> <seq> [timeout-ms]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  if (command == "status") {
    if (rest.empty()) return Usage();
    return RunStatus(rest);
  }
  if (command == "promote") {
    if (rest.size() != 1) return Usage();
    return Promote(rest[0]);
  }
  if (command == "failover") {
    if (rest.empty()) return Usage();
    return RunFailover(rest);
  }
  if (command == "verdict") {
    if (rest.size() < 2 || rest.size() > 3) return Usage();
    int64_t at = kDefaultAtMicros;
    if (rest.size() == 3 && !ParseInt64(rest[2], &at)) return Usage();
    return RunVerdict(rest[0], rest[1], at);
  }
  if (command == "verdict-offline") {
    if (rest.size() < 2 || rest.size() > 3) return Usage();
    int64_t at = kDefaultAtMicros;
    if (rest.size() == 3 && !ParseInt64(rest[2], &at)) return Usage();
    return RunVerdictOffline(rest[0], rest[1], at);
  }
  if (command == "wait-applied") {
    if (rest.size() < 2 || rest.size() > 3) return Usage();
    int64_t seq = 0;
    int64_t timeout_ms = 10000;
    if (!ParseInt64(rest[1], &seq) ||
        (rest.size() == 3 && !ParseInt64(rest[2], &timeout_ms))) {
      return Usage();
    }
    return WaitApplied(rest[0], seq, milliseconds(timeout_ms));
  }
  return Usage();
}
