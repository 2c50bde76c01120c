/// Experiment N1: network audit serving under loopback load.
///
/// A loopback auditd (in-process AuditServer on an ephemeral port)
/// serves the hospital-fixture world while client threads hammer it:
///
///   1. audit throughput / latency (p50/p95/p99 off the service
///      Histogram) vs concurrent client count — every remote report is
///      checked byte-identical to the serial Auditor's CanonicalString;
///   2. framing overhead vs frame size (padded Health payloads);
///   3. admission policy under overload: a tiny handler queue with
///      kReject sheds RESOURCE_EXHAUSTED to clients, kBlock pauses
///      reads and stalls them — same offered load, different failure
///      mode;
///   4. push delivery latency (docs/wire_protocol.md "Alerting"):
///      subscribers on a THRESHOLD ALL standing expression receive one
///      PUSH per driver query; the sweep measures observe→deliver
///      latency (query dispatched → handler invoked) vs subscriber
///      count and queue depth, and writes the rows to BENCH_push.json
///      ({"benchmarks": [...]}, the shape CI artifact checks expect).
///
///   5. replication overhead (docs/replication.md): an in-process
///      primary plus F bootstrap-synced followers, sweeping
///      followers {1,2} x ack policy {none,quorum,all}; measures
///      ExecuteQuery commit latency (which under quorum/all includes
///      the follower fsync+ack round trip), async catch-up time under
///      ack=none, and checks every follower's audit verdict
///      byte-identical to the primary's. Rows land in BENCH_repl.json.
///
/// Run: build/bench/bench_net [audits-per-client]
///      build/bench/bench_net push [queries-per-combo]   (sweep 4 only)
///      build/bench/bench_net repl [writes-per-combo]    (sweep 5 only)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <deque>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/metrics.h"

namespace {

using namespace auditdb;
using bench::Ts;
using bench::WriteBenchmarksJson;
using Clock = std::chrono::steady_clock;

constexpr size_t kPatients = 150;
constexpr size_t kLogSize = 400;

struct LoadResult {
  uint64_t ok = 0;
  uint64_t shed = 0;       // RESOURCE_EXHAUSTED responses
  uint64_t errors = 0;     // anything else
  uint64_t mismatches = 0; // canonical != serial
  double seconds = 0;
  service::Histogram latency;
};

/// `clients` threads each issue `per_client` requests; audits compare
/// against `expected_canonical` (empty = health pings of `pad` bytes).
void RunLoad(const net::AuditServer& server, size_t clients,
             size_t per_client, const std::string& audit_expr,
             const std::string& expected_canonical, size_t pad,
             LoadResult* result) {
  std::atomic<uint64_t> ok{0}, shed{0}, errors{0}, mismatches{0};
  auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      (void)c;
      net::AuditClient client(server.host(), server.port());
      std::string padding(pad, 'x');
      for (size_t i = 0; i < per_client; ++i) {
        auto t0 = Clock::now();
        Status status;
        if (!audit_expr.empty()) {
          auto report = client.Audit(audit_expr, Ts(1000000));
          status = report.ok() ? Status::Ok() : report.status();
          if (report.ok() && report->canonical != expected_canonical) {
            mismatches.fetch_add(1);
          }
        } else {
          auto response = client.RoundTrip(
              net::Message{net::MessageType::kHealthRequest, padding});
          status = response.ok() ? Status::Ok() : response.status();
        }
        uint64_t micros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count());
        result->latency.Observe(micros);
        if (status.ok()) {
          ok.fetch_add(1);
        } else if (status.code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  result->seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result->ok = ok.load();
  result->shed = shed.load();
  result->errors = errors.load();
  result->mismatches = mismatches.load();
}

void PrintRow(const char* label, const LoadResult& r) {
  uint64_t total = r.ok + r.shed + r.errors;
  std::printf(
      "%-28s %8llu req %9.0f req/s  p50 %6llu us  p95 %6llu us  "
      "p99 %7llu us  shed %5llu  err %3llu  mismatch %llu\n",
      label, static_cast<unsigned long long>(total),
      r.seconds > 0 ? static_cast<double>(total) / r.seconds : 0.0,
      static_cast<unsigned long long>(r.latency.QuantileUpperBound(0.5)),
      static_cast<unsigned long long>(r.latency.QuantileUpperBound(0.95)),
      static_cast<unsigned long long>(r.latency.QuantileUpperBound(0.99)),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.mismatches));
}

struct ServerStack {
  std::unique_ptr<bench::World> world;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<net::AuditServer> server;
};

ServerStack MakeServer(service::AdmissionPolicy admission,
                       size_t handler_threads, size_t handler_queue) {
  ServerStack stack;
  stack.world = bench::MakeWorld(kPatients, kLogSize);
  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = 4;
  stack.service = std::make_unique<service::AuditService>(
      &stack.world->db, &stack.world->backlog, &stack.world->log,
      service_options);
  net::AuditServerOptions server_options;
  server_options.handlers.num_threads = handler_threads;
  server_options.handlers.queue_capacity = handler_queue;
  server_options.handlers.admission = admission;
  stack.server = std::make_unique<net::AuditServer>(
      stack.service.get(), &stack.world->db, &stack.world->backlog,
      &stack.world->log, server_options);
  if (!stack.server->Start().ok()) std::abort();
  return stack;
}

/// One push-sweep configuration: `subscribers` clients on the same
/// THRESHOLD ALL standing expression, `queries` distinct-pid driver
/// queries (exactly one push per query per subscription), latency
/// measured from just before the driver dispatches the query to the
/// moment the subscriber's handler runs.
struct PushRow {
  size_t subscribers = 0;
  size_t queue_depth = 0;
  uint64_t delivered = 0;
  uint64_t expected = 0;
  double seconds = 0;
  service::Histogram latency;
};

void RunPushSweep(size_t subscribers, size_t queue_depth, size_t queries,
                  PushRow* row) {
  row->subscribers = subscribers;
  row->queue_depth = queue_depth;
  row->expected = static_cast<uint64_t>(subscribers * queries);

  auto world = bench::MakeWorld(queries + 50, /*queries=*/0);
  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = 4;
  auto service = std::make_unique<service::AuditService>(
      &world->db, &world->backlog, &world->log, service_options);
  net::AuditServerOptions server_options;
  server_options.push_queue_depth = queue_depth;
  auto server = std::make_unique<net::AuditServer>(
      service.get(), &world->db, &world->backlog, &world->log,
      server_options);
  if (!server->Start().ok()) std::abort();

  // Every distinct-pid query moves the expression's rank by one fact:
  // a deterministic one-push-per-query workload.
  const std::string expr =
      "DURING 1/1/1970 to 1/1/1990 THRESHOLD ALL "
      "AUDIT (name) FROM P-Personal";
  // sent[q] is written by the driver before query q is dispatched and
  // read by receiver threads only after the server echoes the push the
  // query generated — ordered through the round trip.
  std::vector<Clock::time_point> sent(queries + 1);
  std::atomic<uint64_t> delivered{0};
  std::vector<std::unique_ptr<net::AuditClient>> clients;
  for (size_t s = 0; s < subscribers; ++s) {
    auto client =
        std::make_unique<net::AuditClient>(server->host(), server->port());
    auto sub = client->Subscribe(
        expr, Ts(1), [&, queries](const net::PushEvent& event) {
          if (event.kind == net::PushKind::kGap ||
              event.seq > queries) {
            return;
          }
          uint64_t micros = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - sent[event.seq])
                  .count());
          row->latency.Observe(micros);
          delivered.fetch_add(1);
        });
    if (!sub.ok()) std::abort();
    clients.push_back(std::move(client));
  }

  net::AuditClient driver(server->host(), server->port());
  auto start = Clock::now();
  for (size_t q = 1; q <= queries; ++q) {
    sent[q] = Clock::now();
    auto result = driver.ExecuteQuery(
        "SELECT name FROM P-Personal WHERE pid = 'p" + std::to_string(q) +
            "'",
        "bench", "driver", "load", Timestamp(2000000 + (int64_t)q));
    if (!result.ok()) std::abort();
  }
  auto deadline = Clock::now() + std::chrono::seconds(30);
  while (delivered.load() < row->expected && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  row->seconds = std::chrono::duration<double>(Clock::now() - start).count();
  row->delivered = delivered.load();
  for (auto& client : clients) client->Close();
  server->Shutdown();
}

/// Per-second rate of `count` events over `seconds` (0 when untimed).
double PerSecond(uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
}

/// Writes the sweep rows as BENCH_push.json in the working directory.
bool WritePushJson(const std::deque<PushRow>& rows, const char* path) {
  service::JsonArray json;
  for (const PushRow& row : rows) {
    json.Add(service::JsonObject()
                 .Add("name", "BM_PushDeliver/subs:" +
                                  std::to_string(row.subscribers) +
                                  "/depth:" + std::to_string(row.queue_depth))
                 .Add("subscribers", row.subscribers)
                 .Add("queue_depth", row.queue_depth)
                 .Add("delivered", row.delivered)
                 .Add("expected", row.expected)
                 .Add("p50_us", row.latency.QuantileUpperBound(0.5))
                 .Add("p99_us", row.latency.QuantileUpperBound(0.99))
                 .Add("pushes_per_second",
                      PerSecond(row.delivered, row.seconds), 0)
                 .str());
  }
  return WriteBenchmarksJson(json, path);
}

/// Sweep 4: push delivery latency vs subscriber count and queue depth.
/// Returns the number of configurations that lost pushes (must be 0:
/// fast local subscribers should never overflow even a depth-8 queue).
uint64_t RunPushSection(size_t queries) {
  std::printf("-- push delivery latency (THRESHOLD ALL expression, "
              "%zu queries per combo) --\n",
              queries);
  std::deque<PushRow> rows;
  uint64_t lost = 0;
  for (size_t subscribers : {1, 4, 8}) {
    for (size_t depth : {8u, 64u}) {
      rows.emplace_back();
      PushRow& row = rows.back();
      RunPushSweep(subscribers, depth, queries, &row);
      std::printf(
          "push x%zu subs depth %-3zu %8llu/%llu delivered  "
          "%9.0f push/s  p50 %6llu us  p99 %7llu us\n",
          row.subscribers, row.queue_depth,
          static_cast<unsigned long long>(row.delivered),
          static_cast<unsigned long long>(row.expected),
          PerSecond(row.delivered, row.seconds),
          static_cast<unsigned long long>(
              row.latency.QuantileUpperBound(0.5)),
          static_cast<unsigned long long>(
              row.latency.QuantileUpperBound(0.99)));
      if (row.delivered != row.expected) ++lost;
    }
  }
  if (!WritePushJson(rows, "BENCH_push.json")) {
    std::fprintf(stderr, "could not write BENCH_push.json\n");
    return lost + 1;
  }
  std::printf("wrote BENCH_push.json (%zu rows)\n", rows.size());
  return lost;
}

/// One empty replica node: bootstrap-syncs the primary's fixture over
/// the REPLICATE stream (bench::MakeWorld always populates the hospital,
/// so replicas build their stores by hand like a fresh auditd would).
struct ReplicaNode {
  Database db;
  Backlog backlog;
  QueryLog log;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<net::AuditServer> server;

  explicit ReplicaNode(const std::string& upstream) {
    backlog.Attach(&db);
    service = std::make_unique<service::AuditService>(&db, &backlog, &log);
    net::AuditServerOptions options;
    options.replicate_from = upstream;
    options.repl_ack_timeout = std::chrono::milliseconds(10000);
    options.replication = true;
    server = std::make_unique<net::AuditServer>(service.get(), &db,
                                                &backlog, &log, options);
    if (!server->Start().ok()) std::abort();
  }
};

/// One replication-sweep configuration: `followers` replicas behind one
/// primary running ack policy `ack`, `writes` sequential ExecuteQuery
/// commits. Commit latency is measured at the client; under
/// quorum/all it includes the follower round trip by construction.
struct ReplRow {
  size_t followers = 0;
  net::ReplAckPolicy ack = net::ReplAckPolicy::kNone;
  uint64_t writes = 0;
  double seconds = 0;
  double catchup_ms = 0;  // end of writes -> last follower caught up
  uint64_t errors = 0;
  uint64_t mismatches = 0;  // follower verdict != primary verdict
  service::Histogram latency;
};

void RunReplSweep(size_t followers, net::ReplAckPolicy ack, size_t writes,
                  ReplRow* row) {
  row->followers = followers;
  row->ack = ack;
  row->writes = writes;

  auto world = bench::MakeWorld(kPatients, /*queries=*/0);
  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = 4;
  auto service = std::make_unique<service::AuditService>(
      &world->db, &world->backlog, &world->log, service_options);
  net::AuditServerOptions server_options;
  server_options.repl_ack = ack;
  server_options.repl_ack_timeout = std::chrono::milliseconds(10000);
  server_options.replication = true;
  auto server = std::make_unique<net::AuditServer>(
      service.get(), &world->db, &world->backlog, &world->log,
      server_options);
  if (!server->Start().ok()) std::abort();
  std::string upstream =
      server->host() + ":" + std::to_string(server->port());

  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  for (size_t f = 0; f < followers; ++f) {
    replicas.push_back(std::make_unique<ReplicaNode>(upstream));
  }
  auto registered_by = Clock::now() + std::chrono::seconds(20);
  while (server->follower_count() < followers &&
         Clock::now() < registered_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (server->follower_count() < followers) std::abort();

  net::AuditClient driver(server->host(), server->port());
  auto start = Clock::now();
  for (size_t i = 0; i < writes; ++i) {
    auto t0 = Clock::now();
    auto result = driver.ExecuteQuery(
        "SELECT name FROM P-Personal WHERE pid = 'p" +
            std::to_string(i % kPatients) + "'",
        "bench", "driver", "load", Timestamp(2000000 + (int64_t)i));
    row->latency.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count()));
    if (!result.ok()) ++row->errors;
  }
  auto writes_done = Clock::now();
  row->seconds = std::chrono::duration<double>(writes_done - start).count();

  // Under ack=none shipping is fire-and-forget: the catch-up gap is the
  // quantity of interest. Under quorum/all it should be ~0 for the
  // acked majority.
  auto caught_up_by = writes_done + std::chrono::seconds(30);
  for (auto& replica : replicas) {
    while (replica->server->applied_log_id() <
               static_cast<int64_t>(writes) &&
           Clock::now() < caught_up_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  row->catchup_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - writes_done)
          .count();

  // The replication contract, checked end to end: every follower's
  // audit verdict is byte-identical to the primary's.
  auto on_primary = driver.Audit(bench::CanonicalAudit(), Ts(1000000));
  if (!on_primary.ok()) {
    ++row->errors;
  } else {
    for (auto& replica : replicas) {
      net::AuditClient reader(replica->server->host(),
                              replica->server->port());
      auto on_replica = reader.Audit(bench::CanonicalAudit(), Ts(1000000));
      if (!on_replica.ok() ||
          on_replica->canonical != on_primary->canonical) {
        ++row->mismatches;
      }
    }
  }

  for (auto& replica : replicas) replica->server->Shutdown();
  server->Shutdown();
}

/// Writes the sweep rows as BENCH_repl.json, in BENCH_push.json's shape.
bool WriteReplJson(const std::deque<ReplRow>& rows, const char* path) {
  service::JsonArray json;
  for (const ReplRow& row : rows) {
    const char* ack = net::ReplAckPolicyName(row.ack);
    json.Add(service::JsonObject()
                 .Add("name", "BM_ReplCommit/followers:" +
                                  std::to_string(row.followers) + "/ack:" +
                                  ack)
                 .Add("followers", row.followers)
                 .Add("ack", ack)
                 .Add("writes", row.writes)
                 .Add("p50_us", row.latency.QuantileUpperBound(0.5))
                 .Add("p99_us", row.latency.QuantileUpperBound(0.99))
                 .Add("writes_per_second", PerSecond(row.writes, row.seconds),
                      0)
                 .Add("catchup_ms", row.catchup_ms, 1)
                 .Add("errors", row.errors)
                 .Add("verdict_mismatches", row.mismatches)
                 .str());
  }
  return WriteBenchmarksJson(json, path);
}

/// Sweep 5: replication overhead vs follower count and ack policy.
/// Returns the number of rows with errors or verdict mismatches.
uint64_t RunReplSection(size_t writes) {
  std::printf("-- replication overhead (hospital fixture, %zu writes "
              "per combo) --\n",
              writes);
  std::deque<ReplRow> rows;
  uint64_t bad = 0;
  for (size_t followers : {1, 2}) {
    for (auto ack : {net::ReplAckPolicy::kNone, net::ReplAckPolicy::kQuorum,
                     net::ReplAckPolicy::kAll}) {
      rows.emplace_back();
      ReplRow& row = rows.back();
      RunReplSweep(followers, ack, writes, &row);
      std::printf(
          "repl x%zu followers ack=%-6s %8llu writes  %9.0f w/s  "
          "p50 %6llu us  p99 %7llu us  catchup %6.1f ms  err %llu  "
          "mismatch %llu\n",
          row.followers, net::ReplAckPolicyName(row.ack),
          static_cast<unsigned long long>(row.writes),
          PerSecond(row.writes, row.seconds),
          static_cast<unsigned long long>(
              row.latency.QuantileUpperBound(0.5)),
          static_cast<unsigned long long>(
              row.latency.QuantileUpperBound(0.99)),
          row.catchup_ms, static_cast<unsigned long long>(row.errors),
          static_cast<unsigned long long>(row.mismatches));
      if (row.errors != 0 || row.mismatches != 0) ++bad;
    }
  }
  if (!WriteReplJson(rows, "BENCH_repl.json")) {
    std::fprintf(stderr, "could not write BENCH_repl.json\n");
    return bad + 1;
  }
  std::printf("wrote BENCH_repl.json (%zu rows)\n", rows.size());
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "repl") {
    size_t writes =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;
    uint64_t bad = RunReplSection(writes);
    std::printf("\nfollower verdicts byte-identical to the primary: %s\n",
                bad == 0 ? "yes" : "NO (bug!)");
    return bad == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "push") {
    size_t queries =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;
    uint64_t lost = RunPushSection(queries);
    std::printf("\npush delivery lossless: %s\n",
                lost == 0 ? "yes" : "NO (bug!)");
    return lost == 0 ? 0 : 1;
  }
  size_t per_client = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
  std::printf("bench_net: %zu patients, %zu logged queries, "
              "%zu requests per client\n\n",
              kPatients, kLogSize, per_client);

  // Serial ground truth for the identity checks.
  auto reference = bench::MakeWorld(kPatients, kLogSize);
  audit::Auditor auditor(&reference->db, &reference->backlog,
                         &reference->log);
  auto serial = auditor.Audit(bench::CanonicalAudit(), Ts(1000000));
  if (!serial.ok()) {
    std::fprintf(stderr, "%s\n", serial.status().ToString().c_str());
    return 1;
  }
  std::string expected = serial->CanonicalString();
  uint64_t total_mismatches = 0;

  std::printf("-- audit load vs client count (handlers=4, queue=64, "
              "block) --\n");
  for (size_t clients : {1, 2, 4, 8, 16}) {
    auto stack =
        MakeServer(service::AdmissionPolicy::kBlock, 4, 64);
    LoadResult result;
    RunLoad(*stack.server, clients, per_client, bench::CanonicalAudit(),
            expected, 0, &result);
    char label[64];
    std::snprintf(label, sizeof(label), "audit x%zu clients", clients);
    PrintRow(label, result);
    total_mismatches += result.mismatches + result.errors;
    stack.server->Shutdown();
  }

  std::printf("\n-- framing overhead vs frame size (health pings, "
              "8 clients) --\n");
  for (size_t pad : {64u, 4096u, 65536u, 524288u}) {
    auto stack = MakeServer(service::AdmissionPolicy::kBlock, 4, 64);
    LoadResult result;
    RunLoad(*stack.server, 8, per_client * 10, "", "", pad, &result);
    char label[64];
    std::snprintf(label, sizeof(label), "health %zuB frames", pad);
    PrintRow(label, result);
    total_mismatches += result.errors;
    stack.server->Shutdown();
  }

  std::printf("\n-- admission policy under overload (handlers=1, "
              "queue=2, 16 clients) --\n");
  for (auto admission : {service::AdmissionPolicy::kReject,
                         service::AdmissionPolicy::kBlock}) {
    auto stack = MakeServer(admission, 1, 2);
    LoadResult result;
    RunLoad(*stack.server, 16, per_client, bench::CanonicalAudit(),
            expected, 0, &result);
    PrintRow(admission == service::AdmissionPolicy::kReject
                 ? "overload, reject (sheds)"
                 : "overload, block (stalls)",
             result);
    total_mismatches += result.mismatches;
    stack.server->Shutdown();
  }

  std::printf("\n");
  total_mismatches += RunPushSection(per_client * 10);

  std::printf("\nremote reports byte-identical to serial Auditor: %s\n",
              total_mismatches == 0 ? "yes" : "NO (bug!)");
  return total_mismatches == 0 ? 0 : 1;
}
