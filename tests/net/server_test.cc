#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/auditor.h"
#include "src/io/dump.h"
#include "src/net/client.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/net/metrics_json.h"

namespace auditdb {
namespace net {
namespace {

using std::chrono::milliseconds;

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char kAudit[] =
    "DURING 1/1/1970 to 2/1/1970 "
    "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

// Not subsumed by kAudit (disjoint predicate), so a library holding both
// keeps two members.
const char kAuditAnemia[] =
    "DURING 1/1/1970 to 2/1/1970 "
    "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='anemia'";

/// A hospital world plus a server bound to it on an ephemeral port.
struct ServedWorld {
  Database db;
  Backlog backlog;
  QueryLog log;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<AuditServer> server;

  explicit ServedWorld(AuditServerOptions options = AuditServerOptions{},
                       size_t patients = 60, size_t queries = 150) {
    backlog.Attach(&db);
    if (patients > 0) {
      workload::HospitalConfig hospital;
      hospital.num_patients = patients;
      hospital.seed = 2008;
      EXPECT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
      workload::WorkloadConfig workload;
      workload.num_queries = queries;
      workload.start = Ts(100);
      EXPECT_TRUE(
          workload::GenerateWorkload(&log, workload, hospital).ok());
    }
    service = std::make_unique<service::AuditService>(&db, &backlog, &log);
    server = std::make_unique<AuditServer>(service.get(), &db, &backlog,
                                           &log, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
};

/// Blocking loopback socket for protocol-level (mis)behavior tests.
int DialRaw(const AuditServer& server) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  EXPECT_EQ(::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

/// Reads response frames until EOF (or a protocol error on our side).
std::vector<Message> ReadUntilEof(int fd) {
  std::vector<Message> frames;
  FrameReader reader;
  char buf[8192];
  while (true) {
    auto next = reader.Next();
    if (!next.ok()) break;
    if (next->has_value()) {
      frames.push_back(std::move(**next));
      continue;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reader.Feed(buf, static_cast<size_t>(n));
  }
  return frames;
}

// --- Happy paths -----------------------------------------------------

TEST(AuditServerTest, HealthAndMetrics) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  AuditClient client(world.server->host(), world.server->port());
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok");
  auto metrics = client.MetricsJson();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("\"server\""), std::string::npos);
  EXPECT_NE(metrics->find("\"service\""), std::string::npos);
  EXPECT_NE(metrics->find("net.frames_received"), std::string::npos);
  // The decision-cache counters ride along as the "index" section.
  EXPECT_NE(metrics->find("\"index\""), std::string::npos);
  EXPECT_NE(metrics->find("\"cache_hits\""), std::string::npos);
}

TEST(AuditServerTest, RemoteAuditMatchesSerialAuditorByteForByte) {
  ServedWorld world;
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  auto serial = auditor.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  AuditClient client(world.server->host(), world.server->port());
  auto remote = client.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->canonical, serial->CanonicalString());
  // The detailed report embeds wall-clock phase timings, so only its
  // shape is checked; the canonical string is the byte-stable contract.
  EXPECT_NE(remote->detailed.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(remote->detailed.find("batch verdict"), std::string::npos);

  // The static-analysis-only pipeline travels the same path.
  audit::AuditOptions static_options;
  static_options.static_only = true;
  auto serial_static = auditor.Audit(kAudit, Ts(1000000), static_options);
  ASSERT_TRUE(serial_static.ok());
  auto remote_static =
      client.Audit(kAudit, Ts(1000000), /*static_only=*/true);
  ASSERT_TRUE(remote_static.ok()) << remote_static.status().ToString();
  EXPECT_EQ(remote_static->canonical, serial_static->CanonicalString());
}

TEST(AuditServerTest, ConcurrentClientsAllGetIdenticalReports) {
  ServedWorld world;
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  auto serial = auditor.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(serial.ok());
  std::string expected = serial->CanonicalString();

  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&] {
      AuditClient client(world.server->host(), world.server->port());
      for (int i = 0; i < 3; ++i) {
        auto remote = client.Audit(kAudit, Ts(1000000));
        if (!remote.ok()) {
          failures.fetch_add(1);
        } else if (remote->canonical != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(AuditServerTest, ScreenLibraryMatchesSerialScreenings) {
  ServedWorld world;
  audit::Auditor auditor(&world.db, &world.backlog, &world.log);
  auto serial_a = auditor.Audit(kAudit, Ts(1000000));
  auto serial_b = auditor.Audit(kAuditAnemia, Ts(1000000));
  ASSERT_TRUE(serial_a.ok() && serial_b.ok());

  AuditClient client(world.server->host(), world.server->port());
  auto screenings =
      client.ScreenLibrary({kAudit, kAuditAnemia}, Ts(1000000));
  ASSERT_TRUE(screenings.ok()) << screenings.status().ToString();
  ASSERT_EQ(screenings->size(), 2u);
  std::vector<std::string> canonicals;
  for (const auto& screening : *screenings) {
    ASSERT_TRUE(screening.status.ok()) << screening.status.ToString();
    canonicals.push_back(screening.canonical);
  }
  EXPECT_NE(canonicals[0], canonicals[1]);
  for (const std::string& expected :
       {serial_a->CanonicalString(), serial_b->CanonicalString()}) {
    EXPECT_TRUE(canonicals[0] == expected || canonicals[1] == expected)
        << expected;
  }
}

TEST(AuditServerTest, ExecuteQueryAppendsToServedLog) {
  ServedWorld world;
  size_t before = world.log.size();
  AuditClient client(world.server->host(), world.server->port());
  auto result = client.ExecuteQuery(
      "SELECT name FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'",
      "mallory", "clerk", "billing", Ts(900000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->num_rows, 0u);
  ASSERT_EQ(world.log.size(), before + 1);
  const auto& entry = world.log.Entry(world.log.size() - 1);
  EXPECT_EQ(entry.user, "mallory");
  EXPECT_EQ(entry.timestamp, Ts(900000));

  // The join probed P-Health's join-key index, built for the version it
  // read; the versions metrics section reports the build.
  auto metrics = client.MetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  size_t health = metrics->find("\"P-Health\":{");
  ASSERT_NE(health, std::string::npos) << *metrics;
  EXPECT_GE(CounterFromJson(metrics->substr(health), "join_index_builds"),
            1u)
      << *metrics;
  EXPECT_NE(metrics->find("\"join_index_hits\":"), std::string::npos);

  // A bad query is an error response, not an appended entry.
  auto bad = client.ExecuteQuery("SELECT nope FROM NoSuchTable", "u", "r",
                                 "p", Ts(900001));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(world.log.size(), before + 1);
}

TEST(AuditServerTest, LoadDumpThenRemoteAuditMatchesOrigin) {
  // Origin world, dumped to text.
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  QueryLog log;
  workload::HospitalConfig hospital;
  hospital.num_patients = 40;
  hospital.seed = 2008;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
  workload::WorkloadConfig workload;
  workload.num_queries = 80;
  workload.start = Ts(100);
  ASSERT_TRUE(workload::GenerateWorkload(&log, workload, hospital).ok());
  std::stringstream db_dump, log_dump;
  ASSERT_TRUE(io::WriteDatabaseDump(db, db_dump).ok());
  ASSERT_TRUE(io::WriteQueryLogDump(log, log_dump).ok());
  audit::Auditor auditor(&db, &backlog, &log);
  auto serial = auditor.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(serial.ok());

  // An empty served world, populated over the wire.
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  AuditClient client(world.server->host(), world.server->port());
  ASSERT_TRUE(client.LoadDatabaseDump(db_dump.str(), Ts(1)).ok());
  ASSERT_TRUE(client.LoadQueryLogDump(log_dump.str()).ok());
  auto remote = client.Audit(kAudit, Ts(1000000));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->canonical, serial->CanonicalString());
}

TEST(AuditServerTest, MetricsQuoteTableNamesFromADump) {
  // A table name is client data: a dump may call a table a"b\c. The
  // versions section must render it as an escaped JSON key, not paste
  // it in raw (which made the whole metrics reply invalid JSON).
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  AuditClient client(world.server->host(), world.server->port());
  ASSERT_TRUE(client
                  .LoadDatabaseDump("TABLE a\"b\\c\nCOLUMNS x:INT\nEND\n",
                                    Ts(1))
                  .ok());
  auto metrics = client.MetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\"a\\\"b\\\\c\":{\"epoch\":"), std::string::npos)
      << *metrics;
  EXPECT_EQ(metrics->find("\"a\"b\\c\""), std::string::npos) << *metrics;
}

TEST(AuditServerTest, PipelinedRequestsAnswerInOrder) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  int fd = DialRaw(*world.server);
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += EncodeFrame({MessageType::kHealthRequest,
                         "ping " + std::to_string(i)});
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  FrameReader reader;
  char buf[4096];
  std::vector<Message> responses;
  while (responses.size() < 10) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    reader.Feed(buf, static_cast<size_t>(n));
    while (true) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      responses.push_back(std::move(**next));
    }
  }
  for (const auto& response : responses) {
    EXPECT_EQ(response.type, MessageType::kOkResponse);
    EXPECT_EQ(response.payload, "ok");
  }
  ::close(fd);
}

// Regression: frames pipelined past max_pipelined used to sit in the
// connection's FrameReader forever — the unpause path only re-armed
// EPOLLIN, and with the socket already drained no event ever fired.
TEST(AuditServerTest, BurstFarBeyondPipelineCap) {
  AuditServerOptions options;
  options.max_pipelined = 4;
  ServedWorld world(options, /*patients=*/0, /*queries=*/0);
  int fd = DialRaw(*world.server);
  constexpr int kRequests = 64;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    wire += EncodeFrame({MessageType::kHealthRequest,
                         "burst " + std::to_string(i)});
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  FrameReader reader;
  char buf[8192];
  int responses = 0;
  while (responses < kRequests) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "server stalled after " << responses
                    << " responses";
    reader.Feed(buf, static_cast<size_t>(n));
    while (true) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      EXPECT_EQ((*next)->type, MessageType::kOkResponse);
      ++responses;
    }
  }
  EXPECT_EQ(responses, kRequests);
  ::close(fd);
}

// --- Protocol violations and resource limits -------------------------

TEST(AuditServerTest, OversizedFrameIsRejectedAndConnectionCloses) {
  AuditServerOptions options;
  options.max_frame_bytes = 1024;
  ServedWorld world(options, /*patients=*/0, /*queries=*/0);
  int fd = DialRaw(*world.server);
  std::string wire =
      EncodeFrame({MessageType::kHealthRequest, std::string(4096, 'x')});
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  auto frames = ReadUntilEof(fd);  // error response, then EOF
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kErrorResponse);
  EXPECT_EQ(DecodeErrorMessage(frames[0].payload).code(),
            StatusCode::kOutOfRange);
  ::close(fd);
  EXPECT_GE(CounterFromJson(world.server->MetricsJson(),
                            "net.oversized_frames"),
            1u);
}

TEST(AuditServerTest, GarbageBytesCloseTheConnection) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  int fd = DialRaw(*world.server);
  const char junk[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  ASSERT_GT(::send(fd, junk, sizeof(junk) - 1, MSG_NOSIGNAL), 0);
  auto frames = ReadUntilEof(fd);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kErrorResponse);
  ::close(fd);
  EXPECT_GE(
      CounterFromJson(world.server->MetricsJson(), "net.frame_errors"),
      1u);
}

// A framing error arriving while an earlier request executes must not
// jump the queue: the dying connection still answers in request order.
TEST(AuditServerTest, FramingErrorWaitsForInFlightResponse) {
  ServedWorld world;
  int fd = DialRaw(*world.server);
  std::string wire = EncodeFrame(
      {MessageType::kAuditRequest,
       EncodeFields({kAudit, std::to_string(Ts(1000000).micros())})});
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Wait until the audit request is parsed (and thus handed to a
  // handler) before the garbage arrives, so the violation lands on a
  // busy connection.
  ASSERT_TRUE(WaitForCounter(*world.server, "net.frames_received", 1,
                             milliseconds(5000)));
  const char junk[] = "NOT A FRAME";
  ASSERT_EQ(::send(fd, junk, sizeof(junk) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(junk) - 1));
  auto frames = ReadUntilEof(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kOkResponse);
  EXPECT_EQ(frames[1].type, MessageType::kErrorResponse);
  EXPECT_EQ(DecodeErrorMessage(frames[1].payload).code(),
            StatusCode::kParseError);
  ::close(fd);
}

TEST(AuditServerTest, OversizedResponseBecomesErrorConnectionSurvives) {
  AuditServerOptions options;
  options.max_response_bytes = 128;
  ServedWorld world(options, /*patients=*/0, /*queries=*/0);
  AuditClient client(world.server->host(), world.server->port());
  // The metrics JSON dwarfs 128 bytes: the reply degrades to OutOfRange
  // instead of a frame the client's reader would refuse.
  auto metrics = client.MetricsJson();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kOutOfRange);
  // The stream stayed in sync; small responses keep flowing.
  EXPECT_TRUE(client.Health().ok());
  EXPECT_GE(CounterFromJson(world.server->MetricsJson(),
                            "net.oversized_responses"),
            1u);
}

TEST(AuditServerTest, OversizedExecuteResponseDoesNotAppendToLog) {
  AuditServerOptions options;
  options.max_response_bytes = 32;
  ServedWorld world(options);
  size_t before = world.log.size();
  AuditClient client(world.server->host(), world.server->port());
  auto result = client.ExecuteQuery(
      "SELECT name FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'",
      "mallory", "clerk", "billing", Ts(900000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  // The non-idempotent log append was refused up front, not after.
  EXPECT_EQ(world.log.size(), before);
}

TEST(AuditServerTest, IdleConnectionsAreEvicted) {
  AuditServerOptions options;
  options.idle_timeout = milliseconds(100);
  ServedWorld world(options, /*patients=*/0, /*queries=*/0);
  int fd = DialRaw(*world.server);
  auto frames = ReadUntilEof(fd);  // no request: the server hangs up
  EXPECT_TRUE(frames.empty());
  ::close(fd);
  EXPECT_TRUE(
      WaitForCounter(*world.server, "net.evicted_idle", 1,
                     milliseconds(2000)));
}

TEST(AuditServerTest, ConnectionLimitTurnsExtraClientsAway) {
  AuditServerOptions options;
  options.max_connections = 2;
  ServedWorld world(options, /*patients=*/0, /*queries=*/0);
  AuditClient first(world.server->host(), world.server->port());
  AuditClient second(world.server->host(), world.server->port());
  ASSERT_TRUE(first.Health().ok());
  ASSERT_TRUE(second.Health().ok());

  int fd = DialRaw(*world.server);
  auto frames = ReadUntilEof(fd);  // over-limit: error (best effort) + EOF
  for (const auto& frame : frames) {
    EXPECT_EQ(frame.type, MessageType::kErrorResponse);
  }
  ::close(fd);
  EXPECT_GE(CounterFromJson(world.server->MetricsJson(),
                            "net.connections_rejected"),
            1u);
  // The admitted clients keep working.
  EXPECT_TRUE(first.Health().ok());
}

TEST(AuditServerTest, RejectAdmissionSurfacesResourceExhausted) {
  AuditServerOptions options;
  options.handlers.num_threads = 1;
  options.handlers.queue_capacity = 1;
  options.handlers.admission = service::AdmissionPolicy::kReject;
  ServedWorld world(options);

  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&] {
      AuditClientOptions client_options;
      client_options.retry_idempotent = false;
      AuditClient client(world.server->host(), world.server->port(),
                         client_options);
      for (int i = 0; i < 4; ++i) {
        auto remote = client.Audit(kAudit, Ts(1000000));
        if (remote.ok()) {
          ok.fetch_add(1);
        } else if (remote.status().code() ==
                   StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);        // the server kept serving
  EXPECT_GT(shed.load(), 0);      // and admission control pushed back
  EXPECT_GE(CounterFromJson(world.server->MetricsJson(),
                            "net.admission_rejected"),
            static_cast<uint64_t>(shed.load()));
}

// --- Graceful drain --------------------------------------------------

TEST(AuditServerTest, DrainAnswersEveryInFlightRequest) {
  ServedWorld world;
  constexpr int kRequests = 6;
  int fd = DialRaw(*world.server);
  std::string wire;
  std::string payload = EncodeFields(
      {kAudit, std::to_string(Ts(1000000).micros())});
  for (int i = 0; i < kRequests; ++i) {
    wire += EncodeFrame({MessageType::kAuditRequest, payload});
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // Only begin the drain once the server has parsed all six requests.
  ASSERT_TRUE(WaitForCounter(*world.server, "net.frames_received",
                             kRequests, milliseconds(5000)));
  std::thread shutdown([&] { world.server->Shutdown(); });

  auto frames = ReadUntilEof(fd);
  shutdown.join();
  ::close(fd);

  // Zero dropped: every request got a response before the socket closed
  // — completed audits an Ok report, not-yet-started ones a clean
  // Cancelled, never a torn connection.
  ASSERT_EQ(frames.size(), static_cast<size_t>(kRequests));
  int completed = 0, cancelled = 0;
  for (const auto& frame : frames) {
    if (frame.type == MessageType::kOkResponse) {
      ++completed;
    } else {
      Status status = DecodeErrorMessage(frame.payload);
      EXPECT_EQ(status.code(), StatusCode::kCancelled)
          << status.ToString();
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, kRequests);
  EXPECT_GE(completed, 1);  // the in-flight request finished its audit
  EXPECT_FALSE(world.server->running());

  // New connections are refused once the listener is down.
  int refused = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(world.server->port());
  ::inet_pton(AF_INET, world.server->host().c_str(), &addr.sin_addr);
  EXPECT_NE(
      ::connect(refused, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  ::close(refused);
}

TEST(AuditServerTest, ShutdownIsIdempotentAndRestartIsRejected) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0, /*queries=*/0);
  world.server->Shutdown();
  world.server->Shutdown();
  EXPECT_FALSE(world.server->running());
  EXPECT_EQ(world.server->Start().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace net
}  // namespace auditdb
