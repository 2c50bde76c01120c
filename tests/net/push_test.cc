/// End-to-end tests for the push-subscription path (protocol v2,
/// docs/wire_protocol.md "Alerting"): SUBSCRIBE/UNSUBSCRIBE round
/// trips, server-initiated PUSH delivery, the byte-identity contract
/// between pushed alerts and polled audits, backpressure policies
/// under a deliberately tiny socket pipe, graceful-drain flushing, and
/// the v1/v2 version fence.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/io/dump.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/net/metrics_json.h"

namespace auditdb {
namespace net {
namespace {

using std::chrono::milliseconds;

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// THRESHOLD ALL over one attribute: every query touching a fresh
/// patient's fact moves the rank by exactly 1/(|S|+k), so N
/// distinct-pid queries generate exactly N pushes per subscription —
/// deterministic traffic for backpressure and drain tests.
const char kNameAudit[] =
    "DURING 1/1/1970 to 1/1/1990 THRESHOLD ALL "
    "AUDIT (name) FROM P-Personal";
const char kAddressAudit[] =
    "DURING 1/1/1970 to 1/1/1990 THRESHOLD ALL "
    "AUDIT (address) FROM P-Personal";

/// The examples/online_monitor slow-burn scenario, reused here because
/// its rank trajectory (quiet, creep, creep, FIRE) is fixed by the
/// paper database.
const char kSlowBurnAudit[] =
    "DURING 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease,address) "
    "FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
    "AND P-Personal.zipcode='145568' AND P-Employ.salary > 10000 "
    "AND P-Health.disease='diabetic'";

struct ServedWorld {
  Database db;
  Backlog backlog;
  QueryLog log;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<AuditServer> server;

  explicit ServedWorld(AuditServerOptions options = AuditServerOptions{},
                       size_t patients = 60, size_t queries = 0) {
    backlog.Attach(&db);
    if (patients > 0) {
      workload::HospitalConfig hospital;
      hospital.num_patients = patients;
      hospital.seed = 2008;
      EXPECT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
      if (queries > 0) {
        workload::WorkloadConfig workload;
        workload.num_queries = queries;
        workload.start = Ts(100);
        EXPECT_TRUE(
            workload::GenerateWorkload(&log, workload, hospital).ok());
      }
    }
    service = std::make_unique<service::AuditService>(&db, &backlog, &log);
    server = std::make_unique<AuditServer>(service.get(), &db, &backlog,
                                           &log, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
};

/// Everything one subscription's handler observed.
struct Inbox {
  std::mutex mutex;
  std::vector<PushEvent> events;
  std::set<uint64_t> delivered;  // progress/alert seqs
  uint64_t gap_covered = 0;      // seqs announced inside GAP frames
  size_t gap_frames = 0;
  size_t alerts = 0;

  AuditClient::PushHandler Handler() {
    return [this](const PushEvent& event) {
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      if (event.kind == PushKind::kGap) {
        ++gap_frames;
        gap_covered += event.dropped;
      } else {
        delivered.insert(event.seq);
        if (event.kind == PushKind::kAlert) ++alerts;
      }
    };
  }

  size_t CoveredCount() {
    std::lock_guard<std::mutex> lock(mutex);
    return delivered.size() + gap_covered;
  }

  bool WaitForCovered(size_t expected, milliseconds budget) {
    auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (CoveredCount() >= expected) return true;
      std::this_thread::sleep_for(milliseconds(2));
    }
    return false;
  }
};

/// Blocking loopback socket speaking raw frames, for protocol-level
/// tests (v1 fencing, deliberately slow subscribers). `rcvbuf > 0`
/// shrinks SO_RCVBUF before connecting so the kernel pipe between the
/// server and a non-reading subscriber stays tiny.
struct RawConn {
  int fd = -1;
  FrameReader reader;

  RawConn(const AuditServer& server, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0) {
      EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                             sizeof(rcvbuf)),
                0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    EXPECT_EQ(
        ::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << strerror(errno);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void Send(const Message& message) {
    std::string bytes = EncodeFrame(message);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Next frame, reading more bytes as needed. Nullopt on EOF or a
  /// protocol error on our side.
  std::optional<Message> Read() {
    char buf[8192];
    while (true) {
      auto next = reader.Next();
      if (!next.ok()) return std::nullopt;
      if (next->has_value()) return std::move(**next);
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return std::nullopt;
      reader.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// SUBSCRIBEs to `expression` and reads to the ack, returning the
  /// subscription id. Pushes that raced ahead of the ack are decoded
  /// into *early.
  int64_t Subscribe(const std::string& expression, Timestamp now,
                    std::vector<PushEvent>* early = nullptr) {
    Send(Message{MessageType::kSubscribeRequest,
                 EncodeFields({"expr", expression,
                               std::to_string(now.micros())}),
                 WireVersion::kV2});
    while (true) {
      auto frame = Read();
      if (!frame.has_value()) {
        ADD_FAILURE() << "connection died before the subscribe ack";
        return 0;
      }
      if (frame->type == MessageType::kPushEvent) {
        auto event = DecodePushPayload(frame->payload);
        EXPECT_TRUE(event.ok());
        if (early != nullptr && event.ok()) early->push_back(*event);
        continue;
      }
      EXPECT_EQ(frame->type, MessageType::kOkResponse)
          << frame->payload;
      auto fields = DecodeFields(frame->payload);
      EXPECT_TRUE(fields.ok());
      EXPECT_EQ(fields->size(), 4u);
      return std::stoll((*fields)[0]);
    }
  }
};

/// Executes `count` queries, each pushing one event to every name
/// subscriber. With `pace`, waits after each query until that inbox
/// covers it, so a reading subscriber is never more than one event
/// behind — it cannot overflow even a shallow queue, however the
/// scheduler delays its reader thread.
Status DriveDistinctPidQueries(AuditClient* driver, size_t count,
                               Inbox* pace = nullptr) {
  for (size_t q = 1; q <= count; ++q) {
    std::string sql =
        "SELECT name, address FROM P-Personal WHERE pid = 'p" +
        std::to_string(q) + "'";
    auto result = driver->ExecuteQuery(sql, "soak", "driver", "load",
                                       Timestamp(2000000 + (int64_t)q));
    if (!result.ok()) return result.status();
    if (pace != nullptr && !pace->WaitForCovered(q, milliseconds(5000))) {
      return Status::DeadlineExceeded("paced subscriber missed query " +
                                      std::to_string(q));
    }
  }
  return Status::Ok();
}

// --- Subscribe / unsubscribe round trips ------------------------------

TEST(PushSubscriptionTest, SubscribeAckDedupAndUnsubscribe) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/10);
  const std::string host = world.server->host();
  const uint16_t port = world.server->port();

  Inbox inbox_a1, inbox_a2, inbox_b;
  AuditClient a(host, port);
  auto sub1 = a.Subscribe(kNameAudit, Ts(10), inbox_a1.Handler());
  ASSERT_TRUE(sub1.ok()) << sub1.status().ToString();
  EXPECT_GT(sub1->id, 0);
  EXPECT_EQ(sub1->rank, 0.0);  // empty log: nothing accessed yet
  EXPECT_FALSE(sub1->fired);
  EXPECT_TRUE(a.streaming());
  EXPECT_EQ(a.active_subscriptions(), 1u);

  // Same expression text from the same client: the standing expression
  // is shared (same expression id), the subscription is distinct.
  auto sub2 = a.Subscribe(kNameAudit, Ts(10), inbox_a2.Handler());
  ASSERT_TRUE(sub2.ok()) << sub2.status().ToString();
  EXPECT_EQ(sub2->expression_id, sub1->expression_id);
  EXPECT_NE(sub2->id, sub1->id);

  // A second client joins the standing expression by id.
  AuditClient b(host, port);
  auto sub3 = b.SubscribeById(sub1->expression_id, inbox_b.Handler());
  ASSERT_TRUE(sub3.ok()) << sub3.status().ToString();
  EXPECT_EQ(sub3->expression_id, sub1->expression_id);
  EXPECT_EQ(CounterFromJson(world.server->MetricsJson(),
                            "subscriptions_active"),
            3u);

  // One observed query fans out to all three subscriptions.
  AuditClient driver(host, port);
  ASSERT_TRUE(DriveDistinctPidQueries(&driver, 1).ok());
  EXPECT_TRUE(inbox_a1.WaitForCovered(1, milliseconds(5000)));
  EXPECT_TRUE(inbox_a2.WaitForCovered(1, milliseconds(5000)));
  EXPECT_TRUE(inbox_b.WaitForCovered(1, milliseconds(5000)));
  {
    std::lock_guard<std::mutex> lock(inbox_b.mutex);
    ASSERT_EQ(inbox_b.events.size(), 1u);
    EXPECT_EQ(inbox_b.events[0].subscription_id, sub3->id);
    EXPECT_EQ(inbox_b.events[0].seq, 1u);
    EXPECT_EQ(inbox_b.events[0].expression_id, sub3->expression_id);
    EXPECT_EQ(inbox_b.events[0].kind, PushKind::kProgress);
    EXPECT_GT(inbox_b.events[0].rank, 0.0);
  }

  // Unknown expression id / bad expression text are clean errors and
  // leave the client usable.
  AuditClient c(host, port);
  Inbox unused;
  auto bogus = c.SubscribeById(999999, unused.Handler());
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kNotFound);
  auto garbled = c.Subscribe("AUDIT nonsense", Ts(10), unused.Handler());
  EXPECT_FALSE(garbled.ok());
  auto health = c.Health();
  EXPECT_TRUE(health.ok()) << health.status().ToString();

  EXPECT_TRUE(a.Unsubscribe(sub1->id).ok());
  EXPECT_TRUE(a.Unsubscribe(sub2->id).ok());
  EXPECT_TRUE(b.Unsubscribe(sub3->id).ok());
  EXPECT_EQ(a.active_subscriptions(), 0u);
  // Cancelling twice: the subscription is gone.
  Status again = a.Unsubscribe(sub1->id);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterFromJson(world.server->MetricsJson(),
                            "subscriptions_active"),
            0u);
}

TEST(PushSubscriptionTest, UnsubscribeStopsPushes) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/10);
  AuditClient client(world.server->host(), world.server->port());
  Inbox names, addresses;
  auto name_sub = client.Subscribe(kNameAudit, Ts(10), names.Handler());
  auto addr_sub =
      client.Subscribe(kAddressAudit, Ts(10), addresses.Handler());
  ASSERT_TRUE(name_sub.ok() && addr_sub.ok());

  AuditClient driver(world.server->host(), world.server->port());
  ASSERT_TRUE(DriveDistinctPidQueries(&driver, 1).ok());
  ASSERT_TRUE(names.WaitForCovered(1, milliseconds(5000)));
  ASSERT_TRUE(addresses.WaitForCovered(1, milliseconds(5000)));

  ASSERT_TRUE(client.Unsubscribe(name_sub->id).ok());
  ASSERT_TRUE(DriveDistinctPidQueries(&driver, 2).ok());  // p1 and p2
  ASSERT_TRUE(addresses.WaitForCovered(2, milliseconds(5000)));
  // The cancelled subscription saw only the pre-unsubscribe event.
  EXPECT_EQ(names.CoveredCount(), 1u);
  EXPECT_EQ(client.active_subscriptions(), 1u);
}

TEST(PushSubscriptionTest, MaxSubscriptionsCap) {
  AuditServerOptions options;
  options.max_subscriptions = 1;
  ServedWorld world(options, /*patients=*/5);
  Inbox inbox_a, inbox_b;
  AuditClient a(world.server->host(), world.server->port());
  AuditClient b(world.server->host(), world.server->port());
  auto first = a.Subscribe(kNameAudit, Ts(10), inbox_a.Handler());
  ASSERT_TRUE(first.ok());
  auto second = b.Subscribe(kNameAudit, Ts(10), inbox_b.Handler());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  // Freeing the slot re-admits the rejected client.
  ASSERT_TRUE(a.Unsubscribe(first->id).ok());
  auto retry = b.Subscribe(kNameAudit, Ts(10), inbox_b.Handler());
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// --- The byte-identity contract ---------------------------------------

/// The acceptance test: a subscription on the slow-burn scenario from
/// examples/online_monitor receives a monotone progress stream and an
/// alert whose verdict is byte-identical to polling the same
/// expression over the same log range.
TEST(PushSubscriptionTest, AlertVerdictIsByteIdenticalToPoll) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0);
  const std::string host = world.server->host();
  const uint16_t port = world.server->port();

  // Ship the paper database to the empty server.
  Database paper;
  ASSERT_TRUE(workload::BuildPaperDatabase(&paper, Ts(1)).ok());
  std::ostringstream dump;
  ASSERT_TRUE(io::WriteDatabaseDump(paper, dump).ok());
  AuditClient loader(host, port);
  ASSERT_TRUE(loader.LoadDatabaseDump(dump.str(), Ts(1)).ok());

  Inbox inbox;
  AuditClient subscriber(host, port);
  auto sub = subscriber.Subscribe(kSlowBurnAudit, Ts(1000),
                                  inbox.Handler());
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub->rank, 0.0);
  EXPECT_FALSE(sub->fired);

  // The slow-burn attack, query by query. The first query is irrelevant
  // to the expression (rank stays 0): no push. The next two creep the
  // rank up: one progress push each. The join fires: one alert push.
  const char* steps[] = {
      "SELECT ward FROM P-Health WHERE ward = 'W14'",
      "SELECT name, pid FROM P-Personal WHERE zipcode = '145568'",
      "SELECT address FROM P-Personal WHERE zipcode = '145568'",
      "SELECT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'",
  };
  AuditClient driver(host, port);
  int64_t at = 100;
  int64_t last_log_id = 0;
  for (const char* sql : steps) {
    auto result =
        driver.ExecuteQuery(sql, "mallory", "clerk", "billing", Ts(at));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    last_log_id = result->log_id;
    at += 10;
  }

  ASSERT_TRUE(inbox.WaitForCovered(3, milliseconds(10000)));
  std::vector<PushEvent> events;
  {
    std::lock_guard<std::mutex> lock(inbox.mutex);
    events = inbox.events;
  }
  ASSERT_EQ(events.size(), 3u);
  double last_rank = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].subscription_id, sub->id);
    EXPECT_EQ(events[i].expression_id, sub->expression_id);
    EXPECT_EQ(events[i].seq, i + 1);  // dense, 1-based, in order
    EXPECT_GT(events[i].rank, last_rank);
    last_rank = events[i].rank;
  }
  EXPECT_EQ(events[0].kind, PushKind::kProgress);
  EXPECT_TRUE(events[0].verdict.empty());
  EXPECT_EQ(events[1].kind, PushKind::kProgress);
  const PushEvent& alert = events[2];
  EXPECT_EQ(alert.kind, PushKind::kAlert);
  EXPECT_TRUE(alert.fired);
  EXPECT_EQ(alert.log_id, last_log_id);
  ASSERT_FALSE(alert.verdict.empty());

  // The contract: the pushed verdict is exactly what a poll of the same
  // expression over the same log range returns.
  AuditClient poller(host, port);
  auto polled = poller.Audit(kSlowBurnAudit, Ts(1000));
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(alert.verdict, polled->canonical);
}

// --- Backpressure ------------------------------------------------------

/// A subscriber that never reads, against a server whose SO_SNDBUF is
/// shrunk to the kernel floor: the socket pipe holds only a few KiB,
/// so pushes park, the depth-4 queue overflows, and the drop-oldest
/// policy sheds events behind a GAP — all without costing the
/// fast subscriber a single event.
TEST(PushSubscriptionTest, SlowSubscriberGapsDoNotStallOthers) {
  AuditServerOptions options;
  options.push_queue_depth = 4;
  options.so_sndbuf = 2048;
  ServedWorld world(options, /*patients=*/400);
  constexpr size_t kQueries = 300;

  RawConn slow(*world.server, /*rcvbuf=*/2048);
  int64_t slow_sub = slow.Subscribe(kNameAudit, Ts(10));
  ASSERT_GT(slow_sub, 0);
  // From here on the slow subscriber reads nothing.

  Inbox fast_inbox;
  AuditClient fast(world.server->host(), world.server->port());
  auto fast_sub = fast.Subscribe(kNameAudit, Ts(10), fast_inbox.Handler());
  ASSERT_TRUE(fast_sub.ok()) << fast_sub.status().ToString();
  EXPECT_EQ(fast_sub->expression_id, 1);  // shared standing expression

  AuditClient driver(world.server->host(), world.server->port());
  Status driven = DriveDistinctPidQueries(&driver, kQueries, &fast_inbox);
  ASSERT_TRUE(driven.ok()) << driven.ToString();

  // The fast subscriber gets every event, gap-free.
  ASSERT_TRUE(fast_inbox.WaitForCovered(kQueries, milliseconds(20000)));
  {
    std::lock_guard<std::mutex> lock(fast_inbox.mutex);
    EXPECT_EQ(fast_inbox.gap_frames, 0u);
    EXPECT_EQ(fast_inbox.delivered.size(), kQueries);
    EXPECT_EQ(*fast_inbox.delivered.rbegin(), kQueries);
  }
  // The slow one overflowed: events were shed and summarized as gaps.
  EXPECT_TRUE(WaitForCounter(*world.server, "pushes_dropped", 1,
                             milliseconds(5000)))
      << world.server->MetricsJson();
  std::string json = world.server->MetricsJson();
  EXPECT_GE(CounterFromJson(json, "gap_frames_sent"), 1u);
  EXPECT_EQ(CounterFromJson(json, "slow_subscribers_evicted"), 0u);

  // The slow subscriber now drains its socket: everything it receives
  // must cover 1..kQueries exactly — delivered or inside a gap.
  std::set<uint64_t> covered;
  uint64_t last_seq = 0;
  bool done = false;
  auto deadline = std::chrono::steady_clock::now() + milliseconds(20000);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    auto frame = slow.Read();
    if (!frame.has_value()) break;
    ASSERT_EQ(frame->type, MessageType::kPushEvent);
    auto event = DecodePushPayload(frame->payload);
    ASSERT_TRUE(event.ok());
    if (event->kind == PushKind::kGap) {
      for (uint64_t s = event->seq; s < event->seq + event->dropped; ++s) {
        EXPECT_TRUE(covered.insert(s).second);
      }
    } else {
      EXPECT_GT(event->seq, last_seq) << "out-of-order push";
      last_seq = event->seq;
      EXPECT_TRUE(covered.insert(event->seq).second);
    }
    done = covered.size() >= kQueries;
  }
  EXPECT_EQ(covered.size(), kQueries);
  for (uint64_t s = 1; s <= kQueries; ++s) {
    ASSERT_TRUE(covered.count(s)) << "seq " << s << " lost without gap";
  }
}

TEST(PushSubscriptionTest, EvictPolicyDisconnectsSlowSubscriber) {
  AuditServerOptions options;
  options.push_queue_depth = 4;
  options.so_sndbuf = 2048;
  options.slow_subscriber_policy = SlowSubscriberPolicy::kEvict;
  ServedWorld world(options, /*patients=*/400);
  constexpr size_t kQueries = 300;

  RawConn slow(*world.server, /*rcvbuf=*/2048);
  ASSERT_GT(slow.Subscribe(kNameAudit, Ts(10)), 0);

  Inbox fast_inbox;
  AuditClient fast(world.server->host(), world.server->port());
  ASSERT_TRUE(
      fast.Subscribe(kNameAudit, Ts(10), fast_inbox.Handler()).ok());

  AuditClient driver(world.server->host(), world.server->port());
  Status driven = DriveDistinctPidQueries(&driver, kQueries, &fast_inbox);
  ASSERT_TRUE(driven.ok()) << driven.ToString();

  EXPECT_TRUE(WaitForCounter(*world.server, "slow_subscribers_evicted", 1,
                             milliseconds(20000)))
      << world.server->MetricsJson();
  // Eviction is a disconnect: the slow socket hits EOF (or a reset,
  // since data was in flight) once its buffered bytes run out.
  while (slow.Read().has_value()) {
  }
  // The fast subscriber is untouched.
  EXPECT_TRUE(fast_inbox.WaitForCovered(kQueries, milliseconds(20000)));
  {
    std::lock_guard<std::mutex> lock(fast_inbox.mutex);
    EXPECT_EQ(fast_inbox.gap_frames, 0u);
  }
  EXPECT_TRUE(fast.StreamStatus().ok());
}

// --- Graceful drain ----------------------------------------------------

TEST(PushSubscriptionTest, ShutdownFlushesParkedPushes) {
  AuditServerOptions options;
  options.so_sndbuf = 2048;        // park pushes fast...
  options.push_queue_depth = 512;  // ...but deep enough to never shed
  ServedWorld world(options, /*patients=*/450);
  // Far more events than the kernel-floor socket buffers can absorb
  // (~75), so a parked backlog is guaranteed regardless of how much
  // the event loop flushed while the driver was still executing.
  constexpr size_t kQueries = 400;

  RawConn subscriber(*world.server, /*rcvbuf=*/2048);
  ASSERT_GT(subscriber.Subscribe(kNameAudit, Ts(10)), 0);
  // The subscriber stalls: the pipe fills (~75 events at the kernel
  // buffer floor) and the rest park server-side.

  AuditClient driver(world.server->host(), world.server->port());
  ASSERT_TRUE(DriveDistinctPidQueries(&driver, kQueries).ok());
  EXPECT_GT(CounterFromJson(world.server->MetricsJson(), "pending_events"),
            0u)
      << "expected parked pushes before the drain";

  // Drain while the subscriber finally reads: every parked push must be
  // flushed before the server closes the connection.
  std::thread drain([&] { world.server->Shutdown(); });
  std::set<uint64_t> delivered;
  size_t gaps = 0;
  while (true) {
    auto frame = subscriber.Read();
    if (!frame.has_value()) break;  // EOF: the drain completed
    EXPECT_EQ(frame->type, MessageType::kPushEvent);
    auto event = DecodePushPayload(frame->payload);
    EXPECT_TRUE(event.ok());
    if (!event.ok()) break;
    if (event->kind == PushKind::kGap) {
      ++gaps;
    } else {
      delivered.insert(event->seq);
    }
  }
  drain.join();
  EXPECT_EQ(gaps, 0u)
      << "queue was deep enough; nothing should have been shed";
  EXPECT_EQ(delivered.size(), kQueries);
  for (uint64_t s = 1; s <= kQueries; ++s) {
    ASSERT_TRUE(delivered.count(s)) << "seq " << s << " lost in drain";
  }
}

TEST(PushSubscriptionTest, SubscribedConnectionSurvivesIdleTimeout) {
  AuditServerOptions options;
  options.idle_timeout = milliseconds(200);
  ServedWorld world(options, /*patients=*/5);
  Inbox inbox;
  AuditClient client(world.server->host(), world.server->port());
  auto sub = client.Subscribe(kNameAudit, Ts(10), inbox.Handler());
  ASSERT_TRUE(sub.ok());
  // A passive subscriber sends nothing for several idle windows; the
  // sweep must exempt it.
  std::this_thread::sleep_for(milliseconds(700));
  EXPECT_TRUE(client.StreamStatus().ok());
  auto health = client.Health();  // same connection — no retries in
  EXPECT_TRUE(health.ok()) << health.status().ToString();  // streaming
}

// --- Version fencing ---------------------------------------------------

TEST(PushSubscriptionTest, V1ClientInteropAndSubscribeFence) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/5);
  AuditClientOptions v1;
  v1.wire_version = WireVersion::kV1;
  AuditClient client(world.server->host(), world.server->port(), v1);
  // v1 requests work byte-for-byte against a v2-capable server.
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  auto report = client.Audit(kNameAudit, Ts(10));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  // ...but the client refuses to subscribe over ADB1.
  Inbox inbox;
  auto sub = client.Subscribe(kNameAudit, Ts(10), inbox.Handler());
  EXPECT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST(PushSubscriptionTest, ServerRejectsSubscribeOverV1) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/5);
  RawConn conn(*world.server);
  conn.Send(Message{
      MessageType::kSubscribeRequest,
      EncodeFields({"expr", kNameAudit, std::to_string(Ts(10).micros())}),
      WireVersion::kV1});
  auto frame = conn.Read();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MessageType::kErrorResponse);
  EXPECT_NE(frame->payload.find("ADB2"), std::string::npos)
      << frame->payload;
  EXPECT_EQ(CounterFromJson(world.server->MetricsJson(),
                            "subscriptions_active"),
            0u);
}

TEST(PushSubscriptionTest, MixedMagicsCloseTheConnection) {
  ServedWorld world(AuditServerOptions{}, /*patients=*/0);
  RawConn conn(*world.server);
  conn.Send(Message{MessageType::kHealthRequest, "", WireVersion::kV2});
  auto first = conn.Read();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MessageType::kOkResponse);
  // Switching magics mid-stream is a protocol violation: the server
  // explains why in one final error frame, then hangs up.
  conn.Send(Message{MessageType::kHealthRequest, "", WireVersion::kV1});
  auto second = conn.Read();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MessageType::kErrorResponse);
  EXPECT_FALSE(conn.Read().has_value());
}

}  // namespace
}  // namespace net
}  // namespace auditdb
