#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/common/timestamp.h"
#include "src/net/client.h"
#include "src/net/wire.h"

namespace auditdb {
namespace net {
namespace {

using std::chrono::milliseconds;

/// A loopback server that accepts-and-slams the first `fail_first`
/// connections (the client sees the transport die mid-request), then
/// answers every request with an OK frame carrying `reply`.
/// Single-threaded: the tests drive one client at a time.
class FlakyServer {
 public:
  explicit FlakyServer(int fail_first, std::string reply = "ok")
      : fail_first_(fail_first), reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }

  ~FlakyServer() {
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int connections() const { return connections_.load(); }

 private:
  void Loop() {
    while (true) {
      int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener closed: shutting down
      int seen = connections_.fetch_add(1) + 1;
      if (seen <= fail_first_) {
        ::close(conn);  // the "flaky" part: die before responding
        continue;
      }
      Serve(conn);
      ::close(conn);
    }
  }

  void Serve(int conn) {
    // Backstop so a test bug cannot hang the suite.
    timeval timeout{5, 0};
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    FrameReader reader;
    char buf[4096];
    while (true) {
      auto next = reader.Next();
      if (!next.ok()) return;
      if (next->has_value()) {
        std::string frame = EncodeFrame(
            Message{MessageType::kOkResponse, reply_, (*next)->version});
        if (::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(frame.size())) {
          return;
        }
        continue;
      }
      ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n <= 0) return;  // client closed (or timed out)
      reader.Feed(buf, static_cast<size_t>(n));
    }
  }

  int fail_first_;
  std::string reply_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<int> connections_{0};
  std::thread thread_;
};

TEST(ClientRetryTest, IdempotentRequestOutlivesFlakyConnections) {
  FlakyServer server(/*fail_first=*/2);
  AuditClientOptions options;
  options.max_retries = 3;
  options.retry_initial_backoff = milliseconds(1);
  AuditClient client("127.0.0.1", server.port(), options);
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok");
  // Two doomed connections plus the one that served.
  EXPECT_EQ(server.connections(), 3);
}

TEST(ClientRetryTest, GivesUpAfterMaxRetries) {
  FlakyServer server(/*fail_first=*/1000);
  AuditClientOptions options;
  options.max_retries = 2;
  options.retry_initial_backoff = milliseconds(1);
  AuditClient client("127.0.0.1", server.port(), options);
  auto health = client.Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kInternal);
  // Exactly the first attempt plus max_retries, no more.
  EXPECT_EQ(server.connections(), 3);
}

TEST(ClientRetryTest, NonIdempotentRequestsNeverRetry) {
  FlakyServer server(/*fail_first=*/1000);
  AuditClientOptions options;
  options.max_retries = 3;
  options.retry_initial_backoff = milliseconds(1);
  AuditClient client("127.0.0.1", server.port(), options);
  auto executed = client.ExecuteQuery("SELECT name FROM P-Personal", "a",
                                      "Nurse", "care", Timestamp(1));
  ASSERT_FALSE(executed.ok());
  // The append may have committed server-side before the cut; a retry
  // could double-log it. One connection, one attempt.
  EXPECT_EQ(server.connections(), 1);
}

TEST(ClientRetryTest, RetriesCanBeDisabled) {
  FlakyServer server(/*fail_first=*/1000);
  AuditClientOptions options;
  options.retry_idempotent = false;
  options.retry_initial_backoff = milliseconds(1);
  AuditClient client("127.0.0.1", server.port(), options);
  EXPECT_FALSE(client.Health().ok());
  EXPECT_EQ(server.connections(), 1);
}

TEST(ClientRetryTest, RetriesRespectTheRequestDeadline) {
  FlakyServer server(/*fail_first=*/1000);
  AuditClientOptions options;
  options.max_retries = 100;  // the deadline must cut this short
  options.request_timeout = milliseconds(60);
  options.retry_initial_backoff = milliseconds(40);
  options.retry_max_backoff = milliseconds(40);
  AuditClient client("127.0.0.1", server.port(), options);
  auto start = std::chrono::steady_clock::now();
  auto health = client.Health();
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(health.ok());
  // All attempts and their backoff sleeps fit the single 60ms budget
  // (with loopback slack), nowhere near 100 retries * 40ms.
  EXPECT_LT(std::chrono::duration_cast<milliseconds>(elapsed).count(),
            1000);
  EXPECT_LT(server.connections(), 5);
}

TEST(ClientRetryTest, RefusedConnectsRetryUntilAServerAppears) {
  // Grab a port with no listener by binding-and-closing.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(
      ::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  AuditClientOptions options;
  options.max_retries = 2;
  options.retry_initial_backoff = milliseconds(1);
  AuditClient client("127.0.0.1", dead_port, options);
  auto health = client.Health();
  // Every attempt is refused; what matters is the bounded failure (not
  // an exception or a hang) with the connect error surfaced.
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kInternal);
}

// A reply whose numeric field does not parse is a broken server, not a
// zero: each decoder refuses it instead of inventing id 0.
TEST(ClientDecodeTest, MalformedNumericFieldsAreErrors) {
  auto expect_malformed = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
    EXPECT_NE(status.message().find("malformed"), std::string::npos)
        << status.ToString();
  };
  for (const char* reply : {"r|1|abc", "r|-1|5", "r|x|5"}) {
    FlakyServer server(/*fail_first=*/0, reply);
    AuditClient client("127.0.0.1", server.port());
    auto executed =
        client.ExecuteQuery("SELECT 1", "u", "r", "p", Timestamp(1));
    ASSERT_FALSE(executed.ok()) << reply;
    expect_malformed(executed.status());
  }
  for (const char* reply : {"x|1|0.5|1", "1|1|abc|1", "1|1||1"}) {
    FlakyServer server(/*fail_first=*/0, reply);
    AuditClient client("127.0.0.1", server.port());
    auto sub = client.Subscribe("AUDIT x FROM T", Timestamp(1),
                                [](const PushEvent&) {});
    ASSERT_FALSE(sub.ok()) << reply;
    expect_malformed(sub.status());
  }
  {
    FlakyServer server(/*fail_first=*/0, "abc|OK||");
    AuditClient client("127.0.0.1", server.port());
    auto screened = client.ScreenLibrary({"AUDIT x FROM T"}, Timestamp(1));
    ASSERT_FALSE(screened.ok());
    expect_malformed(screened.status());
  }
  // An empty screening id is accepted and reads as 0.
  FlakyServer server(/*fail_first=*/0, "|OK||");
  AuditClient client("127.0.0.1", server.port());
  auto screened = client.ScreenLibrary({"AUDIT x FROM T"}, Timestamp(1));
  ASSERT_TRUE(screened.ok()) << screened.status().ToString();
  ASSERT_EQ(screened->size(), 1u);
  EXPECT_EQ((*screened)[0].expression_id, 0);
  EXPECT_TRUE((*screened)[0].status.ok());
}

}  // namespace
}  // namespace net
}  // namespace auditdb
