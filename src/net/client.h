#ifndef AUDITDB_NET_CLIENT_H_
#define AUDITDB_NET_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/net/backoff.h"
#include "src/net/subscription.h"
#include "src/net/wire.h"

namespace auditdb {
namespace net {

struct AuditClientOptions {
  /// Deadline for establishing the TCP connection.
  std::chrono::milliseconds connect_timeout{2000};
  /// Per-request deadline covering send + receive. Audits over big logs
  /// are slow by design; size accordingly.
  std::chrono::milliseconds request_timeout{30000};
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Retry idempotent requests over a fresh connection when the
  /// transport fails (stale pooled connection, server restart, refused
  /// connect): up to `max_retries` extra attempts with exponential
  /// backoff + jitter, all within the request_timeout budget — a retry
  /// that cannot fit its backoff before the deadline is not attempted.
  /// Timeouts never retry (the server may still be working on the
  /// request), and non-idempotent requests (ExecuteQuery, LoadDump)
  /// never retry: the first attempt may have committed.
  bool retry_idempotent = true;
  int max_retries = 3;
  /// Follow NOT_PRIMARY rejections to the primary address they carry
  /// (safe even for writes: the replica rejects before any side
  /// effect). Off = surface the rejection to the caller, which cluster
  /// tools use to observe roles directly.
  bool follow_not_primary = true;
  /// First retry waits ~this long (jittered to [base/2, base]); each
  /// further retry doubles it up to retry_max_backoff.
  std::chrono::milliseconds retry_initial_backoff{10};
  std::chrono::milliseconds retry_max_backoff{500};
  /// Protocol version spoken on the wire. kV2 (the default) is required
  /// for Subscribe/Unsubscribe; kV1 interoperates with pre-subscription
  /// servers byte-for-byte.
  WireVersion wire_version = WireVersion::kV2;
  /// SO_RCVBUF for the connection; 0 keeps the kernel default. Shrinking
  /// it makes a deliberately slow subscriber exert backpressure with
  /// little traffic (the kernel clamps to its minimum, ~2 KiB).
  int so_rcvbuf = 0;
};

/// Blocking client for the auditd wire protocol: one TCP connection,
/// one request in flight at a time (the protocol itself pipelines, a
/// client that needs concurrency uses one AuditClient per thread).
/// Connects lazily on the first request.
///
/// Streaming (protocol v2): after the first successful Subscribe() the
/// client starts a receiver thread that owns all reads — server PUSH
/// frames are dispatched to the subscription's handler in wire order,
/// responses are routed back to the requesting thread. In streaming
/// mode there are no retries and no reconnects: subscriptions are bound
/// to the connection, so a transport failure or request timeout poisons
/// the session (every later call fails until Close() + a fresh
/// connection re-subscribes). Handlers run on the receiver thread and
/// must not call back into this client (the receiver cannot serve a
/// response while it is inside a handler).
class AuditClient {
 public:
  AuditClient(std::string host, uint16_t port,
              AuditClientOptions options = AuditClientOptions{});
  /// Cluster-aware form: one or more "host:port" endpoints. Requests go
  /// to the current endpoint; a refused connect or torn transport
  /// rotates to the next one on each retry (all drawing from the single
  /// per-request RetryBudget), and a NOT_PRIMARY rejection — which the
  /// server issues *before* any side effect, so following it is safe
  /// even for writes — redirects to the primary address it carries
  /// (learned endpoints join the rotation). Reads are served by any
  /// node; only mutations bounce to the primary.
  explicit AuditClient(std::vector<std::string> endpoints,
                       AuditClientOptions options = AuditClientOptions{});
  ~AuditClient();

  AuditClient(const AuditClient&) = delete;
  AuditClient& operator=(const AuditClient&) = delete;

  /// Establishes the connection now (otherwise the first request does).
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  /// The endpoint requests currently target, as "host:port".
  std::string endpoint() const;
  /// All endpoints in rotation order: the configured list plus any
  /// primaries learned from NOT_PRIMARY redirects.
  std::vector<std::string> endpoints() const;

  /// A remote audit outcome: the deterministic CanonicalString (the
  /// byte-identical-to-serial contract) plus the investigator-facing
  /// DetailedReport rendered server-side.
  struct RemoteReport {
    std::string canonical;
    std::string detailed;
  };
  Result<RemoteReport> Audit(const std::string& expression, Timestamp now,
                             bool static_only = false);

  /// One library member's screening outcome.
  struct RemoteScreening {
    int64_t expression_id = 0;
    Status status;
    std::string canonical;  // empty unless status.ok()
  };
  Result<std::vector<RemoteScreening>> ScreenLibrary(
      const std::vector<std::string>& expressions, Timestamp now);

  struct RemoteQueryResult {
    std::string rendered;
    size_t num_rows = 0;
    int64_t log_id = 0;
  };
  /// Executes on the server and appends to its query log.
  Result<RemoteQueryResult> ExecuteQuery(const std::string& sql,
                                         const std::string& user,
                                         const std::string& role,
                                         const std::string& purpose,
                                         Timestamp now);

  /// Ships a dump (the src/io text format) into the server's stores.
  Status LoadDatabaseDump(const std::string& dump_text, Timestamp now);
  Status LoadQueryLogDump(const std::string& dump_text);

  /// "ok" when the server's loop and handler pool are responsive.
  Result<std::string> Health();
  /// {"server": ..., "service": ...} metrics JSON.
  Result<std::string> MetricsJson();

  /// A registered push subscription, as acknowledged by the server.
  struct Subscription {
    int64_t id = 0;         // server-assigned subscription id
    int expression_id = 0;  // server-side standing-expression id
    double rank = 0.0;      // rank at subscription time
    bool fired = false;     // already past threshold when subscribed
  };
  /// Invoked on the receiver thread for every PUSH frame of a
  /// subscription, in sequence order. Must not call back into this
  /// client and should return quickly: the server's per-subscriber
  /// queue is bounded, and a handler that stalls the receiver
  /// eventually triggers the server's slow-subscriber policy.
  using PushHandler = std::function<void(const PushEvent&)>;

  /// Registers a standing audit expression (audit grammar source) and
  /// streams its verdict changes to `handler`. Requires wire_version
  /// kV2. The first successful Subscribe switches the client into
  /// streaming mode (see class comment).
  Result<Subscription> Subscribe(const std::string& expression,
                                 Timestamp now, PushHandler handler);
  /// Same, but attaches to an existing server-side standing expression.
  Result<Subscription> SubscribeById(int expression_id, PushHandler handler);
  /// Cancels one subscription. Pushes already in flight for it are
  /// silently discarded. Must not be called from a push handler.
  Status Unsubscribe(int64_t subscription_id);
  /// Number of live subscriptions on this client.
  size_t active_subscriptions() const;
  /// True once the receiver thread owns the read side.
  bool streaming() const { return receiver_running_.load(); }
  /// OK while the streaming session is healthy; afterwards, the
  /// transport error that poisoned it (e.g. the server closed the
  /// connection during a graceful drain).
  Status StreamStatus() const;

  /// Sends one request frame and blocks for its response. Error
  /// responses come back as their carried Status (a server-side
  /// RESOURCE_EXHAUSTED rejection keeps its code); transport failures
  /// map to Internal/DeadlineExceeded. Exposed for tools and tests.
  Result<Message> RoundTrip(const Message& request);

 private:
  Result<Message> ReadResponse(
      std::chrono::steady_clock::time_point deadline);
  Result<Message> TryOnce(const Message& request, Status* transport_error,
                          std::chrono::steady_clock::time_point deadline);
  /// Points host_/port_ at endpoints_[index].
  void ActivateEndpoint(size_t index);
  /// Advances to the next endpoint (no-op with a single one).
  void RotateEndpoint();
  /// Retargets at the "host:port" a NOT_PRIMARY rejection carried,
  /// appending it to the rotation if it is new. Ignores garbage.
  void RepointTo(const std::string& address);

  Result<Subscription> SubscribeInternal(const std::string& kind,
                                         const std::string& value,
                                         Timestamp now, PushHandler handler);
  /// One round trip in streaming mode: send from the calling thread,
  /// wait on the mailbox for the receiver to route the response.
  Result<Message> StreamingRoundTrip(const Message& request);
  /// Decodes and stashes a PUSH frame seen by a *blocking* read (the
  /// receiver isn't running yet; the event waits for it).
  Status StashPush(const Message& message);
  void EnsureReceiver();
  void StopReceiver();
  void ReceiverLoop();
  /// Dispatches stashed pushes that have handlers (wire order); drops
  /// ones for unknown subscriptions unless a Subscribe is in flight.
  void DrainStash();
  /// Marks the streaming session dead and wakes any waiting round trip.
  void FailStream(const Status& error);

  std::string host_;
  uint16_t port_;
  AuditClientOptions options_;
  /// Endpoint rotation (host, port); active_endpoint_ indexes the one
  /// host_/port_ mirror.
  std::vector<std::pair<std::string, uint16_t>> endpoints_;
  size_t active_endpoint_ = 0;
  /// Jitter LCG state threaded through each request's RetryBudget so
  /// backoff decorrelation carries across requests.
  uint64_t jitter_state_;
  int fd_ = -1;
  /// Persistent frame reader: push frames buffered behind a response
  /// must survive across reads. Reset on (re)connect.
  FrameReader reader_;

  // --- streaming state ---
  std::thread receiver_;
  std::atomic<bool> receiver_running_{false};
  std::atomic<bool> receiver_stop_{false};
  /// True while a Subscribe round trip is in flight: pushes for ids
  /// with no handler yet are parked instead of dropped.
  std::atomic<bool> subscribe_pending_{false};
  /// Guards handlers_, stash_, stream_ok_/stream_error_.
  mutable std::mutex stream_mutex_;
  std::map<int64_t, PushHandler> handlers_;
  std::deque<PushEvent> stash_;
  bool stream_ok_ = true;
  Status stream_error_;
  /// Response mailbox: the receiver parks one routed response here for
  /// the thread blocked in StreamingRoundTrip.
  std::mutex mail_mutex_;
  std::condition_variable mail_cv_;
  std::optional<Message> mail_;
  bool want_response_ = false;
};

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_NET_CLIENT_H_
