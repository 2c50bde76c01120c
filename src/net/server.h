#ifndef AUDITDB_NET_SERVER_H_
#define AUDITDB_NET_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "src/net/replication.h"
#include "src/net/subscription.h"
#include "src/net/wire.h"
#include "src/service/audit_service.h"

namespace auditdb {
namespace io {
class DurableStore;
}  // namespace io
namespace policy {
class PolicyEngine;
}  // namespace policy

namespace net {

struct AuditServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (read it back via port()).
  uint16_t port = 0;
  int listen_backlog = 128;
  size_t max_connections = 256;
  /// Cap on one frame body; larger frames are answered with OutOfRange
  /// and the connection closes.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on one *response* frame body. A response that would exceed it
  /// is replaced by an OutOfRange error frame — before any
  /// non-idempotent side effect (ExecuteQuery checks the rendered
  /// response ahead of its log append) — so a client whose FrameReader
  /// runs with the default limit never faults mid-stream on a reply the
  /// server itself produced. Zero disables.
  size_t max_response_bytes = kDefaultMaxFrameBytes;
  /// Parsed-but-unserved requests buffered per connection before the
  /// server stops reading from it (pipelining backpressure).
  size_t max_pipelined = 32;
  /// A connection with no read activity and nothing in flight for this
  /// long is evicted. Zero disables.
  std::chrono::milliseconds idle_timeout{30000};
  /// A connection whose pending response bytes make no write progress
  /// for this long is evicted (slow-client protection). Zero disables.
  std::chrono::milliseconds write_timeout{10000};
  /// Graceful-drain budget: Shutdown() stops accepting, then waits this
  /// long for in-flight handlers to finish and responses to flush
  /// before closing whatever is left.
  std::chrono::milliseconds drain_timeout{10000};
  /// The request-handler pool (separate from the audit service's worker
  /// pool, which handlers fan audit shards out to). kReject surfaces a
  /// full queue to clients as a RESOURCE_EXHAUSTED error response;
  /// kBlock parks requests per connection and pauses reads instead, so
  /// backpressure reaches the client through TCP.
  service::ThreadPoolOptions handlers{
      /*num_threads=*/4, /*queue_capacity=*/64,
      service::AdmissionPolicy::kReject};
  /// Server-wide cap on concurrently active push subscriptions
  /// (protocol v2 SUBSCRIBE frames, docs/wire_protocol.md).
  size_t max_subscriptions = 1024;
  /// Bounded per-subscription outbound push queue; overflow applies the
  /// slow-subscriber policy.
  size_t push_queue_depth = 64;
  /// What happens to a subscriber whose push queue overflows: shed the
  /// oldest events behind a GAP frame, or evict the connection.
  SlowSubscriberPolicy slow_subscriber_policy =
      SlowSubscriberPolicy::kDropOldest;
  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default.
  /// Shrinking it bounds how much push traffic the kernel absorbs on
  /// behalf of a slow subscriber, so queue overflow (and the policy
  /// above) triggers deterministically in tests and soaks.
  int so_sndbuf = 0;
  /// Optional durability (io::DurableStore, docs/durability.md). When
  /// set, ExecuteQuery WAL-appends *before* acking (an error response
  /// means nothing was committed; an OK means the entry survives a
  /// crash under fsync=always), a successful LoadDump forces a
  /// checkpoint, the automatic checkpoint cadence runs under the writer
  /// lock, and Metrics gains a "durability" section. Must outlive the
  /// server; the server serializes all access under its writer lock.
  io::DurableStore* durable_store = nullptr;
  /// Optional policy engine (policy::PolicyEngine, docs/policy.md).
  /// When set, every ExecuteQuery — including rejected statements — is
  /// matched against the audit rules before logging/observing: the
  /// matching rule's detail level drives sink emission (with per-rule
  /// redaction) and can force an online observation (full-audit), and
  /// Metrics gains a "policy" section. Hot reload (SIGHUP in auditd)
  /// swaps configs atomically; in-flight queries keep the snapshot they
  /// decided under. Must outlive the server.
  policy::PolicyEngine* policy = nullptr;

  /// Replication (docs/replication.md). Empty = this node starts as a
  /// primary (it accepts REPLICATE streams whether or not anything else
  /// is set); "host:port" = start as a read-only replica streaming from
  /// that primary. A replica rejects ExecuteQuery/LoadDump/REPLICATE
  /// with NOT_PRIMARY carrying the primary's address, and a PROMOTE
  /// frame turns it into a primary in place.
  std::string replicate_from;
  /// How many follower acks an ExecuteQuery waits for before its OK
  /// (the primary's own durable append always happens first).
  ReplAckPolicy repl_ack = ReplAckPolicy::kNone;
  /// WaitForAcks budget; expiry responds DEADLINE_EXCEEDED ("committed
  /// locally but under-replicated") rather than blocking the handler.
  std::chrono::milliseconds repl_ack_timeout{2000};
  /// Per-follower ship-queue cap; an overflowing follower is evicted
  /// (bounded divergence) and re-syncs from its durable position.
  size_t repl_max_buffered = 4096;
  /// Address other nodes should use for this one ("host:port");
  /// defaults to the bound host:port. Surfaces in the replication
  /// metrics so a cluster supervisor can route around failures.
  std::string advertise_address;
  /// Row stamp for database dumps shipped to bootstrapping replicas
  /// (the dump format has no per-row insert times). Must match the t0
  /// the cluster loads fixtures / recovers with, or DATA-INTERVAL
  /// audits diverge across nodes. auditd passes its fixture t0.
  int64_t bootstrap_stamp_micros = 1000000;
  /// Forces the Health payload / metrics to include the replication
  /// section even before any follower registers.
  bool replication = false;
};

/// The network front door of the audit service: an epoll event loop
/// that accepts non-blocking loopback/remote connections, parses
/// length-prefixed frames (src/net/wire.h), and hands fully-parsed
/// requests to a handler thread pool. Responses are written back on the
/// event loop; per-connection order matches request order (one handler
/// in flight per connection, the rest pipeline in arrival order).
///
/// Endpoints: Audit, AuditStatic, ScreenLibrary, ExecuteQuery (appends
/// to the served query log), LoadDump (db or log), Health, Metrics,
/// and — on protocol v2 connections — Subscribe/Unsubscribe.
/// Mutating endpoints take a writer lock; audits share a reader lock,
/// so remote reports are computed against a consistent store.
///
/// Subscriptions (docs/wire_protocol.md "Alerting"): a v2 client
/// SUBSCRIBEs to a standing audit expression; every ExecuteQuery is
/// then screened by an OnlineAuditor and state changes fan out as
/// server-initiated PUSH frames. Parked pushes ride the same epoll
/// write-interest machinery as responses; per-subscriber queues are
/// bounded with a configurable overflow policy, and graceful drain
/// flushes parked pushes before closing.
///
/// Shutdown() (or the daemon's SIGTERM path) drains gracefully: the
/// listener closes, in-flight handlers finish, their responses flush,
/// and only then do connections close.
class AuditServer {
 public:
  /// `service` must be bound to `db`/`backlog`/`log`; all must outlive
  /// the server. `backlog` is unused today but keeps the stores the
  /// server mutates explicit.
  AuditServer(service::AuditService* service, Database* db,
              Backlog* backlog, QueryLog* log,
              AuditServerOptions options = AuditServerOptions{});
  ~AuditServer();

  AuditServer(const AuditServer&) = delete;
  AuditServer& operator=(const AuditServer&) = delete;

  /// Binds, listens and starts the event-loop thread. Errors:
  /// InvalidArgument (bad host), Internal (socket/bind/listen failure),
  /// AlreadyExists (already started).
  Status Start();

  /// Bound port (after a successful Start).
  uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }
  bool running() const;

  /// Graceful drain; blocks until the loop exits. Idempotent; also run
  /// by the destructor. A replica's streaming session stops first so no
  /// apply races the drain.
  void Shutdown();

  /// Replication role observers (tests and the cluster supervisor).
  bool is_replica() const;
  /// The upstream a replica streams from; empty on a primary.
  std::string replication_upstream() const;
  /// Registered followers (primary side).
  size_t follower_count() const;
  /// Log id this node has committed/applied through (its log size).
  int64_t applied_log_id() const;

  const service::MetricsRegistry& metrics() const { return metrics_; }
  /// One JSON object of sections: "server", "service", "index",
  /// "durability" (with a durable store), "push", "policy" (with a policy
  /// engine), "replication" and "versions". docs/wire_protocol.md lists
  /// every section's keys.
  std::string MetricsJson() const;

 private:
  struct Conn;
  struct Impl;

  void LoopThread();

  std::unique_ptr<Impl> impl_;
  service::MetricsRegistry metrics_;
  std::string host_;
  uint16_t port_ = 0;
  bool started_ = false;  // one-shot: a shut-down server stays down
  std::thread loop_;
};

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_NET_SERVER_H_
