#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/candidate.h"
#include "src/audit/expression_library.h"
#include "src/audit/online.h"
#include "src/common/string_util.h"
#include "src/engine/executor.h"
#include "src/io/dump.h"
#include "src/policy/policy_engine.h"
#include "src/service/metrics.h"
#include "src/sql/parser.h"
#include "src/io/store.h"

namespace auditdb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// The REPLICATE event frame that ships one logged query to a follower.
std::string QueryShipFrame(const LoggedQuery& entry) {
  return EncodeFrame(Message{
      MessageType::kReplicateEvent,
      EncodeReplicateWal(querylog::EncodeWalRecord(
          querylog::WalRecordType::kQuery,
          querylog::EncodeQueryWalPayload(entry))),
      WireVersion::kV2});
}

/// Per-refill byte budget when topping a drained write buffer up from
/// the subscription queues, so one push-heavy subscriber cannot grow an
/// unbounded out buffer in a single pass.
constexpr size_t kPushRefillBytes = 256u << 10;

}  // namespace

/// Per-connection state owned by the event loop.
struct AuditServer::Conn {
  explicit Conn(size_t max_frame_bytes) : reader(max_frame_bytes) {}

  int fd = -1;
  /// Monotonic id: handler completions are matched against it so a
  /// reused fd never receives a dead connection's response.
  uint64_t id = 0;
  /// Peer IP (dotted quad), captured at accept; empty when unknown.
  /// Policy rules' `remote =` clauses match against it.
  std::string peer;
  FrameReader reader;
  /// Pending response bytes (out_offset already written).
  std::string out;
  size_t out_offset = 0;
  /// Parsed requests not yet handed to a handler (pipelining buffer).
  std::deque<Message> pending;
  /// One handler in flight per connection keeps responses in order.
  bool busy = false;
  bool close_after_flush = false;
  /// Protocol-error frame held back until the in-flight handler's
  /// response is delivered, so even a dying connection answers in
  /// request order.
  std::string deferred_error;
  /// Reads withheld (pipelining cap or poisoned framing).
  bool paused = false;
  bool want_write = false;
  /// Pinned by the first frame the client sends (FrameReader enforces
  /// consistency); responses and error frames mirror it.
  WireVersion version = WireVersion::kV1;
  Clock::time_point last_read;
  Clock::time_point last_write_progress;
};

struct AuditServer::Impl {
  service::AuditService* service;
  Database* db;
  Backlog* backlog;
  QueryLog* log;
  AuditServerOptions options;
  service::MetricsRegistry* metrics;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  uint64_t next_conn_id = 1;

  std::unique_ptr<service::ThreadPool> handlers;
  /// Readers pin snapshots under a brief shared lock; writers
  /// (ExecuteQuery's commit section, LoadDump) exclude them. Mutable so
  /// const observers (metrics) can take the shared side.
  mutable std::shared_mutex state_mutex;

  /// Push-subscription state (docs/wire_protocol.md "Alerting").
  /// The registry is internally synchronized; everything else here is
  /// guarded by the writer side of state_mutex.
  SubscriptionRegistry subscriptions;
  /// Screens every executed query against the standing expressions;
  /// shares the serving stack's decision cache.
  std::unique_ptr<audit::OnlineAuditor> online;
  /// One standing expression per distinct qualified audit text,
  /// refcounted across the subscriptions naming it.
  struct StandingExpr {
    audit::AuditExpression expr;  // qualified; the poll-identical verdict source
    std::string key;              // expr.ToString()
    size_t refs = 0;
    audit::OnlineAuditor::Screening last;  // last published state
  };
  std::map<int, StandingExpr> standing;        // by OnlineAuditor id
  std::map<std::string, int> standing_by_key;  // canonical text -> id

  /// Replication state (docs/replication.md). The hub is internally
  /// synchronized: handlers Ship committed frames under the writer
  /// lock, the loop drains them per follower connection, and acks are
  /// applied inline on the loop thread. The session pointer and the
  /// role flip are guarded by repl_mutex — PROMOTE must join the
  /// session thread with no other lock held, because the session's
  /// apply callbacks take the writer side of state_mutex.
  ReplicationHub hub;
  mutable std::mutex repl_mutex;
  std::unique_ptr<ReplicaSession> replica;
  std::atomic<bool> is_replica{false};
  /// Counts LoadDumps applied; shipped in handshakes so a follower
  /// that missed a dump load cannot silently catch up incrementally.
  std::atomic<uint64_t> load_generation{0};
  /// host:port other nodes reach this one at; fixed after Start().
  std::string advertise;

  /// Loop → handler handoff for subscription cleanup: CloseConn (loop
  /// thread) must not take state_mutex, so expressions released by a
  /// closing connection park here until the next handler that already
  /// holds the writer lock collects them (GcOrphans).
  std::mutex push_mutex;
  std::vector<int> orphaned_exprs;
  /// Publish → loop handoff: conn ids with freshly parked pushes /
  /// flagged for slow-subscriber eviction. Drained by DeliverPushes.
  std::vector<uint64_t> push_ready;
  std::vector<uint64_t> push_evict;

  /// Loop-thread-only reverse map for push delivery by conn id.
  std::unordered_map<uint64_t, int> fd_by_conn_id;

  struct Done {
    int fd;
    uint64_t conn_id;
    std::string frame;
  };
  std::mutex done_mutex;
  std::vector<Done> done;

  std::atomic<bool> stop_requested{false};
  std::atomic<bool> running{false};
  /// Handler jobs submitted whose responses are not yet delivered to a
  /// write buffer — the quantity graceful drain waits on.
  size_t in_flight = 0;
  bool draining = false;
  Clock::time_point drain_deadline;

  service::Counter* connections_accepted;
  service::Counter* connections_rejected;
  service::Gauge* connections_gauge;
  service::Counter* frames_received;
  service::Counter* frames_sent;
  service::Counter* bytes_read;
  service::Counter* bytes_written;
  service::Counter* frame_errors;
  service::Counter* oversized_frames;
  service::Counter* oversized_responses;
  service::Counter* evicted_idle;
  service::Counter* evicted_slow;
  service::Counter* admission_rejected;
  service::Counter* drain_cancelled;
  service::Counter* push_observe_errors;
  service::Counter* push_verdict_errors;
  /// Per-endpoint request instruments, indexed by the request's
  /// MessageType byte; null for types that never reach a handler.
  struct EndpointMetrics {
    service::Counter* requests = nullptr;
    service::Histogram* micros = nullptr;
    service::Counter* errors = nullptr;
  };
  std::array<EndpointMetrics, 256> endpoints{};

  Impl(service::AuditService* service_in, Database* db_in,
       Backlog* backlog_in, QueryLog* log_in, AuditServerOptions options_in,
       service::MetricsRegistry* metrics_in)
      : service(service_in),
        db(db_in),
        backlog(backlog_in),
        log(log_in),
        options(std::move(options_in)),
        metrics(metrics_in),
        subscriptions(SubscriptionLimits{options.max_subscriptions,
                                         options.push_queue_depth,
                                         options.slow_subscriber_policy}),
        hub(options.repl_max_buffered) {
    LoadReplGeneration();
    handlers =
        std::make_unique<service::ThreadPool>(options.handlers, metrics);
    // The online monitor behind push subscriptions keeps its executed
    // profiles in the service's decision cache, whose hit counters the
    // metrics report.
    audit::OnlineAuditorOptions online_options;
    online_options.cache = service->decision_cache();
    online = std::make_unique<audit::OnlineAuditor>(db, online_options);
    // Observe → fan-out hook: runs on the handler thread inside
    // HandleExecuteQuery's Observe call, under the writer lock.
    online->SetScreeningListener(
        [this](const LoggedQuery& query,
               const std::vector<audit::OnlineAuditor::Screening>&
                   screenings) { PublishScreenings(query, screenings); });
    connections_accepted = metrics->counter("net.connections_accepted");
    connections_rejected = metrics->counter("net.connections_rejected");
    connections_gauge = metrics->gauge("net.connections");
    frames_received = metrics->counter("net.frames_received");
    frames_sent = metrics->counter("net.frames_sent");
    bytes_read = metrics->counter("net.bytes_read");
    bytes_written = metrics->counter("net.bytes_written");
    frame_errors = metrics->counter("net.frame_errors");
    oversized_frames = metrics->counter("net.oversized_frames");
    oversized_responses = metrics->counter("net.oversized_responses");
    evicted_idle = metrics->counter("net.evicted_idle");
    evicted_slow = metrics->counter("net.evicted_slow");
    admission_rejected = metrics->counter("net.admission_rejected");
    drain_cancelled = metrics->counter("net.drain_cancelled");
    push_observe_errors = metrics->counter("net.push_observe_errors");
    push_verdict_errors = metrics->counter("net.push_verdict_errors");
    for (size_t byte = 0; byte < endpoints.size(); ++byte) {
      auto type = static_cast<MessageType>(byte);
      // Replication acks are applied on the loop thread, never handled.
      if (!IsRequestType(type) || type == MessageType::kReplicateAckRequest) {
        continue;
      }
      const std::string name = MessageTypeName(type);
      endpoints[byte] = {metrics->counter("net.requests." + name),
                         metrics->histogram("net.request_micros." + name),
                         metrics->counter("net.request_errors." + name)};
    }
    // No cache-invalidation change listener: decision-cache entries are
    // keyed on per-table version epochs (catalog epoch for schema-only
    // decisions, FROM-table epoch fingerprints for executed profiles), so
    // a write can never produce a stale hit — it simply changes the key.
    // Wholesale eviction here would throw away exactly the cross-write
    // hit rates the versioned keys exist to preserve.
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd, &one, sizeof(one));
    (void)ignored;
  }

  void DrainWake() {
    uint64_t value;
    while (::read(wake_fd, &value, sizeof(value)) > 0) {
    }
  }

  void UpdateEpoll(Conn* conn) {
    epoll_event event{};
    event.data.fd = conn->fd;
    if (!conn->paused) event.events |= EPOLLIN;
    bool want_write = conn->out_offset < conn->out.size();
    if (want_write) event.events |= EPOLLOUT;
    conn->want_write = want_write;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &event);
  }

  void CloseConn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    uint64_t conn_id = it->second->id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(it);
    fd_by_conn_id.erase(conn_id);
    connections_gauge->Set(static_cast<int64_t>(conns.size()));
    // Drop the connection's subscriptions (registry mutex only — the
    // loop thread must never wait on state_mutex) and park the released
    // standing expressions for the next writer-lock holder to collect.
    std::vector<int> released = subscriptions.DropConnection(conn_id);
    if (!released.empty()) {
      std::lock_guard<std::mutex> lock(push_mutex);
      orphaned_exprs.insert(orphaned_exprs.end(), released.begin(),
                            released.end());
    }
    // A closing follower leaves the replica table; ack waiters
    // recompute their quorum over the survivors.
    hub.DropConnection(conn_id);
  }

  void CloseAll() {
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const auto& [fd, conn] : conns) fds.push_back(fd);
    for (int fd : fds) CloseConn(fd);
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  void AcceptAll() {
    while (true) {
      sockaddr_in peer_addr{};
      socklen_t peer_len = sizeof(peer_addr);
      int fd = ::accept4(listen_fd,
                         reinterpret_cast<sockaddr*>(&peer_addr), &peer_len,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient accept failure: try next wakeup
      }
      if (conns.size() >= options.max_connections) {
        connections_rejected->Increment();
        std::string frame = EncodeFrame(MakeErrorMessage(
            Status::ResourceExhausted("connection limit reached")));
        ::send(fd, frame.data(), frame.size(),
               MSG_DONTWAIT | MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (options.so_sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.so_sndbuf,
                     sizeof(options.so_sndbuf));
      }
      auto conn = std::make_unique<Conn>(options.max_frame_bytes);
      conn->fd = fd;
      conn->id = next_conn_id++;
      if (peer_addr.sin_family == AF_INET) {
        char ip[INET_ADDRSTRLEN] = "";
        if (::inet_ntop(AF_INET, &peer_addr.sin_addr, ip, sizeof(ip)) !=
            nullptr) {
          conn->peer = ip;
        }
      }
      conn->last_read = conn->last_write_progress = Clock::now();
      epoll_event event{};
      event.data.fd = fd;
      event.events = EPOLLIN;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
        ::close(fd);
        continue;
      }
      fd_by_conn_id[conn->id] = fd;
      conns.emplace(fd, std::move(conn));
      connections_accepted->Increment();
      connections_gauge->Set(static_cast<int64_t>(conns.size()));
    }
  }

  void QueueWrite(Conn* conn, Message message) {
    if (conn->out_offset == conn->out.size()) {
      conn->last_write_progress = Clock::now();
    }
    message.version = conn->version;
    conn->out.append(EncodeFrame(message));
    frames_sent->Increment();
    FlushConn(conn);
  }

  /// Tops a drained write buffer up with parked push frames. Loop
  /// thread only; a no-op for connections without pending pushes.
  void RefillPushes(Conn* conn) {
    if (conn->close_after_flush) return;
    if (conn->out_offset == conn->out.size()) {
      conn->last_write_progress = Clock::now();
    }
    size_t frames =
        subscriptions.DrainFrames(conn->id, kPushRefillBytes, &conn->out);
    frames += hub.DrainFrames(conn->id, kPushRefillBytes, &conn->out);
    if (frames > 0) frames_sent->Increment(frames);
  }

  /// Writes as much of the buffered response bytes as the socket takes,
  /// topping the buffer up from the connection's parked push queues
  /// whenever it drains — server-initiated pushes ride the same
  /// write-interest machinery as responses. May close the connection
  /// (write error, or close_after_flush done).
  void FlushConn(Conn* conn) {
    int fd = conn->fd;
    while (true) {
      while (conn->out_offset < conn->out.size()) {
        ssize_t n =
            ::send(fd, conn->out.data() + conn->out_offset,
                   conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn->out_offset += static_cast<size_t>(n);
          bytes_written->Increment(static_cast<uint64_t>(n));
          conn->last_write_progress = Clock::now();
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          UpdateEpoll(conn);
          return;
        }
        CloseConn(fd);
        return;
      }
      conn->out.clear();
      conn->out_offset = 0;
      if (conn->close_after_flush) {
        CloseConn(fd);
        return;
      }
      RefillPushes(conn);
      if (conn->out.empty()) break;
    }
    if (conn->want_write) UpdateEpoll(conn);
  }

  Status SubmitHandler(Conn* conn, Message request) {
    int fd = conn->fd;
    uint64_t conn_id = conn->id;
    // Conn state is loop-thread-only; the handler gets its own copy.
    return handlers->TrySubmit([this, fd, conn_id, peer = conn->peer,
                                request = std::move(request)] {
      auto start = Clock::now();
      Message response = HandleRequest(request, conn_id, peer);
      // Never emit a frame the client's reader could refuse: oversized
      // replies (huge SELECT render, metrics dump, detailed report)
      // degrade to an OutOfRange error on a connection that stays in
      // sync. Non-idempotent handlers guard before their side effects.
      if (options.max_response_bytes > 0 &&
          1 + response.payload.size() > options.max_response_bytes) {
        oversized_responses->Increment();
        response = MakeErrorMessage(Status::OutOfRange(
            "response body of " +
            std::to_string(1 + response.payload.size()) +
            " bytes exceeds limit " +
            std::to_string(options.max_response_bytes)));
      }
      // Stamped after the oversized swap: every frame on this
      // connection must carry the magic its first frame pinned.
      response.version = request.version;
      uint64_t micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start)
              .count());
      const EndpointMetrics& endpoint =
          endpoints[static_cast<uint8_t>(request.type)];
      endpoint.requests->Increment();
      endpoint.micros->Observe(micros);
      if (response.type == MessageType::kErrorResponse) {
        endpoint.errors->Increment();
      }
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done.push_back(Done{fd, conn_id, EncodeFrame(response)});
      }
      Wake();
    });
  }

  /// Marks a connection dead after a protocol violation: reads stop for
  /// good, no further handlers start, and the connection closes once
  /// the error frame flushes. If a handler is in flight its response is
  /// delivered first — the in-order response guarantee holds even on a
  /// dying connection. May close the connection (error-frame write
  /// failure).
  void PoisonConn(Conn* conn, const Status& status) {
    conn->paused = true;
    conn->close_after_flush = true;
    if (conn->busy) {
      Message error = MakeErrorMessage(status);
      error.version = conn->version;
      conn->deferred_error = EncodeFrame(error);
      UpdateEpoll(conn);
      return;
    }
    QueueWrite(conn, MakeErrorMessage(status));
  }

  /// Parses complete frames already buffered in the connection's
  /// FrameReader into the pending queue, pausing reads at the
  /// pipelining cap and poisoning the connection on malformed input.
  /// Returns false when the connection was closed underneath us.
  bool ParseFrames(Conn* conn) {
    const int fd = conn->fd;
    while (!conn->close_after_flush &&
           conn->pending.size() < options.max_pipelined) {
      auto next = conn->reader.Next();
      if (!next.ok()) {
        frame_errors->Increment();
        if (next.status().code() == StatusCode::kOutOfRange) {
          oversized_frames->Increment();
        }
        // Tell the client why, then hang up: framing errors cannot be
        // resynchronized.
        PoisonConn(conn, next.status());
        return conns.count(fd) != 0;
      }
      if (!next->has_value()) return true;
      frames_received->Increment();
      Message message = std::move(**next);
      conn->version = message.version;
      // Replication acks are one-way frames applied inline on the loop
      // thread: ExecuteQuery handlers block in WaitForAcks, so routing
      // acks through the same handler pool could starve the very acks
      // those handlers are waiting on.
      if (message.type == MessageType::kReplicateAckRequest) {
        auto ack_fields = DecodeFields(message.payload);
        int64_t acked = 0;
        if (!ack_fields.ok() || ack_fields->size() != 1 ||
            !ParseInt64((*ack_fields)[0], &acked)) {
          frame_errors->Increment();
          PoisonConn(conn, Status::InvalidArgument(
                               "malformed replication ack"));
          return conns.count(fd) != 0;
        }
        hub.Ack(conn->id, acked);
        continue;
      }
      if (!IsRequestType(message.type)) {
        frame_errors->Increment();
        PoisonConn(conn, Status::InvalidArgument(
                             "expected a request frame"));
        return conns.count(fd) != 0;
      }
      conn->pending.push_back(std::move(message));
    }
    if (conn->pending.size() >= options.max_pipelined) {
      conn->paused = true;
      UpdateEpoll(conn);
    }
    return true;
  }

  /// Starts handlers for parsed requests, in order, one at a time per
  /// connection. Under kReject a full handler queue turns into an
  /// immediate RESOURCE_EXHAUSTED response; under kBlock the request
  /// parks at the head and reads stay paused until a slot frees up.
  void PumpConn(Conn* conn) {
    const int fd = conn->fd;
    bool unpaused = false;
    while (true) {
      while (!conn->busy && !conn->pending.empty() &&
             !conn->close_after_flush) {
        if (draining) {
          drain_cancelled->Increment();
          conn->pending.pop_front();
          QueueWrite(conn, MakeErrorMessage(Status::Cancelled(
                               "server draining, request not started")));
          if (conns.count(fd) == 0) return;  // write error closed it
          continue;
        }
        Status submitted = SubmitHandler(conn, conn->pending.front());
        if (submitted.ok()) {
          conn->pending.pop_front();
          conn->busy = true;
          ++in_flight;
          continue;
        }
        if (submitted.code() == StatusCode::kResourceExhausted &&
            options.handlers.admission ==
                service::AdmissionPolicy::kBlock) {
          break;  // retried by PumpStalled once a handler frees a slot
        }
        admission_rejected->Increment();
        conn->pending.pop_front();
        QueueWrite(conn, MakeErrorMessage(submitted));
        if (conns.count(fd) == 0) return;
      }
      // Resume reads once the pipeline buffer has room again (unless
      // the framing is poisoned, which pauses the connection for good).
      // Frames the client pipelined past the cap are already sitting in
      // the FrameReader and will never raise another EPOLLIN, so parse
      // them now instead of waiting on the socket.
      if (conn->paused && !conn->close_after_flush &&
          conn->pending.size() < options.max_pipelined) {
        conn->paused = false;
        unpaused = true;
        size_t before = conn->pending.size();
        if (!ParseFrames(conn)) return;  // error-frame write closed it
        if (conn->pending.size() > before && !conn->busy) continue;
      }
      break;
    }
    if (unpaused) UpdateEpoll(conn);
  }

  void PumpStalled() {
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const auto& [fd, conn] : conns) {
      if (!conn->busy && !conn->pending.empty()) fds.push_back(fd);
    }
    for (int fd : fds) {
      auto it = conns.find(fd);
      if (it != conns.end()) PumpConn(it->second.get());
    }
  }

  /// Pulls completed handler responses onto their connections' write
  /// buffers. Responses for connections that died in the meantime are
  /// dropped (the id check defeats fd reuse).
  void DeliverCompletions() {
    std::vector<Done> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      batch.swap(done);
    }
    for (auto& d : batch) {
      --in_flight;
      auto it = conns.find(d.fd);
      if (it == conns.end() || it->second->id != d.conn_id) continue;
      Conn* conn = it->second.get();
      conn->busy = false;
      if (conn->out_offset == conn->out.size()) {
        conn->last_write_progress = Clock::now();
      }
      conn->out.append(d.frame);
      frames_sent->Increment();
      // A protocol violation detected while this handler ran parked its
      // error frame; it goes out right behind the response it waited
      // for, keeping the dying connection's responses in order.
      if (!conn->deferred_error.empty()) {
        conn->out.append(conn->deferred_error);
        conn->deferred_error.clear();
        frames_sent->Increment();
      }
      FlushConn(conn);
      it = conns.find(d.fd);
      if (it != conns.end() && it->second->id == d.conn_id) {
        PumpConn(it->second.get());
      }
    }
  }

  /// Reads until EAGAIN and parses complete frames into the pending
  /// queue. Returns false when the connection was closed.
  bool ReadConn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return false;
    Conn* conn = it->second.get();
    // A stale EPOLLIN for a paused connection is a no-op: the data
    // stays in the kernel buffer (level-triggered) and the unpause path
    // in PumpConn resumes parsing and re-arms the interest set.
    if (conn->paused) return true;
    char buf[16384];
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        bytes_read->Increment(static_cast<uint64_t>(n));
        conn->reader.Feed(buf, static_cast<size_t>(n));
        conn->last_read = Clock::now();
        continue;
      }
      if (n == 0) {
        CloseConn(fd);
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(fd);
      return false;
    }
    if (!ParseFrames(conn)) return false;
    it = conns.find(fd);
    if (it == conns.end()) return false;
    PumpConn(it->second.get());
    return conns.count(fd) != 0;
  }

  void SweepTimeouts() {
    if (options.idle_timeout.count() == 0 &&
        options.write_timeout.count() == 0) {
      return;
    }
    auto now = Clock::now();
    std::vector<int> slow;
    std::vector<int> idle;
    for (const auto& [fd, conn] : conns) {
      if (options.write_timeout.count() > 0 &&
          conn->out_offset < conn->out.size() &&
          now - conn->last_write_progress > options.write_timeout) {
        slow.push_back(fd);
        continue;
      }
      if (options.idle_timeout.count() > 0 && !conn->busy &&
          conn->pending.empty() && conn->out.empty() &&
          now - conn->last_read > options.idle_timeout &&
          // A passive subscriber legitimately sends nothing for long
          // stretches; pushes are its liveness signal, and a dead peer
          // still surfaces through write errors or the write timeout.
          // Followers are likewise quiet between writes — a partitioned
          // one is evicted by the write timeout or queue overflow.
          !subscriptions.HasSubscriptions(conn->id) &&
          !hub.IsFollower(conn->id)) {
        idle.push_back(fd);
      }
    }
    for (int fd : slow) {
      evicted_slow->Increment();
      CloseConn(fd);
    }
    for (int fd : idle) {
      evicted_idle->Increment();
      CloseConn(fd);
    }
  }

  void BeginDrain() {
    draining = true;
    drain_deadline = Clock::now() + options.drain_timeout;
    if (listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  bool DrainComplete() {
    if (Clock::now() >= drain_deadline) return true;
    if (in_flight > 0) return false;
    // Parked pushes and undelivered replication frames count as
    // undelivered responses: drain flushes them (or times out on a
    // peer that stopped reading).
    if (subscriptions.TotalPending() > 0) return false;
    if (hub.TotalPending() > 0) return false;
    for (const auto& [fd, conn] : conns) {
      if (conn->busy || !conn->pending.empty() ||
          conn->out_offset < conn->out.size()) {
        return false;
      }
    }
    return true;
  }

  /// Acts on Publish outcomes queued by handler threads: evicts flagged
  /// slow subscribers and starts flushing freshly parked pushes on
  /// connections whose write buffer is idle. Loop thread only.
  void DeliverPushes() {
    std::vector<uint64_t> ready, evict;
    {
      std::lock_guard<std::mutex> lock(push_mutex);
      ready.swap(push_ready);
      evict.swap(push_evict);
    }
    for (uint64_t conn_id : evict) {
      auto it = fd_by_conn_id.find(conn_id);
      if (it != fd_by_conn_id.end()) CloseConn(it->second);
    }
    for (uint64_t conn_id : ready) {
      auto it = fd_by_conn_id.find(conn_id);
      if (it == fd_by_conn_id.end()) continue;
      auto cit = conns.find(it->second);
      if (cit == conns.end() || cit->second->id != conn_id) continue;
      Conn* conn = cit->second.get();
      // A busy write buffer picks the pushes up when it drains
      // (FlushConn refills); only an idle one needs a kick here.
      if (conn->out_offset < conn->out.size() || conn->close_after_flush) {
        continue;
      }
      RefillPushes(conn);
      if (!conn->out.empty()) FlushConn(conn);
    }
  }

  std::string CombinedMetricsJson() const {
    std::string json = "{\"server\":" + metrics->ToJson() +
                       ",\"service\":" + service->MetricsJson() +
                       ",\"index\":" +
                       service->decision_cache()->stats()->ToJson();
    if (options.durable_store != nullptr) {
      json += ",\"durability\":" + options.durable_store->MetricsJson();
    }
    json += ",\"push\":" + subscriptions.MetricsJson();
    if (options.policy != nullptr) {
      json += ",\"policy\":" + options.policy->MetricsJson();
    }
    json += ",\"replication\":" + ReplicationMetricsJson();
    json += ",\"versions\":" + VersionsMetricsJson();
    return json + "}";
  }

  bool ReplicationOn() const {
    return options.replication || !options.replicate_from.empty() ||
           is_replica.load() || hub.follower_count() > 0;
  }

  int64_t AppliedLogId() const {
    std::shared_lock<std::shared_mutex> lock(state_mutex);
    return static_cast<int64_t>(log->size());
  }

  std::string ReplicationMetricsJson() const {
    std::string json = "{\"role\":\"";
    json += is_replica.load() ? "replica" : "primary";
    json += "\",\"ack_policy\":\"";
    json += ReplAckPolicyName(options.repl_ack);
    json += "\",\"advertise\":" + service::JsonQuote(advertise);
    json += ",\"applied_log_id\":" + std::to_string(AppliedLogId());
    json += ",\"load_generation\":" +
            std::to_string(load_generation.load());
    json += ",\"hub\":" + hub.MetricsJson();
    {
      std::lock_guard<std::mutex> lock(repl_mutex);
      if (replica != nullptr) {
        json += ",\"session\":" + replica->MetricsJson();
      }
    }
    return json + "}";
  }

  /// The `|role=...` tail appended to Health when replication is on —
  /// enough for a supervisor to pick the most-caught-up follower
  /// without parsing the metrics JSON.
  std::string ReplicationHealthSuffix() const {
    std::string suffix = std::string("|role=") +
                         (is_replica.load() ? "replica" : "primary") +
                         "|applied=" + std::to_string(AppliedLogId()) +
                         "|last_shipped=" +
                         std::to_string(hub.last_shipped()) +
                         "|followers=" +
                         std::to_string(hub.follower_count());
    std::lock_guard<std::mutex> lock(repl_mutex);
    if (replica != nullptr) {
      suffix += "|upstream=" + replica->upstream() + "|connected=" +
                (replica->connected() ? "1" : "0");
    }
    return suffix;
  }

  /// Ships one committed frame to every follower and queues the
  /// outcome for the loop (the same handoff PublishScreenings uses).
  /// Caller holds the writer lock, so ship order equals commit order.
  void QueueShip(int64_t log_id, const std::string& frame) {
    PublishOutcome outcome = hub.Ship(log_id, frame);
    if (outcome.ready_conns.empty() && outcome.evict_conns.empty()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(push_mutex);
      push_ready.insert(push_ready.end(), outcome.ready_conns.begin(),
                        outcome.ready_conns.end());
      push_evict.insert(push_evict.end(), outcome.evict_conns.begin(),
                        outcome.evict_conns.end());
    }
    Wake();
  }

  /// The LoadDump generation survives restarts alongside the durable
  /// store (REPLGEN file), so a restarted node handshakes with the
  /// generation its on-disk state actually reflects.
  void PersistReplGeneration(uint64_t gen) {
    io::DurableStore* store = options.durable_store;
    if (store == nullptr) return;
    Status wrote =
        io::AtomicWriteFile(store->env(), store->dir() + "/REPLGEN",
                            std::to_string(gen) + "\n");
    (void)wrote;  // best-effort: a miss degrades to a rejoin bootstrap
  }

  void LoadReplGeneration() {
    io::DurableStore* store = options.durable_store;
    if (store == nullptr) return;
    auto data = store->env()->ReadFileToString(store->dir() + "/REPLGEN");
    if (!data.ok()) return;
    std::string_view text = *data;
    if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
    uint64_t gen = 0;
    if (ParseUint64(text, &gen)) load_generation.store(gen);
  }

  /// Applies a LoadDump (`kind` db or log) to the live state. Caller
  /// holds the writer lock.
  Status LoadDump(const std::string& kind, const std::string& dump,
                  Timestamp stamp) {
    std::istringstream in(dump);
    if (kind == "db") return io::ReadDatabaseDump(in, db, stamp);
    if (kind == "log") return io::ReadQueryLogDump(in, log);
    return Status::InvalidArgument(
        "load kind must be 'db' or 'log', got: " + kind);
  }

  /// Builds the replica-side apply callbacks and starts the streaming
  /// session against options.replicate_from.
  void StartReplica() {
    ReplicaApplier applier;
    applier.apply_query = [this](const LoggedQuery& entry) -> Status {
      std::unique_lock<std::shared_mutex> lock(state_mutex);
      int64_t expect = log->next_id();
      if (entry.id != expect) {
        return Status::Internal(
            "shipped record id " + std::to_string(entry.id) +
            " does not extend the log at " + std::to_string(expect));
      }
      io::DurableStore* store = options.durable_store;
      if (store != nullptr) {
        AUDITDB_RETURN_IF_ERROR(store->AppendQuery(entry));
        // fsync-before-ack: the ack promises the record survives
        // kill -9 regardless of the configured fsync cadence.
        if (store->store_options().fsync !=
            querylog::FsyncPolicy::kAlways) {
          AUDITDB_RETURN_IF_ERROR(store->Sync());
        }
      }
      int64_t id = log->Append(entry.sql, entry.timestamp, entry.user,
                               entry.role, entry.purpose);
      MaybeCheckpoint();
      // Replica subscribers get the same observe/push fan-out as on
      // the primary; policy emission stays with the node that actually
      // executed the query. Observe reads the logged entry, whose shape
      // the append just computed.
      if (subscriptions.active() > 0) {
        GcOrphans();
        auto observed =
            online->Observe(log->Entry(static_cast<size_t>(id - 1)),
                            service->pool());
        if (!observed.ok()) {
          push_observe_errors->Increment();
        }
      }
      return Status::Ok();
    };
    applier.apply_load = [this](const std::string& kind,
                                const std::string& dump, uint64_t gen,
                                int64_t stamp) -> Status {
      std::unique_lock<std::shared_mutex> lock(state_mutex);
      AUDITDB_RETURN_IF_ERROR(LoadDump(kind, dump, Timestamp(stamp)));
      load_generation.store(gen);
      PersistReplGeneration(gen);
      if (options.durable_store != nullptr) {
        return options.durable_store->Checkpoint(*db, *log);
      }
      return Status::Ok();
    };
    applier.apply_bootstrap = [this](const std::string& db_dump,
                                     const std::string& log_dump,
                                     uint64_t gen,
                                     int64_t stamp) -> Status {
      std::unique_lock<std::shared_mutex> lock(state_mutex);
      if (log->size() > 0 || !db->TableNames().empty()) {
        return Status::InvalidArgument(
            "bootstrap checkpoint offered to a non-empty replica; wipe "
            "its data dir and restart");
      }
      std::istringstream db_in(db_dump);
      AUDITDB_RETURN_IF_ERROR(
          io::ReadDatabaseDump(db_in, db, Timestamp(stamp)));
      std::istringstream log_in(log_dump);
      AUDITDB_RETURN_IF_ERROR(io::ReadQueryLogDump(log_in, log));
      load_generation.store(gen);
      PersistReplGeneration(gen);
      // A checkpoint makes the bootstrap durable before it is acked.
      if (options.durable_store != nullptr) {
        return options.durable_store->Checkpoint(*db, *log);
      }
      return Status::Ok();
    };
    applier.applied_log_id = [this]() -> int64_t {
      return AppliedLogId();
    };
    applier.have_state = [this]() -> bool {
      std::shared_lock<std::shared_mutex> lock(state_mutex);
      return log->size() > 0 || !db->TableNames().empty();
    };
    applier.load_generation = [this]() -> uint64_t {
      return load_generation.load();
    };
    is_replica.store(true);
    std::lock_guard<std::mutex> lock(repl_mutex);
    replica = std::make_unique<ReplicaSession>(options.replicate_from,
                                               std::move(applier));
    replica->Start();
  }

  /// The NOT_PRIMARY rejection every mutating endpoint returns on a
  /// replica; carries the upstream so clients can fail over.
  Status RejectNotPrimary() {
    std::lock_guard<std::mutex> lock(repl_mutex);
    return MakeNotPrimaryStatus(
        replica != nullptr ? replica->upstream() : std::string());
  }

  /// MVCC observability: per-table version/COW/columnar counters plus the
  /// query log's structural shape-dedup ratio. Walking the live catalog
  /// races LoadDump's CreateTable, so hold the shared state lock for the
  /// walk (the per-table counters themselves are atomics).
  std::string VersionsMetricsJson() const {
    std::shared_lock<std::shared_mutex> lock(state_mutex);
    std::string json = "{\"catalog_epoch\":" +
                       std::to_string(db->catalog_epoch()) + ",\"tables\":{";
    bool first = true;
    for (const auto& name : db->TableNames()) {
      auto table = db->GetTable(name);
      if (!table.ok()) continue;
      const TableStats& stats = (*table)->stats();
      if (!first) json += ",";
      first = false;
      json += service::JsonQuote(name) + ":{\"epoch\":" +
              std::to_string((*table)->epoch()) +
              ",\"live_versions\":" +
              std::to_string(stats.live_versions.load()) +
              ",\"versions_published\":" +
              std::to_string(stats.versions_published.load()) +
              ",\"cow_rows\":" + std::to_string(stats.cow_rows.load()) +
              ",\"cow_bytes\":" + std::to_string(stats.cow_bytes.load()) +
              ",\"columnar_builds\":" +
              std::to_string(stats.columnar_builds.load()) +
              ",\"columnar_hits\":" +
              std::to_string(stats.columnar_hits.load()) +
              ",\"join_index_builds\":" +
              std::to_string(stats.join_index_builds.load()) +
              ",\"join_index_hits\":" +
              std::to_string(stats.join_index_hits.load()) + "}";
    }
    const size_t entries = log->size();
    const size_t shapes = log->distinct_shapes();
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f",
                  shapes == 0 ? 1.0
                              : static_cast<double>(entries) /
                                    static_cast<double>(shapes));
    json += "},\"log_entries\":" + std::to_string(entries) +
            ",\"distinct_shapes\":" + std::to_string(shapes) +
            ",\"shape_dedup_ratio\":" + ratio + "}";
    return json;
  }

  /// Runs the automatic checkpoint cadence; call under the writer lock
  /// after a durable append. A failed checkpoint before the commit
  /// point is non-fatal: the store keeps running on its old WAL and the
  /// failure is visible in the durability metrics.
  void MaybeCheckpoint() {
    io::DurableStore* store = options.durable_store;
    if (store == nullptr || !store->ShouldCheckpoint()) return;
    Status ignored = store->Checkpoint(*db, *log);
    (void)ignored;
  }

  /// The one place a handler's result becomes a frame: its payload in
  /// an OK frame, or its Status in an error frame.
  Message HandleRequest(const Message& request, uint64_t conn_id,
                        const std::string& peer);
  Result<std::string> Dispatch(const Message& request, uint64_t conn_id,
                               const std::string& peer);
  std::string HandleHealth();
  Result<std::string> HandleAudit(const Message& request, bool static_only);
  Result<std::string> HandleScreenLibrary(const Message& request);
  Result<std::string> HandleExecuteQuery(const Message& request,
                                         const std::string& peer);
  Result<std::string> HandleLoadDump(const Message& request);
  std::string PolicyNote(
      const policy::PolicyEngine::Decision& decision,
      const policy::QueryContext& ctx,
      const std::vector<audit::OnlineAuditor::Screening>& screenings,
      bool observed_ok);
  Result<std::string> HandleSubscribe(const Message& request,
                                      uint64_t conn_id);
  Result<std::string> HandleUnsubscribe(const Message& request,
                                        uint64_t conn_id);
  Result<std::string> HandleReplicate(const Message& request,
                                      uint64_t conn_id);
  Result<std::string> HandlePromote(const Message& request);

  /// Collects standing expressions released by closed connections.
  /// Caller must hold the writer side of state_mutex.
  void GcOrphans() {
    std::vector<int> released;
    {
      std::lock_guard<std::mutex> lock(push_mutex);
      released.swap(orphaned_exprs);
    }
    for (int id : released) ReleaseStanding(id);
  }

  /// Drops one reference to a standing expression, removing it from the
  /// online monitor when the last subscription goes away. Caller must
  /// hold the writer side of state_mutex.
  void ReleaseStanding(int id) {
    auto it = standing.find(id);
    if (it == standing.end()) return;
    if (--it->second.refs > 0) return;
    standing_by_key.erase(it->second.key);
    standing.erase(it);
    Status removed = online->RemoveExpression(id);
    (void)removed;
  }

  /// The observe → fan-out hook body (OnlineAuditor screening
  /// listener): publishes a PROGRESS event for every expression whose
  /// suspicion state changed, and an ALERT — carrying the canonical
  /// poll-identical verdict — for every expression that just fired.
  /// Runs on the handler thread under the writer lock (the verdict
  /// audit must see exactly the log state the triggering query
  /// committed).
  void PublishScreenings(
      const LoggedQuery& query,
      const std::vector<audit::OnlineAuditor::Screening>& screenings) {
    std::vector<uint64_t> ready, evict;
    for (const auto& screening : screenings) {
      auto it = standing.find(screening.expression_id);
      if (it == standing.end()) continue;
      StandingExpr& se = it->second;
      bool newly_fired = screening.fired && !se.last.fired;
      if (screening.rank == se.last.rank &&
          screening.fired == se.last.fired) {
        continue;  // nothing the subscriber doesn't already know
      }
      std::string verdict;
      PushKind kind = PushKind::kProgress;
      if (newly_fired) {
        kind = PushKind::kAlert;
        // Same code path a poll takes (AuditService::Audit on the
        // qualified expression, default options, shared cache), so the
        // pushed verdict is byte-identical to auditing the log range
        // that ends at the triggering query.
        auto report = service->Audit(se.expr);
        if (report.ok()) {
          verdict = report->CanonicalString();
        } else {
          push_verdict_errors->Increment();
          verdict = "verdict-error: " + report.status().message();
        }
      }
      se.last = screening;
      PublishOutcome outcome = subscriptions.Publish(
          screening.expression_id, kind, query.id, screening.rank,
          screening.fired, verdict);
      ready.insert(ready.end(), outcome.ready_conns.begin(),
                   outcome.ready_conns.end());
      evict.insert(evict.end(), outcome.evict_conns.begin(),
                   outcome.evict_conns.end());
    }
    if (ready.empty() && evict.empty()) return;
    {
      std::lock_guard<std::mutex> lock(push_mutex);
      push_ready.insert(push_ready.end(), ready.begin(), ready.end());
      push_evict.insert(push_evict.end(), evict.begin(), evict.end());
    }
    Wake();
  }
};

Message AuditServer::Impl::HandleRequest(const Message& request,
                                         uint64_t conn_id,
                                         const std::string& peer) {
  Result<std::string> payload = Dispatch(request, conn_id, peer);
  if (!payload.ok()) return MakeErrorMessage(payload.status());
  return Message{MessageType::kOkResponse, std::move(*payload)};
}

Result<std::string> AuditServer::Impl::Dispatch(const Message& request,
                                                uint64_t conn_id,
                                                const std::string& peer) {
  if (request.version != WireVersion::kV2 &&
      (request.type == MessageType::kSubscribeRequest ||
       request.type == MessageType::kUnsubscribeRequest ||
       request.type == MessageType::kReplicateRequest ||
       request.type == MessageType::kPromoteRequest)) {
    return Status::InvalidArgument(
        "subscriptions, replication and promotion require protocol ADB2 "
        "(this connection speaks ADB1)");
  }
  switch (request.type) {
    case MessageType::kHealthRequest:
      return HandleHealth();
    case MessageType::kMetricsRequest:
      return CombinedMetricsJson();
    case MessageType::kAuditRequest:
      return HandleAudit(request, /*static_only=*/false);
    case MessageType::kAuditStaticRequest:
      return HandleAudit(request, /*static_only=*/true);
    case MessageType::kScreenLibraryRequest:
      return HandleScreenLibrary(request);
    case MessageType::kExecuteQueryRequest:
      return HandleExecuteQuery(request, peer);
    case MessageType::kLoadDumpRequest:
      return HandleLoadDump(request);
    case MessageType::kSubscribeRequest:
      return HandleSubscribe(request, conn_id);
    case MessageType::kUnsubscribeRequest:
      return HandleUnsubscribe(request, conn_id);
    case MessageType::kReplicateRequest:
      return HandleReplicate(request, conn_id);
    case MessageType::kPromoteRequest:
      return HandlePromote(request);
    default:
      return Status::InvalidArgument("not a request frame");
  }
}

std::string AuditServer::Impl::HandleHealth() {
  // The payload is ignored (load generators pad it to probe frame
  // sizes); a response proves loop + handler pool are alive. With a
  // durable store attached the response carries its vitals so a probe
  // can see recovery results and a wedged store without parsing the
  // full metrics JSON.
  io::DurableStore* store = options.durable_store;
  std::string payload;
  if (store == nullptr) {
    payload = "ok";
  } else {
    const io::RecoveryInfo& recovery = store->recovery();
    payload = std::string(store->broken() ? "wedged" : "ok") +
              "|durable|wal_records=" + std::to_string(store->wal_records()) +
              "|wal_bytes=" + std::to_string(store->wal_bytes()) +
              "|recovered_records=" +
              std::to_string(recovery.recovered_records) +
              "|torn_tail_dropped=" +
              std::to_string(recovery.torn_tail_dropped) +
              "|last_checkpoint_seq=" +
              std::to_string(store->last_checkpoint_seq());
  }
  // Appended only when replication is configured, so probes of a
  // standalone node keep their exact historical payload.
  if (ReplicationOn()) payload += ReplicationHealthSuffix();
  return payload;
}

Result<std::string> AuditServer::Impl::HandleAudit(const Message& request,
                                                   bool static_only) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t now_micros = 0;
  if (fields.size() != 2 || !ParseInt64(fields[1], &now_micros)) {
    return Status::InvalidArgument(
        "audit request wants fields: expression|now_micros");
  }
  audit::AuditOptions options;
  options.static_only = static_only;
  // Pin under a brief shared lock (so the capture is atomic against a
  // concurrent dump load), then audit with no lock held at all: the run
  // reads only the pinned immutable table versions and the wait-free
  // log/backlog prefixes, so a long audit never blocks the execute
  // path's writer section.
  audit::AuditPin pin;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex);
    pin = service->Pin();
  }
  AUDITDB_ASSIGN_OR_RETURN(
      auto report,
      service->AuditPinned(fields[0], Timestamp(now_micros), pin, options));
  return EncodeFields({report.CanonicalString(), report.DetailedReport(*log)});
}

Result<std::string> AuditServer::Impl::HandleScreenLibrary(
    const Message& request) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t now_micros = 0;
  if (fields.size() < 2 || !ParseInt64(fields[0], &now_micros)) {
    return Status::InvalidArgument(
        "screen request wants fields: now_micros|expr[|expr...]");
  }
  // Same discipline as HandleAudit: lock only the pin capture; the whole
  // library screens one consistent cut (the pinned view's catalog
  // included) with no lock held.
  audit::AuditPin pin;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex);
    pin = service->Pin();
  }
  audit::ExpressionLibrary library(&pin.db.catalog());
  for (size_t i = 1; i < fields.size(); ++i) {
    AUDITDB_ASSIGN_OR_RETURN(
        auto expr, audit::ParseAudit(fields[i], Timestamp(now_micros)));
    // Expressions subsumed by an existing member simply don't add a new
    // member; their coverage is implied by the subsuming screening.
    AUDITDB_RETURN_IF_ERROR(library.Add(expr).status());
  }
  auto screenings = service->ScreenLibraryPinned(library, pin);
  std::vector<std::string> out;
  out.reserve(screenings.size() * 4);
  for (const auto& screening : screenings) {
    out.push_back(std::to_string(screening.expression_id));
    out.push_back(StatusCodeName(screening.status.code()));
    out.push_back(screening.status.message());
    out.push_back(screening.status.ok()
                      ? screening.report.CanonicalString()
                      : std::string());
  }
  return EncodeFields(out);
}

Result<std::string> AuditServer::Impl::HandleExecuteQuery(
    const Message& request, const std::string& peer) {
  // A replica's log is the primary's log: local writes would fork it.
  if (is_replica.load()) return RejectNotPrimary();
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t now_micros = 0;
  if (fields.size() != 5 || !ParseInt64(fields[4], &now_micros)) {
    return Status::InvalidArgument(
        "execute request wants fields: sql|user|role|purpose|now_micros");
  }
  policy::PolicyEngine* engine = options.policy;
  auto make_ctx = [&](bool execute_failed) {
    policy::QueryContext ctx;
    ctx.sql = fields[0];
    ctx.user = fields[1];
    ctx.role = fields[2];
    ctx.purpose = fields[3];
    ctx.timestamp = Timestamp(now_micros);
    ctx.remote = peer;
    ctx.query_class = policy::ClassifySql(ctx.sql, execute_failed);
    // Matching only needs table names when a rule constrains on them;
    // otherwise the extra lex is deferred to matched-and-emitted
    // queries (fill_tables), keeping the 0%-hit path cheap.
    if (engine->NeedsTables()) {
      ctx.tables = policy::ExtractTables(ctx.sql);
    }
    return ctx;
  };
  auto fill_tables = [](const policy::PolicyEngine::Decision& decision,
                        policy::QueryContext* ctx) {
    if (decision.matched && decision.detail != policy::AuditDetail::kNone &&
        ctx->tables.empty()) {
      ctx->tables = policy::ExtractTables(ctx->sql);
    }
  };
  // Execute against a pinned snapshot with no writer lock held — the
  // expensive part of the handler (parse + execute) runs concurrently
  // with other executes and with audits. The brief shared lock only
  // makes the pin atomic against a concurrent dump load.
  DatabaseView exec_view;
  {
    std::shared_lock<std::shared_mutex> read_lock(state_mutex);
    exec_view = db->Snapshot();
  }
  auto result = ExecuteSql(fields[0], exec_view);
  if (!result.ok()) {
    // Rejected statements still face the policy (pgaudit's ERROR
    // class); they are never logged, so the record carries log_id 0.
    // The policy engine is internally synchronized — no state lock.
    if (engine != nullptr) {
      policy::QueryContext ctx = make_ctx(/*execute_failed=*/true);
      auto decision = engine->Decide(ctx);
      fill_tables(decision, &ctx);
      Status emitted = engine->Emit(decision, ctx, /*log_id=*/0,
                                    "error: " + result.status().message());
      (void)emitted;  // sink failures are counted, never fail the reply
    }
    return result.status();
  }
  // The log append is not idempotent, so an oversized response must be
  // refused *before* it — otherwise the client can never read the
  // appended entry's id. The id is digits-only (escaping is identity),
  // so `prefix` plus a separator and a worst-case int64 rendering
  // bounds the final payload.
  std::string prefix = EncodeFields(
      {result->ToString(), std::to_string(result->rows.size())});
  constexpr size_t kMaxInt64Digits = 19;
  if (options.max_response_bytes > 0 &&
      1 + prefix.size() + 1 + kMaxInt64Digits > options.max_response_bytes) {
    return Status::OutOfRange(
        "rendered query result would exceed max_response_bytes " +
        std::to_string(options.max_response_bytes) + "; query not logged");
  }
  // The writer critical section starts here and covers only the commit:
  // WAL append (reads log->next_id()), in-memory log append, checkpoint
  // cadence, and the observe/publish fan-out that must see exactly the
  // log state this query committed. Execution stayed outside it.
  std::unique_lock<std::shared_mutex> lock(state_mutex);
  // WAL-append *before* the in-memory append and the ack: an error
  // response means nothing was committed anywhere; an OK means the
  // entry is in memory and (under fsync=always) survives kill -9. A
  // recovered-but-never-acked tail record is harmless — the durability
  // contract is acked ⊆ recovered.
  LoggedQuery entry;
  entry.id = log->next_id();
  entry.sql = fields[0];
  entry.timestamp = Timestamp(now_micros);
  entry.user = fields[1];
  entry.role = fields[2];
  entry.purpose = fields[3];
  if (options.durable_store != nullptr) {
    AUDITDB_RETURN_IF_ERROR(options.durable_store->AppendQuery(entry));
  }
  // Consult the policy before logging/observing: the decision pins a
  // config snapshot, so a concurrent SIGHUP reload cannot change the
  // rule (or its redaction set) out from under this query.
  policy::PolicyEngine::Decision decision;
  policy::QueryContext ctx;
  if (engine != nullptr) {
    ctx = make_ctx(/*execute_failed=*/false);
    decision = engine->Decide(ctx);
  }
  int64_t id = log->Append(fields[0], Timestamp(now_micros), fields[1],
                           fields[2], fields[3]);
  MaybeCheckpoint();
  // Ship the committed record to followers while still inside the
  // writer section: ship order equals commit order, and a follower
  // registering concurrently builds its catch-up backlog under this
  // same lock, so it sees each record exactly once.
  bool shipped = false;
  if (hub.follower_count() > 0) {
    QueueShip(id, QueryShipFrame(entry));
    shipped = true;
  }
  // Screen the freshly logged query against the standing expressions
  // and fan state changes out as pushes (the OnlineAuditor listener
  // publishes; the loop delivers). Skipped entirely when nobody is
  // subscribed — unless a full-audit policy rule asks for the
  // observation — so the no-subscriber fast path is unchanged. An
  // observe failure (e.g. a candidacy check against an unknown table)
  // must not fail the already-committed append — it is counted and the
  // query simply does not advance any screening.
  bool full_audit = decision.matched &&
                    decision.detail == policy::AuditDetail::kFullAudit;
  std::vector<audit::OnlineAuditor::Screening> screenings;
  bool observed_ok = false;
  if (subscriptions.active() > 0 || (full_audit && online->size() > 0)) {
    GcOrphans();
    // The logged entry carries the shape the append just computed.
    auto observed = online->Observe(log->Entry(static_cast<size_t>(id - 1)),
                                    service->pool());
    if (!observed.ok()) {
      push_observe_errors->Increment();
    } else {
      screenings = std::move(*observed);
      observed_ok = true;
    }
  }
  if (engine != nullptr) {
    fill_tables(decision, &ctx);
    Status emitted = engine->Emit(
        decision, ctx, id, PolicyNote(decision, ctx, screenings,
                                      observed_ok));
    (void)emitted;  // counted in policy.sink_errors
  }
  // The ack wait happens with the writer lock released — followers
  // apply and ack concurrently with the next writes, and a slow quorum
  // only delays this one response, not the whole commit path.
  lock.unlock();
  if (shipped && options.repl_ack != ReplAckPolicy::kNone) {
    // The write is committed locally either way; a timeout surfaces
    // the under-replication instead of silently narrowing durability.
    AUDITDB_RETURN_IF_ERROR(
        hub.WaitForAcks(id, options.repl_ack, options.repl_ack_timeout));
  }
  return prefix + '|' + std::to_string(id);
}

/// Detail-level payload for a policy sink record: the statically
/// accessed columns (static-screen and up) and the standing-expression
/// screening summary (full-audit). Caller holds the writer lock.
std::string AuditServer::Impl::PolicyNote(
    const policy::PolicyEngine::Decision& decision,
    const policy::QueryContext& ctx,
    const std::vector<audit::OnlineAuditor::Screening>& screenings,
    bool observed_ok) {
  if (!decision.matched ||
      decision.detail < policy::AuditDetail::kStaticScreen) {
    return "";
  }
  std::string note;
  auto stmt = sql::ParseSelect(ctx.sql);
  if (!stmt.ok()) {
    note = "static-error: " + stmt.status().message();
  } else {
    auto cols = audit::StaticAccessedColumns(*stmt, db->catalog(),
                                             /*outputs_only=*/false);
    if (!cols.ok()) {
      note = "static-error: " + cols.status().message();
    } else {
      std::string joined;
      for (const auto& col : *cols) {
        if (!joined.empty()) joined += ",";
        joined += col.ToString();
      }
      note = "cols=" + joined;
    }
  }
  if (decision.detail == policy::AuditDetail::kFullAudit) {
    if (observed_ok) {
      size_t fired = 0;
      for (const auto& screening : screenings) {
        if (screening.fired) ++fired;
      }
      note += " standing=" + std::to_string(screenings.size()) +
              " fired=" + std::to_string(fired);
    } else {
      note += " standing=none";
    }
  }
  return note;
}

Result<std::string> AuditServer::Impl::HandleSubscribe(
    const Message& request, uint64_t conn_id) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t now_micros = 0;
  if (fields.size() != 3 || !ParseInt64(fields[2], &now_micros)) {
    return Status::InvalidArgument(
        "subscribe request wants fields: expr-or-id|value|now_micros");
  }
  std::unique_lock<std::shared_mutex> lock(state_mutex);
  GcOrphans();
  int online_id = 0;
  bool created = false;
  if (fields[0] == "id") {
    int64_t id = 0;
    if (!ParseInt64(fields[1], &id) ||
        standing.count(static_cast<int>(id)) == 0) {
      return Status::NotFound(
          "no standing expression with id " + fields[1] +
          "; subscribe by inline source to register one");
    }
    online_id = static_cast<int>(id);
  } else if (fields[0] == "expr") {
    AUDITDB_ASSIGN_OR_RETURN(
        auto expr, audit::ParseAudit(fields[1], Timestamp(now_micros)));
    audit::AuditExpression qualified = expr.Clone();
    AUDITDB_RETURN_IF_ERROR(qualified.Qualify(db->catalog()));
    std::string key = qualified.ToString();
    auto existing = standing_by_key.find(key);
    if (existing != standing_by_key.end()) {
      online_id = existing->second;
    } else {
      AUDITDB_ASSIGN_OR_RETURN(online_id, online->AddExpression(expr));
      created = true;
      StandingExpr se;
      se.expr = std::move(qualified);
      se.key = key;
      // Seed the change detector with the fresh expression's state so
      // the first contributing query publishes a transition, not the
      // baseline.
      for (const auto& current : online->Current()) {
        if (current.expression_id == online_id) se.last = current;
      }
      standing.emplace(online_id, std::move(se));
      standing_by_key.emplace(std::move(key), online_id);
    }
  } else {
    return Status::InvalidArgument(
        "subscribe kind must be 'expr' or 'id', got: " + fields[0]);
  }
  auto sub = subscriptions.Subscribe(conn_id, online_id);
  if (!sub.ok()) {
    // Roll a just-created standing expression back rather than leaking
    // an expression nobody subscribes to.
    if (created) {
      standing_by_key.erase(standing[online_id].key);
      standing.erase(online_id);
      Status removed = online->RemoveExpression(online_id);
      (void)removed;
    }
    return sub.status();
  }
  StandingExpr& se = standing[online_id];
  ++se.refs;
  return EncodeFields({std::to_string(*sub), std::to_string(online_id),
                       FormatRank(se.last.rank), se.last.fired ? "1" : "0"});
}

Result<std::string> AuditServer::Impl::HandleUnsubscribe(
    const Message& request, uint64_t conn_id) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t sub_id = 0;
  if (fields.size() != 1 || !ParseInt64(fields[0], &sub_id)) {
    return Status::InvalidArgument(
        "unsubscribe request wants fields: subscription_id");
  }
  std::unique_lock<std::shared_mutex> lock(state_mutex);
  GcOrphans();
  AUDITDB_ASSIGN_OR_RETURN(int released,
                           subscriptions.Unsubscribe(conn_id, sub_id));
  ReleaseStanding(released);
  return std::string("ok");
}

Result<std::string> AuditServer::Impl::HandleLoadDump(
    const Message& request) {
  // Dump loads mutate replicated state; only the primary takes them.
  if (is_replica.load()) return RejectNotPrimary();
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  int64_t now_micros = 0;
  if (fields.size() != 3 || !ParseInt64(fields[2], &now_micros)) {
    return Status::InvalidArgument(
        "load request wants fields: db-or-log|dump-text|now_micros");
  }
  std::unique_lock<std::shared_mutex> lock(state_mutex);
  AUDITDB_RETURN_IF_ERROR(
      LoadDump(fields[0], fields[1], Timestamp(now_micros)));
  // A dump load mutates state the WAL does not cover, so it must be
  // made durable by a snapshot right away or a crash silently undoes
  // it. The load already applied in memory; surface a checkpoint
  // failure instead of acking durability we don't have.
  if (options.durable_store != nullptr) {
    Status persisted = options.durable_store->Checkpoint(*db, *log);
    if (!persisted.ok()) {
      return Status::Internal(
          "dump loaded in memory but checkpointing it failed: " +
          persisted.message());
    }
  }
  // Every dump load opens a new replication generation: connected
  // followers get the delta (stamped with this load's timestamp so
  // restored rows agree byte-for-byte); a follower that missed it can
  // no longer catch up from the query stream alone and re-handshakes
  // into a bootstrap.
  uint64_t gen = load_generation.fetch_add(1) + 1;
  PersistReplGeneration(gen);
  if (hub.follower_count() > 0) {
    Message event{MessageType::kReplicateEvent,
                  EncodeReplicateLoad(fields[0], fields[1], gen, now_micros),
                  WireVersion::kV2};
    QueueShip(0, EncodeFrame(event));
  }
  return std::string("ok");
}

Result<std::string> AuditServer::Impl::HandleReplicate(
    const Message& request, uint64_t conn_id) {
  // No chaining: a replica redirects would-be followers upstream.
  if (is_replica.load()) return RejectNotPrimary();
  AUDITDB_ASSIGN_OR_RETURN(auto handshake,
                           DecodeReplicateHandshake(request.payload));
  // The backlog is built under the writer lock so it composes exactly
  // with the live Ship stream: everything committed before this point
  // is in the backlog, everything after arrives as a shipped frame.
  std::unique_lock<std::shared_mutex> lock(state_mutex);
  const int64_t size = static_cast<int64_t>(log->size());
  const uint64_t gen = load_generation.load();
  std::vector<std::string> backlog_frames;
  int64_t acked_from = handshake.applied_log_id;
  if (!handshake.have_state) {
    // Empty replica: bootstrap with a full checkpoint manifest. It is
    // registered as acked-through-0 — quorum cannot count it until it
    // durably applies and acks for itself.
    std::ostringstream db_out;
    std::ostringstream log_out;
    AUDITDB_RETURN_IF_ERROR(io::WriteDatabaseDump(*db, db_out));
    AUDITDB_RETURN_IF_ERROR(io::WriteQueryLogDump(*log, log_out));
    Message event{MessageType::kReplicateEvent,
                  EncodeReplicateCheckpoint(
                      db_out.str(), log_out.str(), gen,
                      options.bootstrap_stamp_micros),
                  WireVersion::kV2};
    backlog_frames.push_back(EncodeFrame(event));
    acked_from = 0;
  } else if (handshake.load_generation != gen ||
             handshake.applied_log_id > size) {
    // A non-empty follower whose history diverged — it missed a
    // LoadDump generation, or applied past this primary's log (an old
    // primary rejoining after failover). Incremental catch-up would
    // skip state and a bootstrap would double-apply onto what it has;
    // the operator restarts it with a fresh data dir.
    return Status::InvalidArgument(
        "replica state diverged: generation " +
        std::to_string(handshake.load_generation) + " vs " +
        std::to_string(gen) + ", applied " +
        std::to_string(handshake.applied_log_id) + " vs log size " +
        std::to_string(size) + "; wipe the replica's data dir");
  } else {
    for (int64_t id = handshake.applied_log_id + 1; id <= size; ++id) {
      backlog_frames.push_back(
          QueryShipFrame(log->Entry(static_cast<size_t>(id - 1))));
    }
  }
  hub.RegisterFollower(conn_id, acked_from, std::move(backlog_frames));
  // Kick the loop so it starts flushing the parked backlog.
  {
    std::lock_guard<std::mutex> push_lock(push_mutex);
    push_ready.push_back(conn_id);
  }
  Wake();
  return EncodeFields({advertise, std::to_string(size), std::to_string(gen)});
}

Result<std::string> AuditServer::Impl::HandlePromote(const Message& request) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(request.payload));
  if (fields.size() == 1 && fields[0] == "primary") {
    // Idempotent by design: a supervisor that lost the response can
    // retry, and promoting a primary is a no-op.
    std::unique_ptr<ReplicaSession> stopped;
    {
      std::lock_guard<std::mutex> repl_lock(repl_mutex);
      stopped = std::move(replica);
    }
    // Join the session thread with no lock held: its apply callbacks
    // take the writer side of state_mutex, so stopping it under any
    // server lock could deadlock against an in-flight apply.
    if (stopped != nullptr) stopped->Stop();
    is_replica.store(false);
    return std::string("primary");
  }
  if (fields.size() == 2 && fields[0] == "follow") {
    AUDITDB_RETURN_IF_ERROR(ParseHostPort(fields[1]).status());
    std::lock_guard<std::mutex> repl_lock(repl_mutex);
    if (!is_replica.load() || replica == nullptr) {
      return Status::InvalidArgument(
          "cannot demote a primary to a replica in place; restart it "
          "with --replicate-from");
    }
    replica->Repoint(fields[1]);
    return "following " + fields[1];
  }
  return Status::InvalidArgument(
      "promote request wants fields: primary | follow|host:port");
}

AuditServer::AuditServer(service::AuditService* service, Database* db,
                         Backlog* backlog, QueryLog* log,
                         AuditServerOptions options)
    : host_(options.host) {
  impl_ = std::make_unique<Impl>(service, db, backlog, log,
                                 std::move(options), &metrics_);
}

AuditServer::~AuditServer() { Shutdown(); }

bool AuditServer::running() const { return impl_->running.load(); }

bool AuditServer::is_replica() const { return impl_->is_replica.load(); }

std::string AuditServer::replication_upstream() const {
  std::lock_guard<std::mutex> lock(impl_->repl_mutex);
  return impl_->replica != nullptr ? impl_->replica->upstream()
                                   : std::string();
}

size_t AuditServer::follower_count() const {
  return impl_->hub.follower_count();
}

int64_t AuditServer::applied_log_id() const {
  return impl_->AppliedLogId();
}

std::string AuditServer::MetricsJson() const {
  return impl_->CombinedMetricsJson();
}

Status AuditServer::Start() {
  if (started_) {
    return Status::AlreadyExists("server already started");
  }
  started_ = true;
  Impl& impl = *impl_;
  impl.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                         SOCK_CLOEXEC,
                            0);
  if (impl.listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl.options.port);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host: " + host_);
  }
  if (::bind(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal("bind " + host_ + ":" +
                            std::to_string(impl.options.port) + ": " +
                            strerror(errno));
  }
  if (::listen(impl.listen_fd, impl.options.listen_backlog) != 0) {
    return Status::Internal(std::string("listen: ") + strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Status::Internal(std::string("getsockname: ") +
                            strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  impl.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl.epoll_fd < 0 || impl.wake_fd < 0) {
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event listen_event{};
  listen_event.data.fd = impl.listen_fd;
  listen_event.events = EPOLLIN;
  epoll_event wake_event{};
  wake_event.data.fd = impl.wake_fd;
  wake_event.events = EPOLLIN;
  if (::epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, impl.listen_fd,
                  &listen_event) != 0 ||
      ::epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, impl.wake_fd,
                  &wake_event) != 0) {
    return Status::Internal(std::string("epoll_ctl: ") + strerror(errno));
  }
  impl.advertise = impl.options.advertise_address.empty()
                       ? host_ + ":" + std::to_string(port_)
                       : impl.options.advertise_address;
  impl.stop_requested.store(false);
  impl.draining = false;
  impl.running.store(true);
  loop_ = std::thread(&AuditServer::LoopThread, this);
  // The streaming session starts after the loop so a replica already
  // answers reads (and NOT_PRIMARY redirects) while it catches up.
  if (!impl.options.replicate_from.empty()) impl.StartReplica();
  return Status::Ok();
}

void AuditServer::LoopThread() {
  Impl& impl = *impl_;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    int n = ::epoll_wait(impl.epoll_fd, events, kMaxEvents,
                         /*timeout_ms=*/50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == impl.wake_fd) {
        impl.DrainWake();
        continue;
      }
      if (fd == impl.listen_fd) {
        if (!impl.draining) impl.AcceptAll();
        continue;
      }
      if (ev & (EPOLLERR | EPOLLHUP)) {
        impl.CloseConn(fd);
        continue;
      }
      if (ev & EPOLLIN) {
        if (!impl.ReadConn(fd)) continue;
      }
      if (ev & EPOLLOUT) {
        auto it = impl.conns.find(fd);
        if (it != impl.conns.end()) impl.FlushConn(it->second.get());
      }
    }
    impl.DeliverCompletions();
    impl.DeliverPushes();
    impl.PumpStalled();
    impl.SweepTimeouts();
    if (impl.stop_requested.load() && !impl.draining) impl.BeginDrain();
    if (impl.draining && impl.DrainComplete()) break;
  }
  impl.CloseAll();
  impl.running.store(false);
}

void AuditServer::Shutdown() {
  // Stop the replica stream first so no apply races the drain; the
  // session is joined with no server lock held.
  std::unique_ptr<ReplicaSession> session;
  {
    std::lock_guard<std::mutex> lock(impl_->repl_mutex);
    session = std::move(impl_->replica);
  }
  if (session != nullptr) session->Stop();
  if (loop_.joinable()) {
    impl_->stop_requested.store(true);
    impl_->Wake();
    loop_.join();
  }
  impl_->handlers->Shutdown();
}

}  // namespace net
}  // namespace auditdb
