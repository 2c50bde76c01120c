#ifndef AUDITDB_NET_REPLICATION_H_
#define AUDITDB_NET_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/backoff.h"
#include "src/net/subscription.h"
#include "src/net/wire.h"
#include "src/querylog/query_log.h"

namespace auditdb {
namespace net {

/// Primary/replica replication over the framed wire protocol
/// (docs/replication.md). A follower opens a REPLICATE stream on its
/// primary; the primary ships every committed write as a
/// server-initiated REPLICATE_EVENT frame — the raw CRC32C-framed WAL
/// record for ExecuteQuery, a checkpoint manifest (full db + log dumps)
/// for bootstrap, and dump deltas for LoadDump — and the follower
/// applies them through the same path recovery uses, acking each
/// applied record after an fsync. Audit verdicts are deterministic over
/// (query log, database state), so a follower that applied the same
/// prefix answers reads byte-identically to the primary.

/// How many follower acks an ExecuteQuery waits for before responding:
///   kNone    local durability only (followers catch up asynchronously)
///   kQuorum  a majority of the cluster holds the write (primary plus
///            floor((followers+1)/2) followers) — promotion of the
///            most-caught-up follower then never loses an acked write
///   kAll     every registered follower holds the write
enum class ReplAckPolicy { kNone, kQuorum, kAll };

Result<ReplAckPolicy> ParseReplAckPolicy(const std::string& text);
const char* ReplAckPolicyName(ReplAckPolicy policy);

/// Parses "host:port" (the --replicate-from / multi-endpoint form).
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& address);

/// One decoded REPLICATE_EVENT frame body.
struct ReplicateEvent {
  enum class Kind { kWal, kCheckpoint, kLoad };
  Kind kind = Kind::kWal;
  /// kWal: the raw framed WAL record (CRC-validated again on arrival).
  std::string wal_record;
  /// kCheckpoint: full bootstrap state.
  std::string db_dump;
  std::string log_dump;
  /// kLoad: one LoadDump delta ("db" or "log" + the dump text).
  std::string load_kind;
  std::string load_dump;
  /// The primary's LoadDump generation after this event; a follower
  /// whose generation diverges cannot catch up incrementally.
  uint64_t load_generation = 0;
  /// Row timestamp for kCheckpoint/kLoad database dumps: the dump format
  /// does not carry per-row insert times, so the primary ships the stamp
  /// it used and the replica restores with the same one — otherwise
  /// DATA-INTERVAL audits would diverge across the cluster.
  int64_t stamp_micros = 0;
};

std::string EncodeReplicateWal(const std::string& framed_record);
std::string EncodeReplicateCheckpoint(const std::string& db_dump,
                                      const std::string& log_dump,
                                      uint64_t load_generation,
                                      int64_t stamp_micros);
std::string EncodeReplicateLoad(const std::string& load_kind,
                                const std::string& load_dump,
                                uint64_t load_generation,
                                int64_t stamp_micros);
Result<ReplicateEvent> DecodeReplicateEvent(const std::string& payload);

/// The REPLICATE handshake payload (`applied|have_state|generation`).
struct ReplicateHandshake {
  int64_t applied_log_id = 0;
  bool have_state = false;
  uint64_t load_generation = 0;
};
std::string EncodeReplicateHandshake(const ReplicateHandshake& handshake);
Result<ReplicateHandshake> DecodeReplicateHandshake(
    const std::string& payload);

/// What a follower does with one shipped query record, given the id it
/// has applied through. Duplicates (catch-up overlap after a re-sync)
/// are skipped; a skipped-ahead id means records were lost on the
/// stream and the follower must re-sync from its current position —
/// never silently apply past a gap.
enum class ShipDecision { kApply, kDuplicate, kResync };
ShipDecision DecideShippedQuery(int64_t applied_log_id, int64_t record_id);

/// Primary-side follower table + per-follower bounded frame queues.
/// Mirrors SubscriptionRegistry's contract with the event loop:
/// handlers Ship() committed writes under the server's writer lock, the
/// epoll loop drains encoded frames per connection, and the returned
/// PublishOutcome tells the loop which connections to flush or evict.
/// Thread-safe; one mutex guards the table (operations are short).
class ReplicationHub {
 public:
  explicit ReplicationHub(size_t max_buffered_records = 4096);

  /// Registers a follower connection at `acked_log_id` with its
  /// catch-up backlog already framed (called under the writer lock so
  /// backlog order and subsequent Ship order agree). Re-registering a
  /// conn id replaces its previous state.
  void RegisterFollower(uint64_t conn_id, int64_t acked_log_id,
                        std::vector<std::string> backlog_frames);

  /// Drops a closing follower and wakes any ack waiters (the quorum is
  /// recomputed over the survivors).
  void DropConnection(uint64_t conn_id);

  bool IsFollower(uint64_t conn_id) const;

  /// Queues one encoded frame for every follower; `log_id` is the log
  /// position the frame commits (0 for events that do not advance it).
  /// A follower whose queue overflows max_buffered_records is dropped
  /// from the table and flagged for eviction — divergence stays bounded
  /// and the follower re-syncs on reconnect.
  PublishOutcome Ship(int64_t log_id, const std::string& frame);

  /// A follower acked applying (and fsyncing) through `log_id`.
  void Ack(uint64_t conn_id, int64_t log_id);

  /// Blocks until the ack policy is satisfied for `log_id` (quorum is
  /// floor((followers+1)/2) follower acks, recomputed as followers come
  /// and go). DeadlineExceeded after `timeout`: the write is committed
  /// locally but under-replicated.
  Status WaitForAcks(int64_t log_id, ReplAckPolicy policy,
                     std::chrono::milliseconds timeout);

  /// Encodes parked frames for conn_id into *out until nothing is
  /// parked or at least max_bytes were appended; returns frames taken.
  size_t DrainFrames(uint64_t conn_id, size_t max_bytes, std::string* out);

  bool HasPending(uint64_t conn_id) const;
  /// Parked frames across all followers; part of the graceful-drain
  /// gate.
  size_t TotalPending() const;

  /// Lock-free follower count (ExecuteQuery skips the ship path when
  /// nobody follows).
  size_t follower_count() const {
    return followers_active_.load(std::memory_order_relaxed);
  }

  int64_t last_shipped() const {
    return last_shipped_.load(std::memory_order_relaxed);
  }

  /// The replication section's "hub" (keys: docs/wire_protocol.md).
  std::string MetricsJson() const;

 private:
  struct Follower {
    int64_t acked = 0;
    std::deque<std::string> queue;  // encoded frames, oldest first
    size_t queued_bytes = 0;
    int64_t last_ack_latency_ms = -1;  // -1 until the first timed ack
  };

  size_t max_buffered_records_;
  mutable std::mutex mutex_;
  std::condition_variable ack_cv_;
  std::map<uint64_t, Follower> followers_;
  /// Ship times of records awaiting acks, for follower latency metrics;
  /// trimmed below the slowest follower's ack.
  std::map<int64_t, std::chrono::steady_clock::time_point> ship_times_;
  std::atomic<size_t> followers_active_{0};
  std::atomic<int64_t> last_shipped_{0};

  service::Counter records_shipped_;
  service::Counter bytes_shipped_;
  service::Counter acks_received_;
  service::Counter ack_wait_timeouts_;
  service::Counter followers_evicted_;
};

/// The callbacks a replica server hands its session; each applies one
/// replicated mutation under the server's writer lock through the same
/// code path recovery uses (durable append → in-memory append →
/// observe/push fan-out).
struct ReplicaApplier {
  /// Applies one shipped query record; must make it durable (fsync)
  /// before returning OK — the session acks on OK.
  std::function<Status(const LoggedQuery& entry)> apply_query;
  /// Applies one LoadDump delta ("db" or "log"), stamping restored rows
  /// `stamp_micros` (the primary's stamp, for byte-identical audits).
  std::function<Status(const std::string& kind, const std::string& dump,
                       uint64_t load_generation, int64_t stamp_micros)>
      apply_load;
  /// Installs a full bootstrap checkpoint; only legal on an empty
  /// replica (a diverged non-empty replica needs a fresh data dir).
  std::function<Status(const std::string& db_dump,
                       const std::string& log_dump,
                       uint64_t load_generation, int64_t stamp_micros)>
      apply_bootstrap;
  /// The log id applied through (the in-memory log size).
  std::function<int64_t()> applied_log_id;
  /// Whether the replica holds any state (tables or log entries); an
  /// empty replica asks for a bootstrap checkpoint.
  std::function<bool()> have_state;
  std::function<uint64_t()> load_generation;
};

struct ReplicaSessionOptions {
  std::chrono::milliseconds connect_timeout{2000};
  /// Reconnect/re-sync pacing; one RetryBudget-style jittered
  /// exponential backoff, reset after every successful handshake.
  BackoffOptions backoff{std::chrono::milliseconds(50),
                         std::chrono::milliseconds(2000)};
  /// Frame cap for the inbound stream. Bootstrap checkpoints carry full
  /// dumps, so this is far above the request-path default.
  size_t max_frame_bytes = 256u << 20;
};

/// Follower-side replication client: one background thread owning one
/// blocking connection to the primary. Connects, handshakes with its
/// applied position, applies the event stream through the
/// ReplicaApplier, acks after each durable apply, and reconnects with
/// backoff on any failure. A record id gap, CRC failure, or protocol
/// violation triggers a re-sync: drop the connection and re-handshake
/// from the applied position (the primary replays the missing suffix).
/// A NOT_PRIMARY rejection repoints the session at the address it
/// carries, so a repointed cluster heals itself after failover.
class ReplicaSession {
 public:
  ReplicaSession(std::string upstream, ReplicaApplier applier,
                 ReplicaSessionOptions options = ReplicaSessionOptions{});
  ~ReplicaSession();

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  void Start();
  /// Stops and joins the session thread. Safe to call twice. Must not
  /// be invoked while holding any lock the applier callbacks take.
  void Stop();

  /// Retargets the stream (PROMOTE `follow|addr`); takes effect on the
  /// next loop iteration by dropping the current connection.
  void Repoint(const std::string& upstream);

  std::string upstream() const;
  bool connected() const { return connected_.load(); }
  uint64_t resyncs() const { return resyncs_.value(); }
  uint64_t reconnects() const { return reconnects_.value(); }

  /// The replication section's "session" (keys: docs/wire_protocol.md).
  std::string MetricsJson() const;

 private:
  void Run();
  /// Applies one decoded event. Sets *resync when the stream cannot be
  /// trusted past this point (gap, corrupt record, apply failure).
  void ApplyEvent(const ReplicateEvent& event, int fd, bool* resync);
  bool SendAck(int fd, int64_t applied);
  /// Sleeps the next reconnect backoff in stop-aware slices; returns
  /// false when stopping.
  bool SleepReconnectBackoff(RetryBudget* budget);

  ReplicaApplier applier_;
  ReplicaSessionOptions options_;

  mutable std::mutex mutex_;  // guards upstream_ / repoint_
  std::string upstream_;
  bool repoint_pending_ = false;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> connected_{false};

  service::Counter reconnects_;
  service::Counter resyncs_;
  service::Counter records_applied_;
  service::Counter bytes_received_;
  service::Counter apply_errors_;
};

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_NET_REPLICATION_H_
