#ifndef AUDITDB_NET_SUBSCRIPTION_H_
#define AUDITDB_NET_SUBSCRIPTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/wire.h"
#include "src/service/metrics.h"

namespace auditdb {
namespace net {

/// Server-push verdict subscriptions (protocol v2, docs/wire_protocol.md).
///
/// A subscription binds one connection to one standing audit expression
/// registered with the server's OnlineAuditor. Every observed query that
/// changes the expression's suspicion state generates a PushEvent; events
/// park in a bounded per-subscription queue until the connection's socket
/// can take them, and the queue's overflow behaviour is the backpressure
/// policy: drop the oldest events (summarized to the client as a GAP
/// frame so losses are never silent) or evict the slow consumer.

/// What the server does when a subscriber's push queue overflows.
enum class SlowSubscriberPolicy {
  /// Drop the oldest queued events and deliver a GAP frame covering the
  /// dropped sequence range before the surviving events.
  kDropOldest,
  /// Disconnect the subscriber (the PR 2 slow-client treatment); a
  /// consumer that cannot keep up loses the connection, not data
  /// integrity.
  kEvict,
};

const char* SlowSubscriberPolicyName(SlowSubscriberPolicy policy);
/// Parses "drop" / "evict" (the --slow-subscriber-policy flag values).
Result<SlowSubscriberPolicy> ParseSlowSubscriberPolicy(
    const std::string& name);

enum class PushKind {
  /// The expression's screening rank changed without firing.
  kProgress,
  /// The expression fired on this query; `verdict` carries the full
  /// canonical audit report (byte-identical to a poll of the same
  /// expression over the same log range).
  kAlert,
  /// `dropped` events starting at sequence `seq` were shed under
  /// kDropOldest; the subscriber saw every sequence number either as an
  /// event or inside a gap.
  kGap,
};

const char* PushKindName(PushKind kind);
Result<PushKind> ParsePushKind(const std::string& name);

/// One server-initiated PUSH frame body (MessageType::kPushEvent).
struct PushEvent {
  int64_t subscription_id = 0;
  /// Per-subscription sequence number, 1-based, assigned at generation
  /// time (before any queueing), so the client can detect loss. For
  /// kGap this is the first dropped sequence number.
  uint64_t seq = 0;
  PushKind kind = PushKind::kProgress;
  /// Log id of the query that triggered the event (0 for kGap).
  int64_t log_id = 0;
  /// The server-side standing-expression id the subscription names.
  int expression_id = 0;
  double rank = 0.0;
  bool fired = false;
  /// kGap only: number of consecutive dropped events starting at seq.
  uint64_t dropped = 0;
  /// kAlert only: AuditReport::CanonicalString() of the fired audit.
  std::string verdict;
};

/// The wire form of a suspicion rank ("%.6f"), shared by PUSH frames
/// and the SUBSCRIBE reply.
std::string FormatRank(double rank);

std::string EncodePushPayload(const PushEvent& event);
Result<PushEvent> DecodePushPayload(const std::string& payload);

struct SubscriptionLimits {
  /// Server-wide cap on concurrently active subscriptions.
  size_t max_subscriptions = 1024;
  /// Bounded per-subscription outbound queue depth.
  size_t push_queue_depth = 64;
  SlowSubscriberPolicy slow_subscriber_policy =
      SlowSubscriberPolicy::kDropOldest;
};

/// What one Publish call asks the event loop to do. Conn ids may repeat
/// across calls; both lists are idempotent to act on.
struct PublishOutcome {
  /// Connections that now have parked events to flush.
  std::vector<uint64_t> ready_conns;
  /// Connections flagged for eviction under kEvict.
  std::vector<uint64_t> evict_conns;
};

/// Thread-safe subscription table + per-subscription bounded push
/// queues. Handlers publish from worker threads; the epoll loop drains
/// encoded frames; either side may add or remove subscriptions. All
/// state is guarded by one mutex — operations are short and the table
/// is small, so contention is not a concern at auditd's scale.
class SubscriptionRegistry {
 public:
  explicit SubscriptionRegistry(SubscriptionLimits limits = {});

  /// Registers conn_id for events on expression_id; returns the new
  /// subscription id. ResourceExhausted at max_subscriptions.
  Result<int64_t> Subscribe(uint64_t conn_id, int expression_id);

  /// Removes one subscription (must be owned by conn_id; NotFound
  /// otherwise). Returns the expression id it named so the caller can
  /// release the standing expression.
  Result<int> Unsubscribe(uint64_t conn_id, int64_t subscription_id);

  /// Drops every subscription of a closing connection, discarding its
  /// parked events. Returns the expression id of each dropped
  /// subscription (with multiplicity) for standing-expression release.
  std::vector<int> DropConnection(uint64_t conn_id);

  /// Fans one observation out to every subscription on expression_id:
  /// assigns sequence numbers, queues events, and applies the overflow
  /// policy. `verdict` is only attached to kAlert events.
  PublishOutcome Publish(int expression_id, PushKind kind, int64_t log_id,
                         double rank, bool fired, const std::string& verdict);

  /// Encodes parked frames for conn_id (any pending GAP summary first,
  /// then queued events in sequence order) into *out until the conn has
  /// nothing parked or at least max_bytes were appended. Returns the
  /// number of frames appended.
  size_t DrainFrames(uint64_t conn_id, size_t max_bytes, std::string* out);

  bool HasSubscriptions(uint64_t conn_id) const;
  bool HasPending(uint64_t conn_id) const;
  /// Parked events + pending gap summaries across all connections; the
  /// graceful-drain gate.
  size_t TotalPending() const;

  /// Active subscription count; lock-free so ExecuteQuery can skip the
  /// whole observe pipeline when nobody is listening.
  size_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

  const SubscriptionLimits& limits() const { return limits_; }

  /// The Metrics reply's "push" section (keys: docs/wire_protocol.md).
  std::string MetricsJson() const;

 private:
  struct Subscription {
    int64_t id = 0;
    uint64_t conn_id = 0;
    int expression_id = 0;
    uint64_t next_seq = 1;
    /// Parked events, oldest first, size-bounded by push_queue_depth.
    std::deque<PushEvent> queue;
    /// Coalesced leading gap: events [gap_first, gap_first+gap_count)
    /// were dropped and not yet reported. Always older than everything
    /// in `queue` (drops take the queue front).
    uint64_t gap_first = 0;
    uint64_t gap_count = 0;
  };

  size_t PendingLocked(const Subscription& sub) const {
    return sub.queue.size() + (sub.gap_count > 0 ? 1 : 0);
  }

  SubscriptionLimits limits_;
  mutable std::mutex mutex_;
  std::map<int64_t, Subscription> subs_;
  std::map<uint64_t, std::set<int64_t>> by_conn_;
  /// Subscriptions indexed by expression for Publish fan-out.
  std::map<int, std::set<int64_t>> by_expr_;
  /// Connections already flagged for eviction (so the evicted counter
  /// bumps once per connection, not once per overflow).
  std::set<uint64_t> evict_flagged_;
  int64_t next_sub_id_ = 1;
  std::atomic<size_t> active_{0};

  service::Counter pushes_sent_;
  service::Counter pushes_dropped_;
  service::Counter gap_frames_sent_;
  service::Counter evicted_;
  service::Gauge queue_depth_;
};

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_NET_SUBSCRIPTION_H_
