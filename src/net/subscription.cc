#include "src/net/subscription.h"

#include <algorithm>
#include <cstdio>

#include "src/common/string_util.h"

namespace auditdb {
namespace net {

std::string FormatRank(double rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", rank);
  return buf;
}

const char* SlowSubscriberPolicyName(SlowSubscriberPolicy policy) {
  switch (policy) {
    case SlowSubscriberPolicy::kDropOldest:
      return "drop";
    case SlowSubscriberPolicy::kEvict:
      return "evict";
  }
  return "unknown";
}

Result<SlowSubscriberPolicy> ParseSlowSubscriberPolicy(
    const std::string& name) {
  if (name == "drop") return SlowSubscriberPolicy::kDropOldest;
  if (name == "evict") return SlowSubscriberPolicy::kEvict;
  return Status::InvalidArgument("unknown slow-subscriber policy '" + name +
                                 "' (want drop or evict)");
}

const char* PushKindName(PushKind kind) {
  switch (kind) {
    case PushKind::kProgress:
      return "progress";
    case PushKind::kAlert:
      return "alert";
    case PushKind::kGap:
      return "gap";
  }
  return "unknown";
}

Result<PushKind> ParsePushKind(const std::string& name) {
  if (name == "progress") return PushKind::kProgress;
  if (name == "alert") return PushKind::kAlert;
  if (name == "gap") return PushKind::kGap;
  return Status::ParseError("unknown push kind '" + name + "'");
}

std::string EncodePushPayload(const PushEvent& event) {
  return EncodeFields({std::to_string(event.subscription_id),
                       std::to_string(event.seq), PushKindName(event.kind),
                       std::to_string(event.log_id),
                       std::to_string(event.expression_id),
                       FormatRank(event.rank), event.fired ? "1" : "0",
                       std::to_string(event.dropped), event.verdict});
}

Result<PushEvent> DecodePushPayload(const std::string& payload) {
  auto fields = DecodeFields(payload);
  if (!fields.ok()) return fields.status();
  if (fields->size() != 9) {
    return Status::ParseError("push payload wants 9 fields, got " +
                              std::to_string(fields->size()));
  }
  PushEvent event;
  int64_t expr_id = 0;
  if (!ParseInt64((*fields)[0], &event.subscription_id) ||
      !ParseUint64((*fields)[1], &event.seq) ||
      !ParseInt64((*fields)[3], &event.log_id) ||
      !ParseInt64((*fields)[4], &expr_id) ||
      !ParseUint64((*fields)[7], &event.dropped)) {
    return Status::ParseError("malformed numeric field in push payload");
  }
  event.expression_id = static_cast<int>(expr_id);
  auto kind = ParsePushKind((*fields)[2]);
  if (!kind.ok()) return kind.status();
  event.kind = *kind;
  if (!ParseDouble((*fields)[5], &event.rank)) {
    return Status::ParseError("malformed rank in push payload");
  }
  const std::string& fired = (*fields)[6];
  if (fired != "0" && fired != "1") {
    return Status::ParseError("malformed fired flag in push payload");
  }
  event.fired = fired == "1";
  event.verdict = std::move((*fields)[8]);
  return event;
}

SubscriptionRegistry::SubscriptionRegistry(SubscriptionLimits limits)
    : limits_(limits) {
  if (limits_.push_queue_depth == 0) limits_.push_queue_depth = 1;
}

Result<int64_t> SubscriptionRegistry::Subscribe(uint64_t conn_id,
                                                int expression_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (subs_.size() >= limits_.max_subscriptions) {
    return Status::ResourceExhausted(
        "subscription limit reached (" +
        std::to_string(limits_.max_subscriptions) + ")");
  }
  int64_t id = next_sub_id_++;
  Subscription sub;
  sub.id = id;
  sub.conn_id = conn_id;
  sub.expression_id = expression_id;
  subs_.emplace(id, std::move(sub));
  by_conn_[conn_id].insert(id);
  by_expr_[expression_id].insert(id);
  active_.store(subs_.size(), std::memory_order_relaxed);
  return id;
}

Result<int> SubscriptionRegistry::Unsubscribe(uint64_t conn_id,
                                              int64_t subscription_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = subs_.find(subscription_id);
  if (it == subs_.end() || it->second.conn_id != conn_id) {
    return Status::NotFound("no subscription " +
                            std::to_string(subscription_id) +
                            " on this connection");
  }
  int expression_id = it->second.expression_id;
  by_conn_[conn_id].erase(subscription_id);
  if (by_conn_[conn_id].empty()) by_conn_.erase(conn_id);
  by_expr_[expression_id].erase(subscription_id);
  if (by_expr_[expression_id].empty()) by_expr_.erase(expression_id);
  subs_.erase(it);
  active_.store(subs_.size(), std::memory_order_relaxed);
  return expression_id;
}

std::vector<int> SubscriptionRegistry::DropConnection(uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> released;
  auto it = by_conn_.find(conn_id);
  if (it == by_conn_.end()) {
    evict_flagged_.erase(conn_id);
    return released;
  }
  for (int64_t sub_id : it->second) {
    auto sub_it = subs_.find(sub_id);
    if (sub_it == subs_.end()) continue;
    int expression_id = sub_it->second.expression_id;
    released.push_back(expression_id);
    by_expr_[expression_id].erase(sub_id);
    if (by_expr_[expression_id].empty()) by_expr_.erase(expression_id);
    subs_.erase(sub_it);
  }
  by_conn_.erase(it);
  evict_flagged_.erase(conn_id);
  active_.store(subs_.size(), std::memory_order_relaxed);
  return released;
}

PublishOutcome SubscriptionRegistry::Publish(int expression_id, PushKind kind,
                                             int64_t log_id, double rank,
                                             bool fired,
                                             const std::string& verdict) {
  PublishOutcome outcome;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_expr_.find(expression_id);
  if (it == by_expr_.end()) return outcome;
  std::set<uint64_t> ready, evict;
  for (int64_t sub_id : it->second) {
    auto sub_it = subs_.find(sub_id);
    if (sub_it == subs_.end()) continue;
    Subscription& sub = sub_it->second;
    if (evict_flagged_.count(sub.conn_id)) continue;  // frozen, going away
    PushEvent event;
    event.subscription_id = sub.id;
    event.seq = sub.next_seq++;
    event.kind = kind;
    event.log_id = log_id;
    event.expression_id = expression_id;
    event.rank = rank;
    event.fired = fired;
    if (kind == PushKind::kAlert) event.verdict = verdict;
    if (sub.queue.size() >= limits_.push_queue_depth) {
      if (limits_.slow_subscriber_policy == SlowSubscriberPolicy::kEvict) {
        // Do not queue past the bound; the connection is on its way out.
        --sub.next_seq;
        evict_flagged_.insert(sub.conn_id);
        evicted_.Increment();
        evict.insert(sub.conn_id);
        continue;
      }
      // kDropOldest: shed the queue front (the oldest surviving
      // sequence numbers) into the coalesced gap.
      const PushEvent& oldest = sub.queue.front();
      if (sub.gap_count == 0) sub.gap_first = oldest.seq;
      // Drops are contiguous from gap_first: everything between it and
      // the queue front was already dropped or delivered before the gap
      // opened.
      sub.gap_count = oldest.seq - sub.gap_first + 1;
      sub.queue.pop_front();
      pushes_dropped_.Increment();
    }
    sub.queue.push_back(std::move(event));
    queue_depth_.Set(static_cast<int64_t>(sub.queue.size()));
    ready.insert(sub.conn_id);
  }
  outcome.ready_conns.assign(ready.begin(), ready.end());
  outcome.evict_conns.assign(evict.begin(), evict.end());
  return outcome;
}

size_t SubscriptionRegistry::DrainFrames(uint64_t conn_id, size_t max_bytes,
                                         std::string* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_conn_.find(conn_id);
  if (it == by_conn_.end()) return 0;
  size_t start = out->size();
  size_t frames = 0;
  for (int64_t sub_id : it->second) {
    auto sub_it = subs_.find(sub_id);
    if (sub_it == subs_.end()) continue;
    Subscription& sub = sub_it->second;
    if (sub.gap_count > 0) {
      if (out->size() - start >= max_bytes) return frames;
      PushEvent gap;
      gap.subscription_id = sub.id;
      gap.seq = sub.gap_first;
      gap.kind = PushKind::kGap;
      gap.expression_id = sub.expression_id;
      gap.dropped = sub.gap_count;
      out->append(EncodeFrame(Message{MessageType::kPushEvent,
                                      EncodePushPayload(gap),
                                      WireVersion::kV2}));
      sub.gap_first = 0;
      sub.gap_count = 0;
      gap_frames_sent_.Increment();
      ++frames;
    }
    while (!sub.queue.empty()) {
      if (out->size() - start >= max_bytes) return frames;
      out->append(EncodeFrame(Message{MessageType::kPushEvent,
                                      EncodePushPayload(sub.queue.front()),
                                      WireVersion::kV2}));
      sub.queue.pop_front();
      pushes_sent_.Increment();
      ++frames;
    }
  }
  return frames;
}

bool SubscriptionRegistry::HasSubscriptions(uint64_t conn_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_conn_.count(conn_id) > 0;
}

bool SubscriptionRegistry::HasPending(uint64_t conn_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_conn_.find(conn_id);
  if (it == by_conn_.end()) return false;
  for (int64_t sub_id : it->second) {
    auto sub_it = subs_.find(sub_id);
    if (sub_it != subs_.end() && PendingLocked(sub_it->second) > 0) {
      return true;
    }
  }
  return false;
}

size_t SubscriptionRegistry::TotalPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& [id, sub] : subs_) total += PendingLocked(sub);
  return total;
}

std::string SubscriptionRegistry::MetricsJson() const {
  return service::JsonObject()
      .Add("subscriptions_active", active())
      .Add("pushes_sent", pushes_sent_.value())
      .Add("pushes_dropped", pushes_dropped_.value())
      .Add("gap_frames_sent", gap_frames_sent_.value())
      .Add("slow_subscribers_evicted", evicted_.value())
      .Add("queue_depth_peak", queue_depth_.max())
      .Add("pending_events", TotalPending())
      .str();
}

}  // namespace net
}  // namespace auditdb
