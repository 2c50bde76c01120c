#include "src/net/replication.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <random>

#include "src/common/string_util.h"
#include "src/net/socket.h"
#include "src/querylog/wal.h"
#include "src/service/metrics.h"

namespace auditdb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Session poll granularity: bounds Stop() latency and repoint pickup.
constexpr int kSessionPollMillis = 50;
/// Reconnect backoff sleeps in stop-aware slices of this size.
constexpr int kBackoffSliceMillis = 20;
/// Cap on ship-time entries kept for ack-latency metrics.
constexpr size_t kMaxShipTimes = 1u << 16;

}  // namespace

Result<ReplAckPolicy> ParseReplAckPolicy(const std::string& text) {
  if (text == "none") return ReplAckPolicy::kNone;
  if (text == "quorum") return ReplAckPolicy::kQuorum;
  if (text == "all") return ReplAckPolicy::kAll;
  return Status::InvalidArgument(
      "replication ack policy must be none | quorum | all, got: " + text);
}

const char* ReplAckPolicyName(ReplAckPolicy policy) {
  switch (policy) {
    case ReplAckPolicy::kNone:
      return "none";
    case ReplAckPolicy::kQuorum:
      return "quorum";
    case ReplAckPolicy::kAll:
      return "all";
  }
  return "unknown";
}

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& address) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("address must be host:port, got: " +
                                   address);
  }
  uint64_t port = 0;
  if (!ParseUint64(std::string_view(address).substr(colon + 1), &port) ||
      port == 0 || port > 65535) {
    return Status::InvalidArgument("bad port in address: " + address);
  }
  return std::make_pair(address.substr(0, colon),
                        static_cast<uint16_t>(port));
}

std::string EncodeReplicateWal(const std::string& framed_record) {
  return EncodeFields({"wal", framed_record});
}

std::string EncodeReplicateCheckpoint(const std::string& db_dump,
                                      const std::string& log_dump,
                                      uint64_t load_generation,
                                      int64_t stamp_micros) {
  return EncodeFields({"ckpt", db_dump, log_dump,
                       std::to_string(load_generation),
                       std::to_string(stamp_micros)});
}

std::string EncodeReplicateLoad(const std::string& load_kind,
                                const std::string& load_dump,
                                uint64_t load_generation,
                                int64_t stamp_micros) {
  return EncodeFields({"load", load_kind, load_dump,
                       std::to_string(load_generation),
                       std::to_string(stamp_micros)});
}

Result<ReplicateEvent> DecodeReplicateEvent(const std::string& payload) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(payload));
  if (fields.empty()) {
    return Status::ParseError("empty replicate event");
  }
  ReplicateEvent event;
  if (fields[0] == "wal") {
    if (fields.size() != 2) {
      return Status::ParseError("wal replicate event needs 2 fields");
    }
    event.kind = ReplicateEvent::Kind::kWal;
    event.wal_record = std::move(fields[1]);
    return event;
  }
  if (fields[0] == "ckpt") {
    if (fields.size() != 5 ||
        !ParseUint64(fields[3], &event.load_generation) ||
        !ParseInt64(fields[4], &event.stamp_micros)) {
      return Status::ParseError("ckpt replicate event needs 5 fields");
    }
    event.kind = ReplicateEvent::Kind::kCheckpoint;
    event.db_dump = std::move(fields[1]);
    event.log_dump = std::move(fields[2]);
    return event;
  }
  if (fields[0] == "load") {
    if (fields.size() != 5 ||
        !ParseUint64(fields[3], &event.load_generation) ||
        !ParseInt64(fields[4], &event.stamp_micros)) {
      return Status::ParseError("load replicate event needs 5 fields");
    }
    if (fields[1] != "db" && fields[1] != "log") {
      return Status::ParseError("load replicate event kind must be db|log");
    }
    event.kind = ReplicateEvent::Kind::kLoad;
    event.load_kind = std::move(fields[1]);
    event.load_dump = std::move(fields[2]);
    return event;
  }
  return Status::ParseError("unknown replicate event kind: " + fields[0]);
}

std::string EncodeReplicateHandshake(const ReplicateHandshake& handshake) {
  return EncodeFields({std::to_string(handshake.applied_log_id),
                       handshake.have_state ? "1" : "0",
                       std::to_string(handshake.load_generation)});
}

Result<ReplicateHandshake> DecodeReplicateHandshake(
    const std::string& payload) {
  AUDITDB_ASSIGN_OR_RETURN(auto fields, DecodeFields(payload));
  if (fields.size() != 3) {
    return Status::ParseError("replicate handshake needs 3 fields, got " +
                              std::to_string(fields.size()));
  }
  ReplicateHandshake handshake;
  if (!ParseInt64(fields[0], &handshake.applied_log_id) ||
      handshake.applied_log_id < 0) {
    return Status::ParseError("bad applied log id: " + fields[0]);
  }
  if (fields[1] != "0" && fields[1] != "1") {
    return Status::ParseError("bad have_state flag: " + fields[1]);
  }
  handshake.have_state = fields[1] == "1";
  if (!ParseUint64(fields[2], &handshake.load_generation)) {
    return Status::ParseError("bad load generation: " + fields[2]);
  }
  return handshake;
}

ShipDecision DecideShippedQuery(int64_t applied_log_id, int64_t record_id) {
  if (record_id <= applied_log_id) return ShipDecision::kDuplicate;
  if (record_id == applied_log_id + 1) return ShipDecision::kApply;
  return ShipDecision::kResync;
}

// --- ReplicationHub ---

ReplicationHub::ReplicationHub(size_t max_buffered_records)
    : max_buffered_records_(std::max<size_t>(1, max_buffered_records)) {}

void ReplicationHub::RegisterFollower(
    uint64_t conn_id, int64_t acked_log_id,
    std::vector<std::string> backlog_frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  Follower& follower = followers_[conn_id];
  follower.acked = acked_log_id;
  follower.queue.clear();
  follower.queued_bytes = 0;
  for (auto& frame : backlog_frames) {
    follower.queued_bytes += frame.size();
    follower.queue.push_back(std::move(frame));
  }
  followers_active_.store(followers_.size(), std::memory_order_relaxed);
}

void ReplicationHub::DropConnection(uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (followers_.erase(conn_id) == 0) return;
  followers_active_.store(followers_.size(), std::memory_order_relaxed);
  // Quorum shrinks with membership; waiters recompute over survivors.
  ack_cv_.notify_all();
}

bool ReplicationHub::IsFollower(uint64_t conn_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return followers_.count(conn_id) > 0;
}

PublishOutcome ReplicationHub::Ship(int64_t log_id,
                                    const std::string& frame) {
  PublishOutcome outcome;
  std::lock_guard<std::mutex> lock(mutex_);
  if (log_id > 0) {
    last_shipped_.store(log_id, std::memory_order_relaxed);
    if (ship_times_.size() < kMaxShipTimes) {
      ship_times_[log_id] = Clock::now();
    }
  }
  for (auto it = followers_.begin(); it != followers_.end();) {
    Follower& follower = it->second;
    if (follower.queue.size() >= max_buffered_records_) {
      // Bounded divergence: a follower that cannot drain its queue is
      // cut loose now and re-syncs from its durable position later.
      outcome.evict_conns.push_back(it->first);
      followers_evicted_.Increment();
      it = followers_.erase(it);
      continue;
    }
    follower.queued_bytes += frame.size();
    follower.queue.push_back(frame);
    outcome.ready_conns.push_back(it->first);
    ++it;
  }
  if (!outcome.evict_conns.empty()) {
    followers_active_.store(followers_.size(), std::memory_order_relaxed);
    ack_cv_.notify_all();
  }
  records_shipped_.Increment();
  bytes_shipped_.Increment(frame.size());
  return outcome;
}

void ReplicationHub::Ack(uint64_t conn_id, int64_t log_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = followers_.find(conn_id);
  if (it == followers_.end()) return;
  acks_received_.Increment();
  if (log_id <= it->second.acked) return;
  it->second.acked = log_id;
  auto shipped = ship_times_.find(log_id);
  if (shipped != ship_times_.end()) {
    it->second.last_ack_latency_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - shipped->second)
            .count();
  }
  // Trim ship times below the slowest follower's ack.
  int64_t min_acked = log_id;
  for (const auto& entry : followers_) {
    min_acked = std::min(min_acked, entry.second.acked);
  }
  ship_times_.erase(ship_times_.begin(),
                    ship_times_.lower_bound(min_acked + 1));
  ack_cv_.notify_all();
}

Status ReplicationHub::WaitForAcks(int64_t log_id, ReplAckPolicy policy,
                                   std::chrono::milliseconds timeout) {
  if (policy == ReplAckPolicy::kNone) return Status::Ok();
  std::unique_lock<std::mutex> lock(mutex_);
  auto satisfied = [&] {
    size_t need = policy == ReplAckPolicy::kAll
                      ? followers_.size()
                      : (followers_.size() + 1) / 2;
    size_t have = 0;
    for (const auto& entry : followers_) {
      if (entry.second.acked >= log_id) ++have;
    }
    return have >= need;
  };
  if (!ack_cv_.wait_for(lock, timeout, satisfied)) {
    ack_wait_timeouts_.Increment();
    return Status::DeadlineExceeded(
        "replication ack timeout at log id " + std::to_string(log_id) +
        " under policy " + ReplAckPolicyName(policy) +
        " (the write is committed locally but under-replicated)");
  }
  return Status::Ok();
}

size_t ReplicationHub::DrainFrames(uint64_t conn_id, size_t max_bytes,
                                   std::string* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = followers_.find(conn_id);
  if (it == followers_.end()) return 0;
  Follower& follower = it->second;
  size_t frames = 0;
  size_t appended = 0;
  while (!follower.queue.empty() && appended < max_bytes) {
    const std::string& frame = follower.queue.front();
    out->append(frame);
    appended += frame.size();
    follower.queued_bytes -= frame.size();
    follower.queue.pop_front();
    ++frames;
  }
  return frames;
}

bool ReplicationHub::HasPending(uint64_t conn_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = followers_.find(conn_id);
  return it != followers_.end() && !it->second.queue.empty();
}

size_t ReplicationHub::TotalPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& entry : followers_) {
    total += entry.second.queue.size();
  }
  return total;
}

std::string ReplicationHub::MetricsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t shipped = last_shipped_.load(std::memory_order_relaxed);
  service::JsonArray followers;
  for (const auto& [conn_id, follower] : followers_) {
    int64_t lag = shipped - follower.acked;
    followers.Add(service::JsonObject()
                      .Add("conn_id", conn_id)
                      .Add("acked", follower.acked)
                      .Add("lag_records", lag < 0 ? 0 : lag)
                      .Add("lag_bytes", follower.queued_bytes)
                      .Add("last_ack_latency_ms", follower.last_ack_latency_ms)
                      .str());
  }
  return service::JsonObject()
      .Add("last_shipped", shipped)
      .Add("followers_active", followers_.size())
      .Add("records_shipped", records_shipped_.value())
      .Add("bytes_shipped", bytes_shipped_.value())
      .Add("acks_received", acks_received_.value())
      .Add("ack_wait_timeouts", ack_wait_timeouts_.value())
      .Add("followers_evicted", followers_evicted_.value())
      .AddJson("followers", followers.str())
      .str();
}

// --- ReplicaSession ---

ReplicaSession::ReplicaSession(std::string upstream, ReplicaApplier applier,
                               ReplicaSessionOptions options)
    : applier_(std::move(applier)),
      options_(options),
      upstream_(std::move(upstream)) {}

ReplicaSession::~ReplicaSession() { Stop(); }

void ReplicaSession::Start() {
  if (started_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread([this] { Run(); });
}

void ReplicaSession::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  started_.store(false);
}

void ReplicaSession::Repoint(const std::string& upstream) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (upstream == upstream_) return;
  upstream_ = upstream;
  repoint_pending_ = true;
}

std::string ReplicaSession::upstream() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return upstream_;
}

std::string ReplicaSession::MetricsJson() const {
  return service::JsonObject()
      .Add("upstream", upstream())
      .Add("connected", connected())
      .Add("reconnects", reconnects_.value())
      .Add("resyncs", resyncs_.value())
      .Add("records_applied", records_applied_.value())
      .Add("bytes_received", bytes_received_.value())
      .Add("apply_errors", apply_errors_.value())
      .str();
}

bool ReplicaSession::SleepReconnectBackoff(RetryBudget* budget) {
  auto delay = budget->NextDelay();
  // An exhausted budget only means the doubling hit its cap; keep
  // retrying at the cap — a replica never gives up on its primary.
  int64_t millis =
      delay.has_value() ? delay->count() : options_.backoff.max_backoff.count();
  while (millis > 0 && !stop_.load()) {
    int64_t slice = std::min<int64_t>(millis, kBackoffSliceMillis);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    millis -= slice;
  }
  return !stop_.load();
}

bool ReplicaSession::SendAck(int fd, int64_t applied) {
  Message ack{MessageType::kReplicateAckRequest,
              EncodeFields({std::to_string(applied)}), WireVersion::kV2};
  auto deadline = Clock::now() + options_.connect_timeout;
  return SendAll(fd, EncodeFrame(ack), deadline).ok();
}

void ReplicaSession::ApplyEvent(const ReplicateEvent& event, int fd,
                                bool* resync) {
  switch (event.kind) {
    case ReplicateEvent::Kind::kWal: {
      querylog::WalRecordType type;
      std::string payload;
      size_t consumed = 0;
      auto decoded = querylog::DecodeWalRecord(event.wal_record, &type,
                                               &payload, &consumed);
      if (!decoded.ok() || !*decoded ||
          consumed != event.wal_record.size()) {
        // Corrupt or truncated on the stream; never apply past it.
        resyncs_.Increment();
        *resync = true;
        return;
      }
      if (type == querylog::WalRecordType::kCheckpoint) {
        // Checkpoint markers delimit the primary's WAL rotation; they
        // carry no log entries, so validate and move on.
        return;
      }
      auto entry = querylog::DecodeQueryWalPayload(payload);
      if (!entry.ok()) {
        resyncs_.Increment();
        *resync = true;
        return;
      }
      switch (DecideShippedQuery(applier_.applied_log_id(), entry->id)) {
        case ShipDecision::kDuplicate:
          // Catch-up overlap after a re-sync; already applied.
          return;
        case ShipDecision::kResync:
          resyncs_.Increment();
          *resync = true;
          return;
        case ShipDecision::kApply:
          break;
      }
      Status applied = applier_.apply_query(*entry);
      if (!applied.ok()) {
        apply_errors_.Increment();
        *resync = true;
        return;
      }
      records_applied_.Increment();
      if (!SendAck(fd, entry->id)) *resync = true;
      return;
    }
    case ReplicateEvent::Kind::kCheckpoint: {
      Status applied = applier_.apply_bootstrap(
          event.db_dump, event.log_dump, event.load_generation,
          event.stamp_micros);
      if (!applied.ok()) {
        apply_errors_.Increment();
        *resync = true;
        return;
      }
      records_applied_.Increment();
      if (!SendAck(fd, applier_.applied_log_id())) *resync = true;
      return;
    }
    case ReplicateEvent::Kind::kLoad: {
      Status applied = applier_.apply_load(
          event.load_kind, event.load_dump, event.load_generation,
          event.stamp_micros);
      if (!applied.ok()) {
        apply_errors_.Increment();
        *resync = true;
        return;
      }
      records_applied_.Increment();
      if (!SendAck(fd, applier_.applied_log_id())) *resync = true;
      return;
    }
  }
}

void ReplicaSession::Run() {
  RetryBudget budget(options_.backoff, /*max_retries=*/1 << 20,
                     Clock::time_point::max(), std::random_device{}());
  while (!stop_.load()) {
    std::string target;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      repoint_pending_ = false;
      target = upstream_;
    }
    auto endpoint = ParseHostPort(target);
    if (!endpoint.ok()) {
      if (!SleepReconnectBackoff(&budget)) return;
      continue;
    }
    auto fd = Dial(endpoint->first, endpoint->second,
                   options_.connect_timeout, /*so_rcvbuf=*/0);
    if (!fd.ok()) {
      if (!SleepReconnectBackoff(&budget)) return;
      continue;
    }
    reconnects_.Increment();
    ReplicateHandshake handshake;
    handshake.applied_log_id = applier_.applied_log_id();
    handshake.have_state = applier_.have_state();
    handshake.load_generation = applier_.load_generation();
    Message hello{MessageType::kReplicateRequest,
                  EncodeReplicateHandshake(handshake), WireVersion::kV2};
    if (!SendAll(*fd, EncodeFrame(hello),
                 Clock::now() + options_.connect_timeout)
             .ok()) {
      ::close(*fd);
      if (!SleepReconnectBackoff(&budget)) return;
      continue;
    }
    connected_.store(true);
    bool handshake_acked = false;
    bool resync = false;
    FrameReader reader(options_.max_frame_bytes);
    char buf[65536];
    while (!stop_.load() && !resync) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (repoint_pending_) break;
      }
      bool progressed = false;
      while (!resync) {
        auto next = reader.Next();
        if (!next.ok()) {
          resyncs_.Increment();
          resync = true;
          break;
        }
        if (!next->has_value()) break;
        Message message = std::move(**next);
        if (message.type == MessageType::kReplicateEvent) {
          auto event = DecodeReplicateEvent(message.payload);
          if (!event.ok()) {
            resyncs_.Increment();
            resync = true;
            break;
          }
          ApplyEvent(*event, *fd, &resync);
          progressed = true;
          continue;
        }
        if (message.type == MessageType::kOkResponse) {
          // The REPLICATE handshake ack. Events may legally arrive
          // before it (the loop can flush hub frames ahead of the
          // handler's response), so it carries no state we need.
          if (handshake_acked) {
            resync = true;  // unsolicited response: protocol violation
            break;
          }
          handshake_acked = true;
          continue;
        }
        if (message.type == MessageType::kErrorResponse) {
          Status error = DecodeErrorMessage(message.payload);
          std::string redirect = NotPrimaryAddress(error);
          if (!redirect.empty()) Repoint(redirect);
          resync = true;
          break;
        }
        resync = true;  // anything else is a protocol violation
        break;
      }
      if (stop_.load() || resync) break;
      if (progressed) continue;  // drain buffered frames before polling
      pollfd pfd{*fd, POLLIN, 0};
      int n = ::poll(&pfd, 1, kSessionPollMillis);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) continue;
      ssize_t r = ::read(*fd, buf, sizeof(buf));
      if (r > 0) {
        reader.Feed(buf, static_cast<size_t>(r));
        bytes_received_.Increment(static_cast<uint64_t>(r));
        continue;
      }
      if (r == 0) break;  // primary closed (shutdown or our eviction)
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    connected_.store(false);
    ::close(*fd);
    if (stop_.load()) return;
    bool repoint;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      repoint = repoint_pending_;
    }
    if (handshake_acked && !resync && repoint) {
      // A healthy stream being repointed reconnects immediately.
      budget = RetryBudget(options_.backoff, 1 << 20,
                           Clock::time_point::max(), budget.jitter_state());
      continue;
    }
    if (!SleepReconnectBackoff(&budget)) return;
    if (handshake_acked) {
      // Progress was made on this connection; start the next attempt's
      // backoff from the base again.
      budget = RetryBudget(options_.backoff, 1 << 20,
                           Clock::time_point::max(), budget.jitter_state());
    }
  }
}

}  // namespace net
}  // namespace auditdb
