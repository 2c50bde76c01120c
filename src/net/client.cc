#include "src/net/client.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <thread>

#include "src/common/string_util.h"
#include "src/net/replication.h"
#include "src/net/socket.h"

namespace auditdb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Receiver poll granularity: bounds both Close()-join latency and the
/// dispatch delay for pushes parked while a Subscribe was in flight.
constexpr int kReceiverPollMillis = 50;

/// Cap on pushes parked before the receiver starts (or while a
/// Subscribe is in flight). The server's own per-subscriber queue bound
/// keeps legitimate traffic far below this; crossing it means a
/// misbehaving peer.
constexpr size_t kMaxStashedPushes = 1u << 16;

}  // namespace

AuditClient::AuditClient(std::string host, uint16_t port,
                         AuditClientOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      jitter_state_(std::random_device{}()),
      reader_(options.max_frame_bytes) {
  endpoints_.emplace_back(host_, port_);
}

AuditClient::AuditClient(std::vector<std::string> endpoints,
                         AuditClientOptions options)
    : options_(options),
      jitter_state_(std::random_device{}()),
      reader_(options.max_frame_bytes) {
  for (const auto& endpoint : endpoints) {
    auto parsed = ParseHostPort(endpoint);
    if (parsed.ok()) {
      endpoints_.push_back(std::move(*parsed));
    } else {
      // Kept so Connect() surfaces the bad address instead of silently
      // shrinking the rotation.
      endpoints_.emplace_back(endpoint, 0);
    }
  }
  if (endpoints_.empty()) endpoints_.emplace_back("", 0);
  ActivateEndpoint(0);
}

void AuditClient::ActivateEndpoint(size_t index) {
  active_endpoint_ = index % endpoints_.size();
  host_ = endpoints_[active_endpoint_].first;
  port_ = endpoints_[active_endpoint_].second;
}

void AuditClient::RotateEndpoint() {
  if (endpoints_.size() > 1) ActivateEndpoint(active_endpoint_ + 1);
}

void AuditClient::RepointTo(const std::string& address) {
  auto parsed = ParseHostPort(address);
  if (!parsed.ok()) return;
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i] == *parsed) {
      ActivateEndpoint(i);
      return;
    }
  }
  endpoints_.push_back(std::move(*parsed));
  ActivateEndpoint(endpoints_.size() - 1);
}

std::string AuditClient::endpoint() const {
  return host_ + ":" + std::to_string(port_);
}

std::vector<std::string> AuditClient::endpoints() const {
  std::vector<std::string> out;
  out.reserve(endpoints_.size());
  for (const auto& entry : endpoints_) {
    out.push_back(entry.first + ":" + std::to_string(entry.second));
  }
  return out;
}

AuditClient::~AuditClient() { Close(); }

void AuditClient::Close() {
  StopReceiver();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    handlers_.clear();
    stash_.clear();
    stream_ok_ = true;
    stream_error_ = Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_.reset();
    want_response_ = false;
  }
  subscribe_pending_.store(false);
}

Status AuditClient::Connect() {
  Close();
  AUDITDB_ASSIGN_OR_RETURN(fd_, Dial(host_, port_, options_.connect_timeout,
                                     options_.so_rcvbuf));
  reader_ = FrameReader(options_.max_frame_bytes);
  return Status::Ok();
}

Result<Message> AuditClient::ReadResponse(Clock::time_point deadline) {
  char buf[16384];
  while (true) {
    auto next = reader_.Next();
    if (!next.ok()) return next.status();
    if (next->has_value()) {
      Message message = std::move(**next);
      if (message.type == MessageType::kPushEvent) {
        // A server-initiated push raced ahead of the response (legal:
        // the event loop may flush a parked push before the handler's
        // reply). Park it for the receiver thread.
        AUDITDB_RETURN_IF_ERROR(StashPush(message));
        continue;
      }
      return message;
    }
    AUDITDB_RETURN_IF_ERROR(Await(fd_, POLLIN, deadline));
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::Internal("connection closed before response");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      continue;
    }
    return Status::Internal(std::string("read: ") + strerror(errno));
  }
}

Result<Message> AuditClient::TryOnce(const Message& request,
                                     Status* transport_error,
                                     Clock::time_point deadline) {
  *transport_error = Status::Ok();
  Status sent = SendAll(fd_, EncodeFrame(request), deadline);
  if (!sent.ok()) {
    *transport_error = sent;
    return sent;
  }
  auto response = ReadResponse(deadline);
  if (!response.ok()) {
    *transport_error = response.status();
    return response.status();
  }
  return response;
}

Result<Message> AuditClient::RoundTrip(const Message& request) {
  if (receiver_running_.load()) {
    return StreamingRoundTrip(request);
  }
  Message versioned = request;
  versioned.version = options_.wire_version;
  const bool retryable = options_.retry_idempotent &&
                         IsIdempotentType(request.type) &&
                         options_.max_retries > 0;
  // One deadline and ONE RetryBudget cover every failure mode of this
  // round trip — refused connects, torn transports, endpoint rotation —
  // so wrapping one retry mechanism in another can never multiply the
  // configured budget (retries spend the request's time budget, they do
  // not extend it).
  const auto deadline = Clock::now() + options_.request_timeout;
  RetryBudget budget(
      BackoffOptions{options_.retry_initial_backoff,
                     options_.retry_max_backoff},
      retryable ? options_.max_retries : 0, deadline, jitter_state_);
  // NOT_PRIMARY redirects are separate from the retry budget: the
  // server rejected *before* any side effect, so following the carried
  // address is safe even for writes, sleep-free, and bounded (one hop
  // to the primary plus one more in case a promotion races it).
  int redirects_left = options_.follow_not_primary ? 2 : 0;
  while (true) {
    if (fd_ < 0) {
      Status connected = Connect();
      if (!connected.ok()) {
        // A refused/failed connect is always safe to retry (nothing was
        // sent), still bounded by max_retries and the deadline; with a
        // multi-endpoint config each retry tries the next node.
        if (retryable &&
            connected.code() != StatusCode::kDeadlineExceeded &&
            budget.SleepBeforeRetry()) {
          RotateEndpoint();
          continue;
        }
        jitter_state_ = budget.jitter_state();
        return connected;
      }
    }
    Status transport_error;
    auto response = TryOnce(versioned, &transport_error, deadline);
    if (!response.ok()) {
      Close();
      // Only transport failures on idempotent requests retry, never
      // timeouts (the server may still be working on it).
      if (retryable &&
          transport_error.code() == StatusCode::kInternal &&
          budget.SleepBeforeRetry()) {
        RotateEndpoint();
        continue;
      }
      jitter_state_ = budget.jitter_state();
      return response.status();
    }
    jitter_state_ = budget.jitter_state();
    if (response->type == MessageType::kErrorResponse) {
      // Server-side error: the connection stays healthy and the carried
      // Status (e.g. ResourceExhausted from admission control) is the
      // result.
      Status error = DecodeErrorMessage(response->payload);
      if (IsNotPrimaryStatus(error) && redirects_left > 0) {
        --redirects_left;
        Close();
        std::string primary = NotPrimaryAddress(error);
        if (!primary.empty()) {
          RepointTo(primary);
        } else {
          RotateEndpoint();
        }
        continue;
      }
      return error;
    }
    if (response->type != MessageType::kOkResponse) {
      Close();
      return Status::Internal("unexpected response frame type");
    }
    return response;
  }
}

Result<Message> AuditClient::StreamingRoundTrip(const Message& request) {
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    if (!stream_ok_) return stream_error_;
  }
  Message versioned = request;
  versioned.version = options_.wire_version;
  const auto deadline = Clock::now() + options_.request_timeout;
  {
    std::lock_guard<std::mutex> lock(mail_mutex_);
    mail_.reset();
    want_response_ = true;
  }
  // The receiver owns reads; writes stay on the calling thread — the
  // socket is full-duplex, so the two never collide.
  Status sent = SendAll(fd_, EncodeFrame(versioned), deadline);
  if (!sent.ok()) {
    FailStream(sent);
    Close();
    return sent;
  }
  std::unique_lock<std::mutex> lock(mail_mutex_);
  mail_cv_.wait_until(lock, deadline, [&] {
    if (mail_.has_value()) return true;
    std::lock_guard<std::mutex> slock(stream_mutex_);
    return !stream_ok_;
  });
  if (!mail_.has_value()) {
    want_response_ = false;
    lock.unlock();
    Status error;
    {
      std::lock_guard<std::mutex> slock(stream_mutex_);
      error = stream_ok_
                  ? Status::DeadlineExceeded("deadline expired")
                  : stream_error_;
    }
    // A timed-out streaming session cannot resynchronize (the response
    // may still arrive); poison it.
    FailStream(error);
    Close();
    return error;
  }
  Message response = std::move(*mail_);
  mail_.reset();
  want_response_ = false;
  lock.unlock();
  if (response.type == MessageType::kErrorResponse) {
    return DecodeErrorMessage(response.payload);
  }
  if (response.type != MessageType::kOkResponse) {
    Status error = Status::Internal("unexpected response frame type");
    FailStream(error);
    Close();
    return error;
  }
  return response;
}

Status AuditClient::StashPush(const Message& message) {
  auto event = DecodePushPayload(message.payload);
  if (!event.ok()) return event.status();
  std::lock_guard<std::mutex> lock(stream_mutex_);
  if (stash_.size() >= kMaxStashedPushes) {
    return Status::Internal("push backlog overflow");
  }
  stash_.push_back(std::move(*event));
  return Status::Ok();
}

void AuditClient::DrainStash() {
  std::vector<std::pair<PushHandler, PushEvent>> ready;
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    if (stash_.empty()) return;
    const bool keep_unknown = subscribe_pending_.load();
    std::deque<PushEvent> kept;
    for (auto& event : stash_) {
      auto it = handlers_.find(event.subscription_id);
      if (it != handlers_.end()) {
        ready.emplace_back(it->second, std::move(event));
      } else if (keep_unknown) {
        // The SUBSCRIBE OK has not been processed yet; its pushes may
        // legally arrive first. Park until the handler registers.
        kept.push_back(std::move(event));
      }
      // else: straggler for an unsubscribed id — drop silently.
    }
    stash_.swap(kept);
  }
  for (auto& entry : ready) {
    entry.first(entry.second);
  }
}

void AuditClient::FailStream(const Status& error) {
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    if (stream_ok_) {
      stream_ok_ = false;
      stream_error_ = error;
    }
  }
  std::lock_guard<std::mutex> lock(mail_mutex_);
  mail_cv_.notify_all();
}

void AuditClient::EnsureReceiver() {
  if (receiver_running_.load()) return;
  receiver_stop_.store(false);
  receiver_running_.store(true);
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

void AuditClient::StopReceiver() {
  receiver_stop_.store(true);
  if (receiver_.joinable()) {
    receiver_.join();
  }
  receiver_running_.store(false);
}

void AuditClient::ReceiverLoop() {
  char buf[16384];
  while (!receiver_stop_.load()) {
    // Drain every frame already buffered before blocking again.
    while (true) {
      auto next = reader_.Next();
      if (!next.ok()) {
        FailStream(next.status());
        return;
      }
      if (!next->has_value()) break;
      Message message = std::move(**next);
      if (message.type == MessageType::kPushEvent) {
        Status stashed = StashPush(message);
        if (!stashed.ok()) {
          FailStream(stashed);
          return;
        }
        continue;
      }
      bool unexpected = false;
      {
        std::lock_guard<std::mutex> lock(mail_mutex_);
        if (!want_response_ || mail_.has_value()) {
          unexpected = true;
        } else {
          mail_ = std::move(message);
          mail_cv_.notify_all();
        }
      }
      if (unexpected) {
        FailStream(Status::Internal("unsolicited response frame"));
        return;
      }
    }
    DrainStash();
    if (receiver_stop_.load()) return;
    pollfd pfd{fd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, kReceiverPollMillis);
    if (n < 0) {
      if (errno == EINTR) continue;
      FailStream(Status::Internal(std::string("poll: ") + strerror(errno)));
      return;
    }
    if (n == 0) continue;
    ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r > 0) {
      reader_.Feed(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      FailStream(Status::Internal("server closed the connection"));
      return;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      continue;
    }
    FailStream(Status::Internal(std::string("read: ") + strerror(errno)));
    return;
  }
}

Result<AuditClient::Subscription> AuditClient::Subscribe(
    const std::string& expression, Timestamp now, PushHandler handler) {
  return SubscribeInternal("expr", expression, now, std::move(handler));
}

Result<AuditClient::Subscription> AuditClient::SubscribeById(
    int expression_id, PushHandler handler) {
  return SubscribeInternal("id", std::to_string(expression_id),
                           Timestamp(), std::move(handler));
}

Result<AuditClient::Subscription> AuditClient::SubscribeInternal(
    const std::string& kind, const std::string& value, Timestamp now,
    PushHandler handler) {
  if (!handler) {
    return Status::InvalidArgument("Subscribe requires a push handler");
  }
  if (options_.wire_version != WireVersion::kV2) {
    return Status::InvalidArgument(
        "subscriptions require wire_version kV2 (ADB2)");
  }
  Message request{
      MessageType::kSubscribeRequest,
      EncodeFields({kind, value, std::to_string(now.micros())})};
  // While the round trip is in flight, pushes for the not-yet-known
  // subscription id are parked instead of dropped.
  subscribe_pending_.store(true);
  auto response = RoundTrip(request);
  if (!response.ok()) {
    subscribe_pending_.store(false);
    return response.status();
  }
  auto fields = DecodeFields(response->payload);
  if (!fields.ok()) {
    subscribe_pending_.store(false);
    return fields.status();
  }
  Subscription sub;
  int64_t expression_id = 0;
  if (fields->size() != 4 || !ParseInt64((*fields)[0], &sub.id) ||
      !ParseInt64((*fields)[1], &expression_id) ||
      !ParseDouble((*fields)[2], &sub.rank)) {
    subscribe_pending_.store(false);
    return Status::Internal("malformed subscribe response");
  }
  sub.expression_id = static_cast<int>(expression_id);
  sub.fired = (*fields)[3] == "1";
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    handlers_[sub.id] = std::move(handler);
  }
  // Order matters: register the handler before clearing the pending
  // flag, so a concurrent DrainStash never sees parked events for this
  // id as droppable strays.
  subscribe_pending_.store(false);
  EnsureReceiver();
  return sub;
}

Status AuditClient::Unsubscribe(int64_t subscription_id) {
  if (options_.wire_version != WireVersion::kV2) {
    return Status::InvalidArgument(
        "subscriptions require wire_version kV2 (ADB2)");
  }
  Message request{MessageType::kUnsubscribeRequest,
                  EncodeFields({std::to_string(subscription_id)})};
  auto response = RoundTrip(request);
  if (!response.ok()) return response.status();
  std::lock_guard<std::mutex> lock(stream_mutex_);
  handlers_.erase(subscription_id);
  return Status::Ok();
}

size_t AuditClient::active_subscriptions() const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  return handlers_.size();
}

Status AuditClient::StreamStatus() const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  return stream_ok_ ? Status::Ok() : stream_error_;
}

Result<AuditClient::RemoteReport> AuditClient::Audit(
    const std::string& expression, Timestamp now, bool static_only) {
  Message request{static_only ? MessageType::kAuditStaticRequest
                              : MessageType::kAuditRequest,
                  EncodeFields({expression, std::to_string(now.micros())})};
  auto response = RoundTrip(request);
  if (!response.ok()) return response.status();
  auto fields = DecodeFields(response->payload);
  if (!fields.ok()) return fields.status();
  if (fields->size() != 2) {
    return Status::Internal("malformed audit response");
  }
  return RemoteReport{std::move((*fields)[0]), std::move((*fields)[1])};
}

Result<std::vector<AuditClient::RemoteScreening>>
AuditClient::ScreenLibrary(const std::vector<std::string>& expressions,
                           Timestamp now) {
  std::vector<std::string> fields;
  fields.reserve(expressions.size() + 1);
  fields.push_back(std::to_string(now.micros()));
  fields.insert(fields.end(), expressions.begin(), expressions.end());
  Message request{MessageType::kScreenLibraryRequest,
                  EncodeFields(fields)};
  auto response = RoundTrip(request);
  if (!response.ok()) return response.status();
  auto decoded = DecodeFields(response->payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded->size() % 4 != 0) {
    return Status::Internal("malformed screening response");
  }
  std::vector<RemoteScreening> out;
  for (size_t i = 0; i + 3 < decoded->size(); i += 4) {
    RemoteScreening screening;
    // An empty id field is accepted and reads as 0.
    if (!(*decoded)[i].empty() &&
        !ParseInt64((*decoded)[i], &screening.expression_id)) {
      return Status::Internal("malformed screening response");
    }
    StatusCode code = StatusCodeFromName((*decoded)[i + 1]);
    screening.status = code == StatusCode::kOk
                           ? Status::Ok()
                           : Status(code, (*decoded)[i + 2]);
    screening.canonical = std::move((*decoded)[i + 3]);
    out.push_back(std::move(screening));
  }
  return out;
}

Result<AuditClient::RemoteQueryResult> AuditClient::ExecuteQuery(
    const std::string& sql, const std::string& user,
    const std::string& role, const std::string& purpose, Timestamp now) {
  Message request{
      MessageType::kExecuteQueryRequest,
      EncodeFields({sql, user, role, purpose,
                    std::to_string(now.micros())})};
  auto response = RoundTrip(request);
  if (!response.ok()) return response.status();
  auto fields = DecodeFields(response->payload);
  if (!fields.ok()) return fields.status();
  RemoteQueryResult result;
  uint64_t num_rows = 0;
  if (fields->size() != 3 || !ParseUint64((*fields)[1], &num_rows) ||
      !ParseInt64((*fields)[2], &result.log_id)) {
    return Status::Internal("malformed execute response");
  }
  result.rendered = std::move((*fields)[0]);
  result.num_rows = static_cast<size_t>(num_rows);
  return result;
}

Status AuditClient::LoadDatabaseDump(const std::string& dump_text,
                                     Timestamp now) {
  Message request{
      MessageType::kLoadDumpRequest,
      EncodeFields({"db", dump_text, std::to_string(now.micros())})};
  auto response = RoundTrip(request);
  return response.ok() ? Status::Ok() : response.status();
}

Status AuditClient::LoadQueryLogDump(const std::string& dump_text) {
  Message request{MessageType::kLoadDumpRequest,
                  EncodeFields({"log", dump_text, "0"})};
  auto response = RoundTrip(request);
  return response.ok() ? Status::Ok() : response.status();
}

Result<std::string> AuditClient::Health() {
  auto response = RoundTrip(Message{MessageType::kHealthRequest, ""});
  if (!response.ok()) return response.status();
  return response->payload;
}

Result<std::string> AuditClient::MetricsJson() {
  auto response = RoundTrip(Message{MessageType::kMetricsRequest, ""});
  if (!response.ok()) return response.status();
  return response->payload;
}

}  // namespace net
}  // namespace auditdb
