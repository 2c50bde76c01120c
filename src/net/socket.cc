#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace auditdb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped to [0, 1 h] for poll().
int RemainingMillis(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60 * 60 * 1000) return 60 * 60 * 1000;
  return static_cast<int>(left.count());
}

}  // namespace

Status Await(int fd, short events, Clock::time_point deadline) {
  while (true) {
    int timeout = RemainingMillis(deadline);
    if (timeout <= 0) return Status::DeadlineExceeded("deadline expired");
    pollfd pfd{fd, events, 0};
    int n = ::poll(&pfd, 1, timeout);
    if (n > 0) {
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        return Status::Internal("socket error");
      }
      return Status::Ok();
    }
    if (n == 0) return Status::DeadlineExceeded("deadline expired");
    if (errno != EINTR) {
      return Status::Internal(std::string("poll: ") + strerror(errno));
    }
  }
}

Status SendAll(int fd, std::string_view bytes, Clock::time_point deadline) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                       MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      AUDITDB_RETURN_IF_ERROR(Await(fd, POLLOUT, deadline));
      continue;
    }
    return Status::Internal(std::string("send: ") + strerror(errno));
  }
  return Status::Ok();
}

Result<int> Dial(const std::string& host, uint16_t port,
                 std::chrono::milliseconds connect_timeout, int so_rcvbuf) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  if (so_rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &so_rcvbuf, sizeof(so_rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 host: " + host);
  }
  const std::string target = host + ":" + std::to_string(port);
  auto deadline = Clock::now() + connect_timeout;
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status status =
        Status::Internal("connect " + target + ": " + strerror(errno));
    ::close(fd);
    return status;
  }
  if (rc != 0) {
    Status ready = Await(fd, POLLOUT, deadline);
    if (!ready.ok()) {
      ::close(fd);
      return ready;
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      Status status = Status::Internal("connect " + target + ": " +
                                       strerror(error != 0 ? error : errno));
      ::close(fd);
      return status;
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace net
}  // namespace auditdb
